"""Core discrete-event simulation engine.

The engine is deliberately small and deterministic:

* :class:`Simulator` owns a monotonically non-decreasing clock and a binary
  heap of scheduled callbacks.  Ties are broken by insertion order so runs
  are bit-for-bit reproducible.
* :class:`Future` is a one-shot completion token.  Hardware models resolve
  futures when an operation's modeled duration elapses.
* :class:`Process` wraps a generator coroutine.  A process ``yield``\\ s
  futures (or other processes — a :class:`Process` *is* a future) and is
  resumed with the future's value once it resolves.  Exceptions propagate
  into the generator via ``throw`` so protocol code can use ordinary
  ``try/except``.

Time is measured in **seconds** as floats; bandwidths elsewhere in the
package are bytes/second.

Performance notes (see ``docs/SIM_PERF.md``):

* Heap entries are mutable ``[when, seq, fn]`` lists recycled through a
  free list, so steady-state event traffic allocates no per-event
  containers.  ``seq`` is unique, so comparison never reaches ``fn`` and
  pop order is a pure function of ``(when, seq)`` — insertion order still
  breaks ties bit-for-bit identically to the original tuple heap
  (``tests/sim/reference_core.py`` keeps that loop frozen and
  ``tests/sim/test_equivalence.py`` proves the sequences match).
* ``schedule_at``/``schedule_after``/``schedule_soon`` are the no-handle
  fast primitives for fire-and-forget events (future resolution, process
  steps); ``call_*`` returns a cancellable :class:`TimerHandle` backed by
  the same entries, guarded by ``seq`` against slot recycling.
* Cancelled timers are normally discarded when they surface at the top of
  the heap, but a long-running world that arms and cancels millions of
  retransmit watchdogs would otherwise accumulate dead entries — the heap
  is compacted when the cancelled fraction crosses a threshold
  (:attr:`Simulator.timers_cancelled` counts all cancellations).
* The race-detector hooks in ``Future.resolve``/``Process._step`` are not
  per-event branches: :func:`repro.sanitize.runtime.subscribe` swaps fast
  vs. instrumented method bindings once at ``sanitize.enable``/``disable``
  time, so the uninstrumented hot path pays zero sanitizer cost.  Each
  instrumented form is a wrapper that adds its hooks around the fast
  body (stamp the future, then complete it; enter the process's actor,
  step, exit), so a sanitized run executes the benchmark's own bodies.
* :meth:`Simulator.run` pauses CPython's automatic cyclic collector while
  the loop runs: the message path builds no reference cycles, so every
  pass inside a run would walk live objects and find nothing.
"""

from __future__ import annotations

import gc
import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs import phases as _phases
from repro.sanitize import runtime as _san

__all__ = [
    "SimulationError",
    "ProcessKilled",
    "Future",
    "Process",
    "Simulator",
    "TimerHandle",
    "all_of",
    "any_of",
]


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (running backwards, double-resolve...)."""


class ProcessKilled(Exception):
    """Injected into a process generator when :meth:`Process.kill` is called."""


_PENDING = object()

#: recycled-entry free list cap — bounds idle memory, large enough that a
#: steady-state world never allocates entry lists after warmup
_FREE_MAX = 4096
#: compact the heap only once this many cancelled entries are live in it
_COMPACT_MIN = 64
#: relative slack for the backwards-scheduling guard: float arithmetic on
#: absolute deadlines legitimately lands a few ulps below ``now`` once the
#: clock grows (1 ulp at t=1000 is ~1.1e-13, far above the old absolute
#: 1e-18); such events are clamped to ``now``, only genuinely backwards
#: times raise
_PAST_REL_TOL = 1e-12
_PAST_ABS_TOL = 1e-18


class Future:
    """A one-shot value container that processes can wait on.

    A future is resolved exactly once, either with a value
    (:meth:`resolve`) or an exception (:meth:`fail`).  Callbacks added
    after resolution run immediately.
    """

    __slots__ = (
        "sim",
        "_value",
        "_exception",
        "_callbacks",
        "label",
        "_san_snap",
        "_fire_value",
    )

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        # lazily allocated: most futures get exactly one callback, many none
        self._callbacks: Optional[list[Callable[["Future"], None]]] = None
        self.label = label
        #: race-detector vector-clock snapshot carried resolver -> waiters;
        #: producers with a stronger ordering source (stream completion,
        #: mailbox put, banked semaphore token) pre-stamp it
        self._san_snap: Optional[dict] = None

    # -- state ----------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    @property
    def failed(self) -> bool:
        return self._exception is not None

    @property
    def value(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"future {self.label!r} not resolved yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- transitions ----------------------------------------------------
    # resolve/fail are rebound between the fast and the race-instrumented
    # implementations below by _bind_dispatch (via sanitize install/clear)
    def resolve(self, value: Any = None) -> None:
        """Complete the future with a value (exactly once)."""
        raise NotImplementedError  # pragma: no cover - replaced at import

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception (exactly once)."""
        raise NotImplementedError  # pragma: no cover - replaced at import

    def _resolve_scheduled(self) -> None:
        """Timer thunk: resolve with the value stashed at schedule time.

        Lets ``FifoLink``/``timeout`` deliver a payload through the fast
        no-handle scheduling primitives without a per-event closure.
        """
        self.resolve(self._fire_value)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        """Run ``cb(self)`` when resolved (immediately if already done)."""
        if self._value is not _PENDING or self._exception is not None:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


def _future_resolve_fast(self: Future, value: Any = None) -> None:
    """Complete the future with a value (exactly once)."""
    if self._value is not _PENDING or self._exception is not None:
        raise SimulationError(f"future {self.label!r} resolved twice")
    self._value = value
    callbacks = self._callbacks
    if callbacks is not None:
        self._callbacks = None
        for cb in callbacks:
            cb(self)


def _future_fail_fast(self: Future, exc: BaseException) -> None:
    """Complete the future with an exception (exactly once)."""
    if self._value is not _PENDING or self._exception is not None:
        raise SimulationError(f"future {self.label!r} resolved twice")
    self._exception = exc
    callbacks = self._callbacks
    if callbacks is not None:
        self._callbacks = None
        for cb in callbacks:
            cb(self)


def _race_stamped(complete: Callable[..., None]) -> Callable[..., None]:
    """The race-instrumented form of a completion: stamp, then complete.

    The resolver's clock joins the future's stamp before ``complete``
    (the fast body) runs the callbacks, so every waiter resumes with it.
    The merge does not read the value, so stamping first is the same as
    stamping after.  A future that is already done keeps its stamp, and
    the fast body raises the double resolve.
    """

    def instrumented(self: Future, *args: Any) -> None:
        if (
            _san.RACE is not None
            and self._value is _PENDING
            and self._exception is None
        ):
            self._san_snap = _san.RACE.merge_with_context(self._san_snap)
        complete(self, *args)

    instrumented.__doc__ = complete.__doc__
    return instrumented


_future_resolve_san = _race_stamped(_future_resolve_fast)
_future_fail_san = _race_stamped(_future_fail_fast)


class Process(Future):
    """A generator-based coroutine driven by the simulator.

    The wrapped generator may ``yield``:

    * a :class:`Future` (including another :class:`Process`) — the process
      sleeps until it resolves and is resumed with its value;
    * ``None`` — the process is rescheduled at the current time, after any
      already-queued callbacks (a cooperative yield point).

    The process itself is a future resolving with the generator's return
    value, or failing with its uncaught exception.
    """

    __slots__ = ("_gen", "_killed", "_san_actor", "_step0", "_resume")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        label: str = "",
        eager_start: bool = False,
    ) -> None:
        super().__init__(sim, label=label or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self._gen = gen
        self._killed = False
        self._san_actor: Optional[str] = None
        if _san.RACE is not None:
            # spawning is a happens-before edge from spawner to child
            self._san_actor = _san.RACE.on_spawn(self.label)
        # one closure each for the whole process lifetime (reused on every
        # cooperative yield / wait) instead of a fresh lambda per step;
        # late-bound attribute lookup so dispatch rebinding still applies.
        # Both close over self, so the step that finishes the process
        # drops them: a finished process is not a reference cycle
        self._step0 = lambda: self._step(None, None)
        self._resume = lambda fut: self._resume_from(fut)
        if eager_start:
            # run the first step synchronously inside the spawner's turn
            # instead of through the heap — one event and one deferral
            # cheaper.  Opt in only where the caller immediately waits on
            # the process (so nothing can observe the reordering); plain
            # spawn() keeps the deferred start the determinism contract
            # documents.
            self._step(None, None)
        else:
            sim.schedule_soon(self._step0)

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the coroutine at the next step."""
        if self.done:
            return
        self._killed = True
        self.sim.schedule_soon(lambda: self._step(None, ProcessKilled(reason)))

    # _step/_resume_from are rebound between the fast and instrumented
    # implementations below by _bind_dispatch (via sanitize install/clear)
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        raise NotImplementedError  # pragma: no cover - replaced at import

    def _resume_from(self, fut: Future) -> None:
        raise NotImplementedError  # pragma: no cover - replaced at import


def _process_step_fast(
    self: Process, value: Any, exc: Optional[BaseException]
) -> None:
    if self._value is not _PENDING or self._exception is not None:
        return
    try:
        if exc is not None:
            target = self._gen.throw(exc)
        else:
            target = self._gen.send(value)
    except StopIteration as stop:
        self._step0 = self._resume = None
        self.resolve(stop.value)
        return
    except BaseException as err:  # kills too: propagate into waiters
        self._step0 = self._resume = None
        self.fail(err)
        return

    if target is None:
        self.sim.schedule_soon(self._step0)
    elif isinstance(target, Future) or hasattr(target, "add_callback"):
        # duck-typed awaitables (e.g. repro.mpi.requests.Request) are
        # accepted as long as they follow the Future callback protocol
        target.add_callback(self._resume)
    else:
        self.sim.schedule_soon(
            lambda: self._step(
                None,
                TypeError(
                    f"process {self.label!r} yielded "
                    f"{type(target).__name__}; expected Future or None"
                ),
            )
        )


def _process_step_san(
    self: Process, value: Any, exc: Optional[BaseException]
) -> None:
    """:func:`_process_step_fast` run under the process's race actor."""
    race = _san.RACE
    if race is None or self._value is not _PENDING or self._exception is not None:
        _process_step_fast(self, value, exc)
        return
    if self._san_actor is None:
        self._san_actor = race.on_spawn(self.label)
    race.enter(self._san_actor)
    try:
        _process_step_fast(self, value, exc)
    finally:
        race.exit()


def _process_resume_fast(self: Process, fut: Future) -> None:
    # callbacks are always invoked with the concrete Future that resolved
    # (Request.add_callback delegates to its inner Process), so direct
    # slot access is safe here
    if fut._exception is not None:
        self._step(None, fut._exception)
    else:
        self._step(fut._value, None)


def _process_resume_san(self: Process, fut: Future) -> None:
    """:func:`_process_resume_fast` after joining the future's stamp."""
    if _san.RACE is not None and self._san_actor is not None:
        # waking on a resolved future is a happens-before edge: the
        # resolver's (or pre-stamped producer's) clock joins ours
        _san.RACE.on_resume(self._san_actor, fut._san_snap)
    _process_resume_fast(self, fut)


class TimerHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_at` / :meth:`call_after`.  A
    cancelled entry is skipped when it surfaces on the heap *without*
    advancing the clock, so short-lived watchdog timers (retransmit
    timeouts that are almost always cancelled by an ACK) leave the
    simulated timeline untouched.

    The handle points at a recyclable heap entry; ``_hseq`` guards
    against the slot having been reused for a later timer, so a stale
    ``cancel()`` can never kill someone else's event.
    """

    __slots__ = ("_sim", "_entry", "_hseq", "_cancelled")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self._sim = sim
        self._entry = entry
        self._hseq = entry[1]
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        entry = self._entry
        if entry[1] == self._hseq and entry[2] is not None:
            # still ours and not yet fired: kill it in place
            entry[2] = None
            sim = self._sim
            sim._timers_cancelled += 1
            live = sim._cancelled_live + 1
            sim._cancelled_live = live
            if live >= _COMPACT_MIN and 2 * live >= len(sim._heap):
                sim._compact()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """Deterministic event loop with a floating-point clock.

    Heap entries are ``[when, seq, fn]`` lists recycled through
    ``_free``; ``fn is None`` marks a fired or cancelled entry.  See the
    module docstring for the full fast-path design.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[list] = []
        self._free: list[list] = []
        self._events_processed = 0
        self._timers_cancelled = 0
        self._cancelled_live = 0  # cancelled entries still in the heap
        self._peak_depth = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def timers_cancelled(self) -> int:
        """Total timers cancelled before firing (monotonic)."""
        return self._timers_cancelled

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue (sampled per event)."""
        n = len(self._heap)
        return n if n > self._peak_depth else self._peak_depth

    def reset_peak_depth(self) -> None:
        """Restart the high-water tracking from the current depth.

        Lets observers (``MpiWorld.reset_stats``) report a peak per
        measurement window instead of one monotonic global maximum.
        """
        self._peak_depth = len(self._heap)

    # -- scheduling primitives ---------------------------------------------
    # schedule_* are the no-handle fast paths used by the engine itself
    # (future resolution, process steps, link deliveries); call_* return a
    # cancellable TimerHandle for watchdog-style use.

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at an absolute time."""
        now = self._now
        if when < now:
            if now - when > _PAST_REL_TOL * now + _PAST_ABS_TOL:
                raise SimulationError(
                    f"cannot schedule at {when} before current time {now}"
                )
            when = now
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = fn
        else:
            entry = [when, seq, fn]
        heappush(self._heap, entry)

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self._now + delay, fn)

    def schedule_soon(self, fn: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at the current time."""
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = self._now
            entry[1] = seq
            entry[2] = fn
        else:
            entry = [self._now, seq, fn]
        heappush(self._heap, entry)

    def call_at(self, when: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule a callback at an absolute simulated time (cancellable)."""
        now = self._now
        if when < now:
            if now - when > _PAST_REL_TOL * now + _PAST_ABS_TOL:
                raise SimulationError(
                    f"cannot schedule at {when} before current time {now}"
                )
            when = now
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = fn
        else:
            entry = [when, seq, fn]
        heappush(self._heap, entry)
        return TimerHandle(self, entry)

    def call_after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule a callback ``delay`` seconds from now (cancellable)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn)

    def call_soon(self, fn: Callable[[], None]) -> TimerHandle:
        """Schedule a callback at the current time (after queued events)."""
        return self.call_at(self._now, fn)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order is a pure function of the ``(when, seq)`` keys (``seq``
        is unique), so rebuilding the heap cannot change the event
        sequence.
        """
        free = self._free
        live = []
        for entry in self._heap:
            if entry[2] is None:
                if len(free) < _FREE_MAX:
                    free.append(entry)
            else:
                live.append(entry)
        self._heap = live
        heapq.heapify(live)
        self._cancelled_live = 0

    # -- futures ------------------------------------------------------------
    def future(self, label: str = "") -> Future:
        """Create an unresolved future on this clock."""
        return Future(self, label=label)

    def timeout(self, delay: float, value: Any = None, label: str = "") -> Future:
        """A future resolving ``delay`` seconds from now."""
        fut = Future(self, label=label or f"timeout({delay:g})")
        fut._fire_value = value
        self.schedule_after(delay, fut._resolve_scheduled)
        return fut

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        label: str = "",
        eager_start: bool = False,
    ) -> Process:
        """Start a coroutine; returns the :class:`Process` (itself a future).

        ``eager_start=True`` runs the first step inline instead of via the
        event queue — see :class:`Process`.
        """
        return Process(self, gen, label=label, eager_start=eager_start)

    # -- running -------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulated time when execution stopped.

        Automatic garbage collection is paused while the loop runs and
        re-enabled on the way out (also when an event raises) only if
        this call disabled it; an explicit ``gc.collect()`` still runs.
        The message path frees everything by reference counting
        (docs/SIM_PERF.md "Heap and garbage collection"), so the passes
        the pause skips would find no garbage.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            with _phases.measure(_phases.SIM_RUN):
                return self._run(until)
        finally:
            if paused:
                gc.enable()

    def _run(self, until: Optional[float] = None) -> float:
        heap = self._heap
        free = self._free
        processed = 0
        peak = self._peak_depth
        # local aliases + deferred counter writeback keep the per-event
        # cost to: one len, one peek, one pop, one recycle, one call
        try:
            while heap:
                depth = len(heap)
                if depth > peak:
                    # callbacks only push (pops happen only here), so the
                    # queue is deepest when an event surfaces — sampling
                    # per event tracks the exact high-water mark
                    peak = depth
                entry = heap[0]
                fn = entry[2]
                if fn is None:
                    # fired slot can't be on the heap; this is a cancelled
                    # timer: discard without touching the clock
                    heappop(heap)
                    self._cancelled_live -= 1
                    if len(free) < _FREE_MAX:
                        free.append(entry)
                    continue
                when = entry[0]
                if until is not None and when > until:
                    self._now = until
                    return until
                heappop(heap)
                entry[2] = None
                if len(free) < _FREE_MAX:
                    free.append(entry)
                self._now = when
                processed += 1
                fn()
            return self._now
        finally:
            self._events_processed += processed
            if peak > self._peak_depth:
                self._peak_depth = peak

    def run_until_complete(self, proc: Future, limit: float = 1e9) -> Any:
        """Run until ``proc`` resolves; raise if the queue drains first.

        With the MPI verifier installed (``REPRO_SANITIZE=verify``/
        ``all``) a stuck run is first handed to
        :meth:`repro.sanitize.verify.Verifier.on_stuck`, which records
        per-rank ``verify.deadlock``/``verify.stall`` violations and
        returns a wait-for-graph diagnosis that is appended to the
        exception message — naming each blocked rank's call, peer, tag
        and communicator instead of a bare "queue empty".
        """
        self.run(until=None if limit is None else self._now + limit)
        if not proc.done:
            queue_empty = not self._heap
            state = (
                f"queue empty at t={self._now:g}"
                if queue_empty
                else f"event limit hit at t={self._now:g}"
            )
            msg = f"deadlock: {proc.label!r} never completed ({state})"
            if _san.VERIFY is not None:
                detail = _san.VERIFY.on_stuck(
                    self, proc, queue_empty=queue_empty
                )
                if detail:
                    msg = f"{msg}\n{detail}"
            raise SimulationError(msg)
        return proc.value


class _AllOf:
    """:func:`all_of`'s countdown, shared by all of its inputs.

    One slotted object and one bound method per call, so pending inputs
    hold no closures; the values are read off the inputs once the last
    one resolves.
    """

    __slots__ = ("result", "futures", "remaining")

    def arrived(self, fut: Future) -> None:
        result = self.result
        if result.done:
            return
        if fut.failed:
            # inputs still pending point back here; let go of them
            self.futures = None
            result.fail(fut.exception)
            return
        if _san.RACE is not None:
            result._san_snap = _san.RACE.merge(result._san_snap, fut._san_snap)
        self.remaining -= 1
        if self.remaining == 0:
            result.resolve([f._value for f in self.futures])


def all_of(sim: Simulator, futures: Iterable[Future], label: str = "") -> Future:
    """A future resolving with the list of all values once every input resolves.

    Fails as soon as any input fails.
    """
    futures = list(futures)
    result = Future(sim, label=label or f"all_of[{len(futures)}]")
    if not futures:
        result.resolve([])
        return result
    countdown = _AllOf()
    countdown.result = result
    countdown.futures = futures
    countdown.remaining = len(futures)
    arrived = countdown.arrived
    for fut in futures:
        fut.add_callback(arrived)
    return result


def any_of(sim: Simulator, futures: Iterable[Future], label: str = "") -> Future:
    """A future resolving with ``(index, value)`` of the first input to resolve."""
    futures = list(futures)
    if not futures:
        raise ValueError("any_of needs at least one future")
    result = Future(sim, label=label or f"any_of[{len(futures)}]")

    def make_cb(i: int) -> Callable[[Future], None]:
        def cb(fut: Future) -> None:
            if result.done:
                return
            if fut.failed:
                result.fail(fut.exception)
            else:
                if _san.RACE is not None:
                    result._san_snap = _san.RACE.merge(result._san_snap, fut._san_snap)
                result.resolve((i, fut._value))

        return cb

    for i, fut in enumerate(futures):
        fut.add_callback(make_cb(i))
    return result


def _bind_dispatch(instrumented: bool) -> None:
    """Swap the hot dispatch methods between fast and instrumented forms.

    Called once per :func:`repro.sanitize.runtime.install`/``clear`` (not
    per event), so with sanitizers off the hot path carries no
    ``_san.RACE`` branches at all.  The instrumented forms also tolerate
    ``RACE is None``, so correctness never depends on the binding — only
    speed does.
    """
    if instrumented:
        Future.resolve = _future_resolve_san
        Future.fail = _future_fail_san
        Process._step = _process_step_san
        Process._resume_from = _process_resume_san
    else:
        Future.resolve = _future_resolve_fast
        Future.fail = _future_fail_fast
        Process._step = _process_step_fast
        Process._resume_from = _process_resume_fast


_san.subscribe(_bind_dispatch)
