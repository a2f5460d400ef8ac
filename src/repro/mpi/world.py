"""MPI world construction and the per-rank user API.

:class:`MpiWorld` places ranks on (node, gpu) slots of a simulated
cluster and runs rank *programs* — generator coroutines receiving a
:class:`RankContext` — to completion on the simulated clock:

>>> world = MpiWorld(cluster, placements=[(0, 0), (0, 1)])
>>> def rank0(mpi):
...     yield mpi.send(buf, dtype, 1, dest=1, tag=0)
>>> def rank1(mpi):
...     yield mpi.recv(buf, dtype, 1, source=0, tag=0)
>>> elapsed = world.run({0: rank0, 1: rank1})
"""

from __future__ import annotations

import gc
import time as _time
from typing import Callable, Optional, Sequence

from repro.datatype.ddt import Datatype, require_ints
from repro.faults.plan import FaultPlan
from repro.hw.memory import Buffer, require_buffers
from repro.hw.node import Cluster
from repro.mpi import pml
from repro.mpi.comm import Communicator
from repro.mpi.config import MpiConfig
from repro.mpi.message import ANY_SOURCE, ANY_TAG
from repro.mpi.proc import MpiProcess
from repro.mpi.requests import Request
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import WorldStats, classify_resource
from repro.sanitize import runtime as _san
from repro.sim.core import Future, Process, SimulationError, all_of, any_of

__all__ = ["MpiWorld", "RankContext"]


class _ProcTable:
    """Lazily-materialized rank -> :class:`MpiProcess` table.

    World construction at scale (4k+ ranks) should not pay for per-rank
    state the run never touches, so the world builds processes on first
    index.  The table looks like the eager ``list`` it replaces:
    ``world.procs[r]``, iteration, ``len`` and unpacking all work —
    iterating materializes every rank (tests do this on small worlds),
    while the observability paths use :meth:`materialized` to visit only
    ranks that actually exist.

    Construction must be side-effect free on the simulator (it is:
    ``MpiProcess.__init__`` is pure bookkeeping), so a rank materializing
    mid-run cannot perturb event ordering.
    """

    __slots__ = ("_world", "_slots")

    def __init__(self, world: "MpiWorld") -> None:
        self._world = world
        self._slots: list[Optional[MpiProcess]] = [None] * len(
            world.placements
        )

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, rank: int) -> MpiProcess:
        proc = self._slots[rank]
        if proc is None:
            if rank < 0:
                rank += len(self._slots)
            proc = self._slots[rank] = self._world._make_proc(rank)
        return proc

    def __iter__(self):
        for rank in range(len(self._slots)):
            yield self[rank]

    def materialized(self):
        """Only the ranks built so far (stats/reset visit just these)."""
        return (p for p in self._slots if p is not None)


class MpiWorld:
    """A set of ranks over a cluster, sharing one clock."""

    def __init__(
        self,
        cluster: Cluster,
        placements: Sequence[tuple[int, Optional[int]]],
        config: Optional[MpiConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or MpiConfig()
        #: rank -> (node index, gpu index or None); each process is
        #: built from its entry on first use
        self.placements: tuple[tuple[int, Optional[int]], ...] = tuple(
            (n, g) for n, g in placements
        )
        nodes = cluster.nodes
        for rank, (node_i, gpu_i) in enumerate(self.placements):
            if not 0 <= node_i < len(nodes):
                raise ValueError(
                    f"MpiWorld: placements[{rank}] node={node_i} is not a "
                    f"node of this {len(nodes)}-node cluster"
                )
            if gpu_i is not None and not 0 <= gpu_i < len(nodes[node_i].gpus):
                raise ValueError(
                    f"MpiWorld: placements[{rank}] gpu={gpu_i} is not a GPU "
                    f"of node {node_i}, which has {len(nodes[node_i].gpus)}"
                )
        #: world-wide metrics store; ranks get ``r<rank>.``-scoped views
        self.metrics = MetricsRegistry()
        if self.config.sanitize.any_enabled:
            from repro import sanitize

            # an install that is already live (a test's sanitize.enabled()
            # context, or the session-level env install) wins: re-enabling
            # here would override its raise/record mode and report
            if not sanitize.is_enabled():
                sanitize.enable(
                    self.config.sanitize,
                    metrics=self.metrics.scoped("sanitize."),
                )
        #: one shared fault injector (None without a configured plan):
        #: all ranks draw from the same seeded RNG in event order
        self.faults: Optional[FaultPlan] = None
        if self.config.faults is not None:
            self.faults = FaultPlan(
                self.config.faults, metrics=self.metrics.scoped("faults.")
            )
        #: lazily-built per-rank process table — shared immutable state
        #: (config, placements, fault plan, metrics root) lives on the
        #: world; each rank's mutable state materializes on first use
        self.procs = _ProcTable(self)
        self._barrier_waiters: list[Future] = []
        self._barrier_arrived = 0
        self._barrier_snap: Optional[dict] = None
        #: verifier bookkeeping (see repro.sanitize.verify): requests
        #: tracked for the finalize audit (populated only while the
        #: verifier is installed) and barrier wait tokens
        self._verify_requests: list[Request] = []
        self._barrier_toks: list[int] = []
        #: simulator-counter baselines for the current stats window — the
        #: shared clock may predate (or outlive) this world, so ``stats()``
        #: reports deltas from here rather than the simulator's lifetime
        #: totals
        self._events_base = self.sim.events_processed
        self._timers_cancelled_base = self.sim.timers_cancelled
        #: wall-clock and simulated seconds accumulated by ``run`` calls
        #: in the current stats window
        self._run_wall_s = 0.0
        self._sim_elapsed_s = 0.0
        #: garbage collections per generation during those ``run`` calls;
        #: automatic collection is paused there, so only the collections a
        #: program triggers itself count
        self._gc_collections = [0] * len(gc.get_stats())
        #: MPI_COMM_WORLD
        self.comm_world = Communicator(self, comm_id=0)

    def _make_proc(self, rank: int) -> MpiProcess:
        """Materialize one rank's process (called by :class:`_ProcTable`)."""
        node_i, gpu_i = self.placements[rank]
        node = self.cluster.nodes[node_i]
        gpu = node.gpus[gpu_i] if gpu_i is not None else None
        proc = MpiProcess(
            rank, node, gpu, self.config,
            metrics=self.metrics.scoped(f"r{rank}."),
            faults=self.faults,
        )
        proc.register_handler("pml.rts", pml.rts_handler(self, proc))
        return proc

    @property
    def size(self) -> int:
        return len(self.procs)

    def context(self, rank: int) -> "RankContext":
        """The :class:`RankContext` API handle for one rank."""
        return RankContext(self, self.procs[rank])

    # -- running programs ------------------------------------------------------
    def run(
        self,
        programs: "dict[int, Callable] | Sequence[Callable]",
        limit: float = 1e6,
    ) -> float:
        """Run one generator program per rank; returns elapsed sim time.

        ``programs`` maps rank -> program; a sequence assigns by index.
        Each program is called with its rank's :class:`RankContext`.
        A run that stops with a program unfinished raises
        :class:`SimulationError` naming what each built rank's matching
        engine holds (with the verifier, its wait-for diagnosis instead).

        Automatic garbage collection stays paused for the whole call, as
        in :meth:`Simulator.run`: a wide world's spawns alone would
        otherwise trigger young collections, and the allocations the
        paused loop counted would trigger one in the window's own
        bookkeeping.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            if not isinstance(programs, dict):
                programs = dict(enumerate(programs))
            t0 = self.sim.now
            gc0 = gc.get_stats()
            wall0 = _time.perf_counter()
            procs: list[Process] = []
            for rank, fn in programs.items():
                mpi = self.context(rank)
                procs.append(self.sim.spawn(fn(mpi), label=f"rank{rank}"))
            done = all_of(self.sim, procs, label="world.run")
            try:
                self.sim.run_until_complete(done, limit=limit)
            except SimulationError as exc:
                if done.done or _san.VERIFY is not None:
                    raise  # a failed rank, or the verifier's diagnosis
                from repro.sanitize.verify.audit import matching_residue

                state = "".join(
                    f"\n  rank {rank} {text}"
                    for _kind, rank, text in matching_residue(self)
                )
                raise SimulationError(
                    f"{exc}\nmatching state:{state or ' nothing posted'}"
                ) from None
            if _san.RACE is not None:
                # the caller resumes after every rank's program, so the
                # next run (spawned from the caller) happens after this one
                _san.RACE.join_actor(_san.RACE.current, done._san_snap)
            elapsed = self.sim.now - t0
            self._run_wall_s += _time.perf_counter() - wall0
            self._sim_elapsed_s += elapsed
            for g, (a, b) in enumerate(zip(gc0, gc.get_stats())):
                self._gc_collections[g] += b["collections"] - a["collections"]
            return elapsed
        finally:
            if paused:
                gc.enable()

    def finalize(self) -> list:
        """``MPI_Finalize``-style teardown audit (verifier-gated).

        With the verifier installed (``REPRO_SANITIZE=verify``/``all``),
        audits the world for leaked resources — never-completed requests,
        unmatched posted receives, undrained unexpected messages, open
        re-sequencer gaps, waiters left in a barrier — recording each
        finding as a ``verify.*`` violation (raising on the first one in
        raise mode) and bumping ``verify.audit.*`` world metrics.
        Returns the findings; a no-op returning ``[]`` when the verifier
        is off.
        """
        if _san.VERIFY is None:
            return []
        from repro.sanitize.verify.audit import audit_world

        return audit_world(self, _san.VERIFY)

    def close(self) -> None:
        """Close every built rank (:meth:`MpiProcess.close`) and drop them.

        A world and its processes reference each other, so a dropped
        world would otherwise keep its staging pools, DevCache memory
        and transfer logs until a full collection.  So would the world
        itself, and with it its cluster, through the process table's and
        ``COMM_WORLD``'s references back to it; both are cut.  A closed
        world has no ranks and cannot run; closing twice is harmless.
        """
        for proc in self.procs.materialized():
            proc.close()
        self.procs._slots.clear()
        self.procs._world = None
        self.comm_world.world = None

    # -- observability ---------------------------------------------------------
    def stats(self) -> WorldStats:
        """One uniform stats object for everything the world has done.

        Aggregates every rank's transfer log, the GPU datatype engines'
        counters (including the device caches), and — when the cluster
        was built with ``trace=True`` — per-resource busy times plus the
        pack/wire overlap the paper's pipelining argument rests on.
        """
        ws = WorldStats()
        for proc in self.procs.materialized():
            for t in proc.transfer_log:
                ws.transfers.append(t)
                key = t.protocol or "unknown"
                ws.by_protocol[key] = ws.by_protocol.get(key, 0) + 1
                if t.mode:
                    mkey = f"{key}.{t.mode}"
                    ws.by_mode[mkey] = ws.by_mode.get(mkey, 0) + 1
            if proc._engine is not None:
                ws.engine = ws.engine.merged(proc._engine.stats())
        tracer = self.cluster.tracer
        if tracer:
            groups: dict[str, list[str]] = {}
            for name in tracer.resources():
                ws.resource_busy_s[name] = tracer.busy_time(name)
                groups.setdefault(classify_resource(name), []).append(name)
            ws.pack_busy_s = tracer.busy_time_group(groups.get("pack", []))
            ws.wire_busy_s = tracer.busy_time_group(groups.get("wire", []))
            ws.pcie_busy_s = tracer.busy_time_group(groups.get("pcie", []))
            ws.pack_wire_overlap_s = tracer.overlap_time_group(
                groups.get("pack", []), groups.get("wire", [])
            )
        ws.metrics = self.metrics.snapshot()
        if not ws.transfers:
            # transfer_log off (scale runs): rebuild the protocol mix from
            # the per-rank ``r<k>.protocol.*`` counters so dashboards and
            # benchmark gates keep working without the per-transfer records
            for k, v in ws.metrics.items():
                if not v:  # reset leaves zeroed counters behind
                    continue
                rank, dot, rest = k.partition(".")
                if not (dot and rank.startswith("r")):
                    continue
                if not rest.startswith("protocol."):
                    continue
                name = rest[len("protocol."):]
                if "." in name:
                    ws.by_mode[name] = ws.by_mode.get(name, 0) + v
                else:
                    ws.by_protocol[name] = ws.by_protocol.get(name, 0) + v
        sim = self.sim
        ws.events_processed = sim.events_processed - self._events_base
        ws.timers_cancelled = (
            sim.timers_cancelled - self._timers_cancelled_base
        )
        ws.peak_queue_depth = sim.peak_queue_depth
        ws.run_wall_s = self._run_wall_s
        ws.sim_elapsed_s = self._sim_elapsed_s
        ws.gc_collections = tuple(self._gc_collections)
        return ws

    def reset_stats(self) -> None:
        """Forget everything observed so far (e.g. after warmup rounds)."""
        for proc in self.procs.materialized():
            proc.transfer_log.clear()
            if proc._engine is not None:
                proc._engine.reset_counters()
        self.metrics.reset()
        tracer = self.cluster.tracer
        if tracer:
            tracer.clear()
        self._events_base = self.sim.events_processed
        self._timers_cancelled_base = self.sim.timers_cancelled
        self.sim.reset_peak_depth()
        self._run_wall_s = 0.0
        self._sim_elapsed_s = 0.0
        self._gc_collections = [0] * len(self._gc_collections)

    # -- naive barrier (no wire cost; for test scaffolding) ----------------------
    def _barrier(self, _rank: int) -> Future:
        fut = Future(self.sim, label="barrier")
        self._barrier_waiters.append(fut)
        self._barrier_arrived += 1
        if _san.VERIFY is not None:
            # the waiter Future has __slots__, so tokens ride a parallel
            # list; the release below ends every registered wait at once
            self._barrier_toks.append(
                _san.VERIFY.wait_begin("barrier", _rank, self.sim, world=self)
            )
        if _san.RACE is not None:
            # a barrier is an all-to-all happens-before edge: every rank's
            # pre-barrier work precedes every rank's post-barrier work.
            # Accumulate the join of all arrivals' clocks and pre-stamp it
            # on every waiter, so the release below hands each resumed rank
            # the merged view rather than only the last arrival's clock.
            self._barrier_snap = _san.RACE.merge(
                self._barrier_snap, _san.RACE.snapshot()
            )
        if self._barrier_arrived == self.size:
            waiters, self._barrier_waiters = self._barrier_waiters, []
            self._barrier_arrived = 0
            if _san.VERIFY is not None:
                for tok in self._barrier_toks:
                    _san.VERIFY.wait_end(tok)
                self._barrier_toks.clear()
            if _san.RACE is not None:
                snap = self._barrier_snap
                self._barrier_snap = None
                for w in waiters:
                    w._san_snap = _san.RACE.merge(w._san_snap, snap)
            for w in waiters:
                w.resolve(None)
        return fut


class RankContext:
    """What a rank program sees: buffers, datatypes, send/recv."""

    def __init__(self, world: MpiWorld, proc: MpiProcess) -> None:
        self.world = world
        self.proc = proc
        self.rank = proc.rank
        self.size = world.size
        self.node = proc.node
        self.gpu = proc.gpu
        self.cuda = proc.ctx
        self.sim = proc.sim
        self.config = proc.config

    # -- memory helpers ------------------------------------------------------
    def device_alloc(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate device memory on this rank's GPU."""
        if self.cuda is None:
            raise RuntimeError(f"rank {self.rank} has no GPU")
        return self.cuda.malloc(nbytes, label=label)

    def host_alloc(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate host memory on this rank's node."""
        return self.node.host_memory.alloc(nbytes, label=label)

    # -- point-to-point --------------------------------------------------------
    def isend(
        self,
        buf: Buffer,
        datatype: Datatype,
        count: int,
        dest: int,
        tag: int = 0,
        comm: "Communicator | None" = None,
    ) -> Request:
        """Nonblocking send; returns a waitable :class:`Request`."""
        if not (type(dest) is type(count) is type(tag) is int):
            require_ints("isend", dest=dest, count=count, tag=tag)
        if not 0 <= dest < self.size:
            raise ValueError(
                f"isend: dest={dest} is not a rank of this "
                f"{self.size}-rank world"
            )
        if count < 0:
            raise ValueError(f"isend: count={count} is negative")
        if tag < 0:
            raise ValueError(f"isend: tag={tag} is negative")
        if type(buf) is not Buffer:
            require_buffers("isend", buf=buf)
        if comm is not None and type(comm) is not Communicator:
            raise TypeError(f"isend: comm={comm!r} is not a Communicator")
        comm_id = comm.comm_id if comm is not None else 0
        # pml.isend commits the datatype first: a non-Datatype fails there,
        # named, before its size is read
        fut = pml.isend(
            self.world, self.proc, buf, datatype, count, dest, tag, comm_id
        )
        nbytes = datatype.size * count
        req = Request(fut, "send", nbytes)
        if _san.VERIFY is not None:
            _san.VERIFY.track_request(
                self.world, req, self.rank, "send", dest, tag, comm_id, nbytes
            )
        return req

    def irecv(
        self,
        buf: Buffer,
        datatype: Datatype,
        count: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: "Communicator | None" = None,
    ) -> Request:
        """Nonblocking receive; resolves with a :class:`Status`."""
        if not (type(source) is type(count) is type(tag) is int):
            require_ints("irecv", source=source, count=count, tag=tag)
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(
                f"irecv: source={source} is neither ANY_SOURCE nor a rank "
                f"of this {self.size}-rank world"
            )
        if count < 0:
            raise ValueError(f"irecv: count={count} is negative")
        if tag < 0 and tag != ANY_TAG:
            raise ValueError(f"irecv: tag={tag} is neither ANY_TAG nor >= 0")
        if type(buf) is not Buffer:
            require_buffers("irecv", buf=buf)
        if comm is not None and type(comm) is not Communicator:
            raise TypeError(f"irecv: comm={comm!r} is not a Communicator")
        comm_id = comm.comm_id if comm is not None else 0
        fut = pml.irecv(
            self.world, self.proc, buf, datatype, count, source, tag, comm_id
        )
        nbytes = datatype.size * count
        req = Request(fut, "recv", nbytes)
        if _san.VERIFY is not None:
            _san.VERIFY.track_request(
                self.world, req, self.rank, "recv", source, tag, comm_id,
                nbytes,
            )
        return req

    # blocking forms are pure aliases (``yield mpi.send(...)`` waits via the
    # returned Request) — class-level bindings skip a delegation frame on
    # the hottest user-facing calls
    send = isend

    recv = irecv

    @property
    def comm_world(self) -> Communicator:
        return self.world.comm_world

    def sendrecv(
        self,
        sendbuf: Buffer,
        send_dt: Datatype,
        send_count: int,
        dest: int,
        recvbuf: Buffer,
        recv_dt: Datatype,
        recv_count: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Future:
        """MPI_Sendrecv: both directions in flight, deadlock-free.

        Resolves with ``[send_result, recv_status]``.
        """
        sreq = self.isend(sendbuf, send_dt, send_count, dest, sendtag)
        rreq = self.irecv(recvbuf, recv_dt, recv_count, source, recvtag)
        return all_of(self.sim, [sreq.future, rreq.future])

    def barrier(self) -> Future:
        """Synchronize all ranks (cost-free scaffolding barrier)."""
        return self.world._barrier(self.rank)

    def wait_all(self, *requests: Request) -> Future:
        """Future resolving when every given request completes."""
        return all_of(self.sim, [r.future for r in requests])

    def wait_any(self, *requests: Request) -> Future:
        """Resolves with ``(index, value)`` of the first completed request."""
        return any_of(self.sim, [r.future for r in requests])

    @property
    def now(self) -> float:
        return self.sim.now
