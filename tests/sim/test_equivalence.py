"""Fast loop vs frozen reference: bit-for-bit event-sequence equivalence.

The optimized ``Simulator`` (array-backed heap, slot recycling, lazy
compaction, fast-dispatch binding, eager process start) is only allowed
to be *faster* than the pre-rewrite loop — never *different*.  These
tests drive identical workloads through the current loop and through
:class:`tests.sim.reference_core.ReferenceSimulator` (a verbatim copy of
the old one) and require the ``(time, label)`` traces to match exactly,
including tie-breaking order and float timestamps.

A sanitized leg re-runs a workload under ``repro.sanitize`` and asserts
that (a) the dispatch binding actually swapped to the instrumented
forms, (b) the event sequence is unchanged, and (c) no violations are
reported — i.e. the fast-dispatch machinery still emits every
happens-before edge the race checker needs.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.sanitize import runtime
from repro.sanitize.options import SanitizeOptions
from repro.sim import core
from repro.sim.core import Future, Simulator, all_of, any_of
from repro.sim.resources import FifoLink

from .reference_core import ReferenceSimulator

Trace = list[tuple[float, str]]


# ---------------------------------------------------------------------------
# workloads (written against the surface both loops share)
# ---------------------------------------------------------------------------


def _timer_storm(sim, trace: Trace, seed: int, n: int = 200) -> None:
    """Seeded mix of plain, nested, tied and cancelled timers."""
    rng = random.Random(seed)
    handles = []

    def fire(i: int):
        def cb() -> None:
            trace.append((sim.now, f"t{i}"))
            # every third event schedules a nested follow-up
            if i % 3 == 0:
                sim.schedule_after(
                    rng.choice([0.0, 0.5, 1.0]),
                    lambda: trace.append((sim.now, f"n{i}")),
                )

        return cb

    for i in range(n):
        when = rng.randrange(20)  # integral: plenty of exact ties
        if i % 5 == 0:
            handles.append((i, sim.call_at(float(when), fire(i))))
        else:
            sim.schedule_at(float(when), fire(i))
    # cancel a deterministic subset of the cancellable ones
    for j, (i, h) in enumerate(handles):
        if j % 2 == 0:
            h.cancel()
            trace.append((sim.now, f"c{i}"))
    sim.run()


def _process_mesh(sim, trace: Trace) -> None:
    """Producer/consumer processes wired through futures and all_of/any_of."""
    box = Future(sim, label="box")

    def producer():
        trace.append((sim.now, "p.start"))
        yield sim.timeout(1.5)
        trace.append((sim.now, "p.mid"))
        box.resolve("payload")
        yield sim.timeout(0.5)
        trace.append((sim.now, "p.end"))
        return "prod"

    def consumer(k: int):
        trace.append((sim.now, f"c{k}.start"))
        v = yield box
        trace.append((sim.now, f"c{k}.got.{v}"))
        yield sim.timeout(0.25 * k)
        trace.append((sim.now, f"c{k}.end"))
        return k

    procs = [sim.spawn(producer(), label="prod")] + [
        sim.spawn(consumer(k), label=f"cons{k}") for k in range(3)
    ]
    done = all_of(sim, procs, label="mesh")
    race = any_of(sim, procs[1:], label="first-consumer")
    race.add_callback(
        lambda f: trace.append((sim.now, f"any.{f.value[0]}"))
    )
    sim.run_until_complete(done)
    trace.append((sim.now, f"done.{done.value}"))


def _link_traffic(sim, trace: Trace) -> None:
    """FifoLink serialization, payload delivery, and a zero-byte transfer."""
    link = FifoLink(sim, "wire", bandwidth=1e9, latency=1e-6, overhead=1e-7)

    def chatter():
        for i, nbytes in enumerate([4096, 0, 65536, 1, 12345]):
            fut = link.transfer(nbytes, payload=i, label=f"x{i}")
            got = yield fut
            trace.append((sim.now, f"x{got}"))
        return link.bytes_transferred

    p = sim.spawn(chatter(), label="chatter")
    # competing transfers issued outside the process serialize behind it
    link.transfer(1000, label="bg").add_callback(
        lambda f: trace.append((sim.now, "bg"))
    )
    sim.run_until_complete(p)
    trace.append((sim.now, f"total.{p.value}"))


def _run_both(workload, *args) -> tuple[Trace, Trace]:
    fast_trace: Trace = []
    workload(Simulator(), fast_trace, *args)
    ref_trace: Trace = []
    workload(ReferenceSimulator(), ref_trace, *args)
    return fast_trace, ref_trace


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_timer_storm_matches_reference(self):
        fast, ref = _run_both(_timer_storm, 7)
        assert fast == ref

    def test_process_mesh_matches_reference(self):
        fast, ref = _run_both(_process_mesh)
        assert fast == ref

    def test_link_traffic_matches_reference(self):
        fast, ref = _run_both(_link_traffic)
        assert fast == ref

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300))
    def test_random_storms_match_reference(self, seed: int, n: int):
        fast, ref = _run_both(_timer_storm, seed, n)
        assert fast == ref

    def test_reference_and_fast_count_same_events(self):
        """Same workload -> same number of *fired* events on both loops."""
        fast_trace: Trace = []
        fast = Simulator()
        _process_mesh(fast, fast_trace)
        ref_trace: Trace = []
        ref = ReferenceSimulator()
        _process_mesh(ref, ref_trace)
        assert fast.events_processed == ref.events_processed


class TestEagerStart:
    def test_eager_start_runs_first_step_inline(self, sim):
        order: list[str] = []

        def prog():
            order.append("step0")
            yield sim.timeout(1.0)
            order.append("step1")

        sim.spawn(prog(), label="eager", eager_start=True)
        assert order == ["step0"], "first step must run before any event"
        sim.run()
        assert order == ["step0", "step1"]

    def test_plain_spawn_keeps_deferred_start(self, sim):
        order: list[str] = []

        def prog():
            order.append("step0")
            yield sim.timeout(1.0)

        sim.spawn(prog(), label="deferred")
        assert order == [], "documented contract: plain spawn defers"
        sim.run()
        assert order == ["step0"]

    def test_eager_start_preserves_result_and_failure(self, sim):
        def ok():
            yield sim.timeout(0.5)
            return 42

        def boom():
            yield sim.timeout(0.5)
            raise RuntimeError("boom")

        p = sim.spawn(ok(), eager_start=True)
        q = sim.spawn(boom(), eager_start=True)
        sim.run()
        assert p.value == 42
        assert q.failed and isinstance(q.exception, RuntimeError)


class TestSanitizedDispatch:
    def test_binding_swaps_and_trace_is_unchanged(self):
        # the plain leg needs the fast forms bound, also in a session that
        # installed checkers (REPRO_SANITIZE); theirs come back afterwards
        saved = runtime.snapshot()
        runtime.clear()
        try:
            plain: Trace = []
            _process_mesh(Simulator(), plain)
            assert Future.resolve is core._future_resolve_fast

            with sanitize.enabled(SanitizeOptions.all(mode="raise")) as rep:
                # the one-time binding swapped every hot dispatch method
                assert Future.resolve is core._future_resolve_san
                assert Future.fail is core._future_fail_san
                assert core.Process._step is core._process_step_san
                assert core.Process._resume_from is core._process_resume_san
                instrumented: Trace = []
                _process_mesh(Simulator(), instrumented)
            # mode="raise" would have thrown on any violation; the report
            # must also be clean — every cross-process wake carried its edge
            assert not rep.violations
            assert instrumented == plain
            # and the binding restored the fast forms on exit
            assert Future.resolve is core._future_resolve_fast
            assert core.Process._step is core._process_step_fast
        finally:
            runtime.restore(saved)

    def test_sanitized_link_traffic_clean_and_identical(self):
        plain: Trace = []
        _link_traffic(Simulator(), plain)
        with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
            instrumented: Trace = []
            _link_traffic(Simulator(), instrumented)
        assert not rep.violations
        assert instrumented == plain
