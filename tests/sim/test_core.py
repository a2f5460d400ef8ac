"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import gc

import pytest

from repro.sim.core import (
    Future,
    ProcessKilled,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_queue_keeps_time(self, sim):
        assert sim.run() == 0.0

    def test_call_after_advances_clock(self, sim):
        seen = []
        sim.call_after(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.call_after(2.0, lambda: order.append("b"))
        sim.call_after(1.0, lambda: order.append("a"))
        sim.call_after(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        for name in "abc":
            sim.call_after(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self, sim):
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.call_after(5.0, lambda: fired.append(1))
        t = sim.run(until=2.0)
        assert t == 2.0 and not fired
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestFuture:
    def test_resolve_delivers_value(self, sim):
        fut = sim.future()
        fut.resolve(42)
        assert fut.done and fut.value == 42

    def test_unresolved_value_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.future().value

    def test_double_resolve_rejected(self, sim):
        fut = sim.future()
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_fail_propagates_exception(self, sim):
        fut = sim.future()
        fut.fail(ValueError("boom"))
        assert fut.done and fut.failed
        with pytest.raises(ValueError, match="boom"):
            _ = fut.value

    def test_callback_after_resolution_runs_immediately(self, sim):
        fut = sim.future()
        fut.resolve("x")
        seen = []
        fut.add_callback(lambda f: seen.append(f.value))
        assert seen == ["x"]

    def test_timeout_resolves_at_deadline(self, sim):
        fut = sim.timeout(3.0, value="done")
        sim.run()
        assert fut.value == "done" and sim.now == 3.0


class TestProcess:
    def test_return_value_resolves_process(self, sim):
        def prog():
            yield sim.timeout(1.0)
            return "finished"

        proc = sim.spawn(prog())
        assert sim.run_until_complete(proc) == "finished"

    def test_yield_none_reschedules_same_time(self, sim):
        steps = []

        def prog():
            steps.append(sim.now)
            yield
            steps.append(sim.now)

        sim.run_until_complete(sim.spawn(prog()))
        assert steps == [0.0, 0.0]

    def test_sequential_timeouts_accumulate(self, sim):
        def prog():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        assert sim.run_until_complete(sim.spawn(prog())) == 3.0

    def test_exception_fails_process(self, sim):
        def prog():
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        proc = sim.spawn(prog())
        sim.run()
        assert proc.failed
        with pytest.raises(RuntimeError, match="inner"):
            _ = proc.value

    def test_exception_propagates_through_yield(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError:
                return "caught"
            return "missed"

        assert sim.run_until_complete(sim.spawn(parent())) == "caught"

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_yielding_garbage_fails_process(self, sim):
        def prog():
            yield 42  # not a Future

        proc = sim.spawn(prog())
        sim.run()
        assert proc.failed and isinstance(proc.exception, TypeError)

    def test_kill_injects_process_killed(self, sim):
        def prog():
            yield sim.timeout(100.0)

        proc = sim.spawn(prog())
        sim.run(until=1.0)
        proc.kill()
        sim.run()
        assert proc.failed and isinstance(proc.exception, ProcessKilled)

    def test_deadlock_detection(self, sim):
        def prog():
            yield sim.future()  # never resolved

        proc = sim.spawn(prog())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc)

    def test_waiting_on_another_process_gets_its_value(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 99

        def parent():
            v = yield sim.spawn(child())
            return v + 1

        assert sim.run_until_complete(sim.spawn(parent())) == 100


class TestCombinators:
    def test_all_of_collects_values_in_order(self, sim):
        futs = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        combined = all_of(sim, futs)
        sim.run()
        assert combined.value == ["c", "a", "b"]
        assert sim.now == 3.0

    def test_all_of_empty_resolves_immediately(self, sim):
        assert all_of(sim, []).value == []

    def test_all_of_fails_fast(self, sim):
        good = sim.timeout(5.0)
        bad = sim.future()
        combined = all_of(sim, [good, bad])
        bad.fail(RuntimeError("x"))
        assert combined.failed

    def test_any_of_returns_first(self, sim):
        futs = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
        first = any_of(sim, futs)
        sim.run()
        assert first.value == (1, "fast")

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            any_of(sim, [])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            log = []

            def prog(name, delay):
                for i in range(3):
                    yield sim.timeout(delay)
                    log.append((sim.now, name, i))

            sim.spawn(prog("a", 0.3))
            sim.spawn(prog("b", 0.2))
            sim.run()
            return log

        assert run_once() == run_once()


class TestCollectorPause:
    """``Simulator.run`` pauses automatic garbage collection and leaves
    the collector as it found it."""

    def test_paused_inside_the_loop_and_enabled_after(self, sim):
        seen = []
        sim.call_soon(lambda: seen.append(gc.isenabled()))
        assert gc.isenabled()
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_left_disabled_when_found_disabled(self, sim):
        sim.call_soon(lambda: None)
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_enabled_after_a_run_that_raises(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.call_soon(boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()

    def test_nested_run_keeps_the_outer_pause(self, sim):
        inner = Simulator()
        seen = []
        inner.call_soon(lambda: None)
        sim.call_soon(lambda: (inner.run(), seen.append(gc.isenabled())))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_explicit_collection_still_runs(self, sim):
        before = gc.get_stats()[2]["collections"]
        sim.call_soon(gc.collect)
        sim.run()
        assert gc.get_stats()[2]["collections"] == before + 1

