"""Schedule-perturbation explorer tests (``repro.sanitize.verify.explore``).

The acceptance bar: >= 50 perturbed schedules of the eager and
rendezvous scenarios complete bit-identically to the unperturbed
baseline.  Plus harness self-tests — the perturbed simulator really
does reorder same-timestamp events (deterministically per seed), and
the explorer really does flag divergence when a scenario's result
depends on the schedule.
"""

from __future__ import annotations

import json

import pytest

from repro.sanitize.verify import explore as ex
from repro.sim.core import Simulator


class TestPerturbedSimulator:
    @staticmethod
    def _order(sim, n: int = 12) -> list:
        fired: list = []
        for i in range(n):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run(until=2.0)
        return fired

    def test_reorders_same_timestamp_events(self):
        baseline = self._order(Simulator())
        assert baseline == list(range(12))  # FIFO by construction
        orders = {tuple(self._order(ex.PerturbedSimulator(s))) for s in range(8)}
        assert len(orders) > 1
        assert any(o != tuple(baseline) for o in orders)

    def test_deterministic_per_seed(self):
        a = self._order(ex.PerturbedSimulator(42))
        b = self._order(ex.PerturbedSimulator(42))
        assert a == b

    def test_distinct_timestamps_keep_time_order(self):
        sim = ex.PerturbedSimulator(7)
        fired: list = []
        for i, t in enumerate((3.0, 1.0, 2.0)):
            sim.schedule_at(t, lambda i=i: fired.append(i))
        sim.run(until=4.0)
        assert fired == [1, 2, 0]

    def test_timer_cancel_works_with_tuple_seqs(self):
        sim = ex.PerturbedSimulator(5)
        fired: list = []
        keep = sim.call_at(1.0, lambda: fired.append("keep"))
        kill = sim.call_at(1.0, lambda: fired.append("kill"))
        kill.cancel()
        sim.run(until=2.0)
        assert fired == ["keep"]
        assert not keep.cancelled and kill.cancelled


class TestScenarios:
    @pytest.mark.parametrize("name", ["eager", "rendezvous"])
    def test_fifty_schedules_bit_identical(self, name):
        """The ISSUE acceptance criterion, verbatim."""
        res = ex.explore(name, schedules=50, seed=0)
        assert res.ok, (res.divergent, res.errors)
        assert res.identical == 50

    @pytest.mark.parametrize(
        "name",
        ["smoke-sm-2gpu", "smoke-ib", "smoke-cpu", "coll_crossover", "coll_ladder"],
    )
    def test_remaining_scenarios_quick(self, name):
        res = ex.explore(name, schedules=3, seed=1)
        assert res.ok, (res.divergent, res.errors)

    def test_coll_ladder_runs_every_executor(self, monkeypatch):
        """``coll_ladder`` covers all 12 (op, rung) pairs; dropping one
        would leave an executor path unexplored."""
        import repro.mpi.world as world_mod
        from repro.mpi.collectives import CollAlgorithm

        worlds = []

        class RecordingWorld(world_mod.MpiWorld):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

        monkeypatch.setattr(world_mod, "MpiWorld", RecordingWorld)
        ex.SCENARIOS["coll_ladder"](Simulator())
        (world,) = worlds
        ran = {k for k in world.stats().coll_ops if not k.endswith(".bytes")}
        want = {
            f"{op}.{rung.value}"
            for op in ("bcast", "gather", "allgather", "alltoallv")
            for rung in CollAlgorithm
        }
        assert len(want) == 12
        assert ran == want

    def test_traffic_replay_stays_off_default_paths(self, monkeypatch):
        """The ``traffic`` scenario covers copy-in/out and the gather
        plan; drifting back onto ipc_rdma or the cost-model plans would
        re-check what the other scenarios already cover."""
        import repro.workloads.traffic as traffic

        worlds = []

        class RecordingWorld(traffic.MpiWorld):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

        monkeypatch.setattr(traffic, "MpiWorld", RecordingWorld)
        ex.SCENARIOS["traffic"](Simulator())
        (world,) = worlds
        ws = world.stats()
        assert "ipc_rdma" not in ws.by_protocol
        assert ws.by_protocol.get("copyinout", 0) > 0
        assert {p for p, n in ws.engine.plans.items() if n} == {"gather"}

    def test_divergence_is_caught(self, monkeypatch):
        """A schedule-dependent 'scenario' must produce divergent digests
        — proof the harness can fail, not just pass."""

        def leaky(sim):
            # leaks the schedule into the "result": perturbed sims
            # consume rng draws, the baseline Simulator has no rng
            if isinstance(sim, ex.PerturbedSimulator):
                return f"{sim._rng.random():.6f}"
            return "baseline"

        monkeypatch.setitem(ex.SCENARIOS, "leaky", leaky)
        res = ex.explore("leaky", schedules=4, seed=0)
        assert not res.ok
        assert len(res.divergent) == 4


class TestCli:
    def test_list(self, capsys):
        assert ex.main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "eager" in out and "coll_crossover" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert ex.main(["no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "explore.json"
        rc = ex.main(["eager", "--schedules", "2", "--json", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        (r,) = doc["results"]
        assert r["scenario"] == "eager" and r["identical"] == 2

    def test_divergence_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(
            ex.SCENARIOS,
            "leaky",
            lambda sim: "x" if isinstance(sim, ex.PerturbedSimulator) else "y",
        )
        assert ex.main(["leaky", "--schedules", "2"]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.explore", "--list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "rendezvous" in proc.stdout
