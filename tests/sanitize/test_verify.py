"""MPI-semantics verifier tests (``repro.sanitize.verify``).

Layer 1 (deadlock detection): blocked operations must surface as a
structured wait-for-graph diagnosis — rank, call site, peer, tag,
communicator, and the cycle — instead of a bare "never completed".

Layer 2 (finalize audit): ``MpiWorld.finalize`` must flag leaked
requests, unmatched receives, unfreed RMA windows and DevCache pins
that outlive their communicator, and stay silent on clean worlds.

Invariants: pair_seq non-overtaking at the matching engine, lazy
``_ProcTable`` materialization untouched by the instrumentation.
"""

from __future__ import annotations

import pytest

from repro import sanitize
from repro.bench.harness import make_env
from repro.datatype.ddt import contiguous
from repro.datatype.primitives import DOUBLE
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import Envelope
from repro.sanitize import SanitizeOptions, SanitizerError
from repro.sim.core import SimulationError


def _verify(mode: str = "record"):
    return sanitize.enabled(SanitizeOptions(verify=True, mode=mode))


def _host_bufs(env, nbytes: int):
    bufs = []
    for rank in (0, 1):
        b = env.world.procs[rank].node.host_memory.alloc(nbytes)
        b.fill(0)
        bufs.append(b)
    return bufs


# ---------------------------------------------------------------------------
# layer 1: deadlock detection
# ---------------------------------------------------------------------------


class TestDeadlockDetection:
    def test_recv_cycle_diagnosed(self):
        """Both ranks blocking-recv from each other: a certain deadlock
        (queue drained) with a two-rank wait cycle."""
        dt = contiguous(64, DOUBLE).commit()
        with _verify() as rep:
            env = make_env("cpu")
            b0, b1 = _host_bufs(env, dt.size)

            def rank0(mpi):
                yield mpi.recv(b0, dt, 1, source=1, tag=5)

            def rank1(mpi):
                yield mpi.recv(b1, dt, 1, source=0, tag=6)

            with pytest.raises(SimulationError, match="deadlock") as exc:
                env.world.run([rank0, rank1])
        msg = str(exc.value)
        assert "wait cycle" in msg and "r0 -> r1 -> r0" in msg
        viols = rep.by_code("verify.deadlock")
        assert len(viols) == 2
        assert any(
            "source=1" in v.message and "tag=5" in v.message for v in viols
        )
        assert all("comm=0" in v.message for v in viols)

    def test_rendezvous_head_to_head_diagnosed(self):
        """Both ranks blocking-send over the eager limit: each is parked
        in the CTS wait, neither can post the matching receive."""
        dt = contiguous(4096, DOUBLE).commit()  # 32 KB: rendezvous
        with _verify() as rep:
            env = make_env("cpu")
            b0, b1 = _host_bufs(env, dt.size)

            def rank0(mpi):
                yield mpi.send(b0, dt, 1, dest=1, tag=3)
                yield mpi.recv(b0, dt, 1, source=1, tag=4)

            def rank1(mpi):
                yield mpi.send(b1, dt, 1, dest=0, tag=4)
                yield mpi.recv(b1, dt, 1, source=0, tag=3)

            with pytest.raises(SimulationError, match="deadlock") as exc:
                env.world.run([rank0, rank1])
        msg = str(exc.value)
        assert "cts" in msg and "rendezvous send" in msg
        viols = rep.by_code("verify.deadlock")
        assert len(viols) == 2
        assert all("cts" in v.message for v in viols)

    def test_barrier_straggler_diagnosed(self):
        """One rank in the barrier, the other returned without entering."""
        with _verify() as rep:
            env = make_env("cpu")

            def rank0(mpi):
                yield mpi.barrier()

            def rank1(mpi):
                return
                yield  # pragma: no cover

            with pytest.raises(SimulationError, match="deadlock"):
                env.world.run([rank0, rank1])
            findings = env.world.finalize()
        assert any("barrier" in v.message for v in rep.by_code("verify.deadlock"))
        assert any(v.code == "verify.barrier_incomplete" for v in findings)

    def test_pure_sim_deadlock_records_nothing(self):
        """A non-MPI stuck process must not fabricate verify violations."""
        from repro.sim.core import Future, Simulator

        with _verify() as rep:
            sim = Simulator()

            def stuck():
                yield Future(sim, label="never")

            with pytest.raises(SimulationError, match="deadlock"):
                sim.run_until_complete(sim.spawn(stuck()))
        assert not rep.violations


# ---------------------------------------------------------------------------
# layer 2: finalize-time audit
# ---------------------------------------------------------------------------


class TestFinalizeAudit:
    def test_clean_world_audits_clean(self):
        dt = contiguous(512, DOUBLE).commit()
        with _verify() as rep:
            env = make_env("cpu")
            b0, b1 = _host_bufs(env, dt.size)

            def rank0(mpi):
                yield mpi.send(b0, dt, 1, dest=1, tag=1)

            def rank1(mpi):
                yield mpi.recv(b1, dt, 1, source=0, tag=1)

            env.world.run([rank0, rank1])
            assert env.world.finalize() == []
        assert not rep.violations

    def test_request_leak_flagged(self):
        """A rendezvous isend whose receive never comes parks forever;
        the world still 'succeeds' — finalize must name the zombie."""
        dt = contiguous(4096, DOUBLE).commit()
        with _verify():
            env = make_env("cpu")
            b0, _b1 = _host_bufs(env, dt.size)

            def rank0(mpi):
                mpi.isend(b0, dt, 1, dest=1, tag=9)
                return
                yield  # pragma: no cover

            def rank1(mpi):
                return
                yield  # pragma: no cover

            env.world.run([rank0, rank1])
            findings = env.world.finalize()
        leaks = [v for v in findings if v.code == "verify.request_leak"]
        assert len(leaks) == 1
        assert "rank 0 send to r1" in leaks[0].message
        assert "tag=9" in leaks[0].message and "comm=0" in leaks[0].message
        # the RTS reached rank 1 and nobody consumed it
        assert any(v.code == "verify.unexpected_message" for v in findings)

    def test_unmatched_posted_recv_flagged(self):
        dt = contiguous(64, DOUBLE).commit()
        with _verify():
            env = make_env("cpu")
            _b0, b1 = _host_bufs(env, dt.size)

            def rank1(mpi):
                mpi.irecv(b1, dt, 1, source=0, tag=7)
                return
                yield  # pragma: no cover

            env.world.run({1: rank1})
            findings = env.world.finalize()
        codes = {v.code for v in findings}
        assert "verify.recv_unmatched" in codes
        assert "verify.request_leak" in codes
        un = [v for v in findings if v.code == "verify.recv_unmatched"]
        assert "source=0" in un[0].message and "tag=7" in un[0].message

    def test_raise_mode_raises_at_finalize(self):
        dt = contiguous(64, DOUBLE).commit()
        with _verify(mode="raise"):
            env = make_env("cpu")
            _b0, b1 = _host_bufs(env, dt.size)

            def rank1(mpi):
                mpi.irecv(b1, dt, 1, source=0, tag=7)
                return
                yield  # pragma: no cover

            env.world.run({1: rank1})
            with pytest.raises(SanitizerError):
                env.world.finalize()

    def test_audit_metrics_bumped(self):
        dt = contiguous(64, DOUBLE).commit()
        with _verify():
            env = make_env("cpu")
            _b0, b1 = _host_bufs(env, dt.size)

            def rank1(mpi):
                mpi.irecv(b1, dt, 1, source=0, tag=7)
                return
                yield  # pragma: no cover

            env.world.run({1: rank1})
            env.world.finalize()
            snap = env.world.metrics.snapshot()
        assert snap.get("verify.audit.findings", 0) >= 2
        assert snap.get("verify.audit.recv_unmatched", 0) == 1


# ---------------------------------------------------------------------------
# matching invariants + instrumentation transparency
# ---------------------------------------------------------------------------


class TestMatchingInvariants:
    def test_overtaking_detected(self):
        """Feeding _deliver out of send order must record a violation."""
        with _verify() as rep:
            eng = MatchingEngine()
            eng._deliver(Envelope(0, 1, tag=1, comm_id=0, pair_seq=0), "a")
            eng._deliver(Envelope(0, 1, tag=1, comm_id=0, pair_seq=2), "c")
        (v,) = rep.by_code("verify.overtaking")
        assert "pair_seq=2" in v.message and "expects 1" in v.message

    def test_resequenced_arrivals_are_clean(self):
        """The engine's own re-sequencer (arrive) never trips the check."""
        with _verify() as rep:
            eng = MatchingEngine()
            eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=1), "b")
            eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=0), "a")
            eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=2), "c")
        assert not rep.violations
        assert eng.unexpected_count == 3

    def test_mid_run_enable_starts_from_engine_state(self):
        """Enabling the verifier mid-run must not flag old traffic."""
        eng = MatchingEngine()
        eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=0), "a")
        eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=1), "b")
        with _verify() as rep:
            eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=2), "c")
        assert not rep.violations


class TestLazyMaterialization:
    def test_verify_keeps_proctable_lazy(self, monkeypatch):
        """With every checker on (the REPRO_SANITIZE=all CI leg), a run
        touching ranks 0 and 2 — rank 2 only mid-run, after a timeout —
        must materialize exactly those ranks, and the finalize audit must
        not force the others into existence."""
        from repro.hw.node import Cluster
        from repro.mpi.config import MpiConfig
        from repro.mpi.world import MpiWorld

        monkeypatch.setenv("REPRO_SANITIZE", "all")
        monkeypatch.setenv("REPRO_SANITIZE_MODE", "record")
        with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
            cluster = Cluster(2, 2)
            # MpiConfig picks REPRO_SANITIZE=all from the env; the world
            # must defer to the already-live install instead of re-enabling
            world = MpiWorld(
                cluster, [(0, 0), (0, 1), (1, 0), (1, 1)], config=MpiConfig()
            )

            def rank0(mpi):
                assert mpi.world.procs._slots[2] is None
                yield mpi.sim.timeout(1e-6)
                peer = mpi.world.procs[2]  # materializes rank 2 mid-run
                assert peer.gpu is cluster.gpu(1, 0)

            world.run({0: rank0})
            built = [p is not None for p in world.procs._slots]
            assert built == [True, False, True, False]
            assert world.finalize() == []
            # the audit walked only materialized ranks
            assert [p is not None for p in world.procs._slots] == built
        assert not rep.violations
