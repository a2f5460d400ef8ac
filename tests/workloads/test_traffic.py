"""Tests for the multi-tenant traffic generator (repro.workloads.traffic)."""

from __future__ import annotations

import hashlib

import pytest

from repro.mpi.config import MpiConfig
from repro.workloads.traffic import (
    TrafficDraws,
    TrafficSpec,
    replay_digest,
    run_traffic,
)

SMALL = TrafficSpec(rounds=2, tenants=2)


class TestSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(tenants=0),
            dict(rounds=0),
            dict(n_nodes=1, gpus_per_node=1),
            dict(size_mix=()),
            dict(size_mix=((0, 1.0),)),
            dict(size_mix=((1024, 0.0),)),
            dict(vector_frac=1.5),
            dict(vector_frac=-0.1),
            dict(host_tenants=5),
        ],
        ids=lambda kw: next(iter(kw.items()))[0],
    )
    def test_bad_spec_rejected(self, kw):
        with pytest.raises(ValueError):
            TrafficSpec(**kw)

    def test_world_size(self):
        assert TrafficSpec(n_nodes=2, gpus_per_node=2).world_size == 4


class TestDraws:
    def test_same_seed_same_draws(self):
        a = TrafficDraws.generate(SMALL)
        b = TrafficDraws.generate(SMALL)
        assert (a.shifts, a.kinds, a.sizes, a.vcounts, a.gaps) == (
            b.shifts, b.kinds, b.sizes, b.vcounts, b.gaps
        )

    def test_different_seed_different_draws(self):
        a = TrafficDraws.generate(SMALL)
        b = TrafficDraws.generate(TrafficSpec(rounds=2, tenants=2, seed=8))
        assert (a.shifts, a.sizes, a.gaps) != (b.shifts, b.sizes, b.gaps)

    @pytest.mark.parametrize(
        "spec, want",
        [
            (TrafficSpec(), "4c10f274d392fe085c2ed628eabbb581"),
            # the benchmark's tenant_mix table
            (TrafficSpec(tenants=4, rounds=300),
             "5f9faf75d3af731fa69347afc43082c8"),
        ],
        ids=["default", "tenants4_rounds300"],
    )
    def test_table_is_pinned(self, spec, want):
        """Any change to the generator's RNG stream changes every
        workload and explorer digest built on it: it must fail here."""
        d = TrafficDraws.generate(spec)
        table = (d.shifts, d.kinds, d.sizes, d.vcounts, d.gaps)
        got = hashlib.blake2b(repr(table).encode(), digest_size=16).hexdigest()
        assert got == want

    def test_shapes(self):
        d = TrafficDraws.generate(SMALL)
        assert len(d.shifts) == SMALL.rounds
        assert all(len(row) == SMALL.tenants for row in d.kinds)
        assert all(1 <= s < SMALL.world_size for row in d.shifts for s in row)
        assert all(k in ("contig", "vector") for row in d.kinds for k in row)


class TestReplay:
    def test_run_is_deterministic(self):
        a = run_traffic(SMALL)
        b = run_traffic(SMALL)
        assert a == b
        assert a["elapsed_s"] > 0
        assert a["messages"] == SMALL.rounds * SMALL.tenants * SMALL.world_size

    def test_digest_is_deterministic(self):
        assert replay_digest(SMALL) == replay_digest(SMALL)

    def test_cross_tenant_cache_reuse(self):
        # structurally identical per-tenant datatypes must hit the
        # canonical-key DevCache across tenants — the generator's point
        metrics = run_traffic(TrafficSpec())
        assert metrics["cache_hits"] > 0
        assert metrics["cross_tenant_hit_rate"] > 0

    def test_config_is_honoured(self):
        # the tiny SMALL spec draws only eager-sized traffic; the default
        # spec includes 1 MB rendezvous sends the IPC knob actually steers
        spec = TrafficSpec()
        base = run_traffic(spec)["elapsed_s"]
        no_ipc = run_traffic(
            spec, config=MpiConfig(use_cuda_ipc=False)
        )["elapsed_s"]
        assert no_ipc != base  # forcing copy-in/out must change the timeline

