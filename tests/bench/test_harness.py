"""Tests for the benchmark harness drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import (
    make_env,
    matrix_buffers,
    mvapich_pingpong,
    one_way,
    pack_time,
    pingpong,
)
from repro.workloads.matrices import MatrixWorkload


class TestEnvironments:
    @pytest.mark.parametrize("kind", ["sm-1gpu", "sm-2gpu", "ib", "cpu"])
    def test_make_env(self, kind):
        env = make_env(kind)
        assert env.world.size == 2
        if kind == "cpu":
            assert env.gpu0 is None
        else:
            assert env.gpu0 is not None
        if kind == "sm-1gpu":
            assert env.gpu0 is env.gpu1
        if kind == "sm-2gpu":
            assert env.gpu0 is not env.gpu1
        if kind == "ib":
            assert env.world.procs[0].node is not env.world.procs[1].node

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError):
            make_env("quantum")

    def test_matrix_buffers_seeded(self):
        env = make_env("sm-2gpu")
        wl = MatrixWorkload.submatrix(64, 128)
        a0, _ = matrix_buffers(env, wl, seed=7)
        env2 = make_env("sm-2gpu")
        b0, _ = matrix_buffers(env2, wl, seed=7)
        assert np.array_equal(a0.bytes, b0.bytes)


class TestDrivers:
    def test_pingpong_positive_and_deterministic(self):
        def measure():
            env = make_env("sm-2gpu")
            wl = MatrixWorkload.submatrix(128, 256)
            b0, b1 = matrix_buffers(env, wl)
            return pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)

        t1, t2 = measure(), measure()
        assert t1 > 0 and t1 == t2

    def test_one_way_less_than_round_trip(self):
        env = make_env("sm-2gpu")
        wl = MatrixWorkload.submatrix(128, 256)
        b0, b1 = matrix_buffers(env, wl)
        t_rt = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
        env2 = make_env("sm-2gpu")
        c0, c1 = matrix_buffers(env2, wl)
        t_ow = one_way(env2, c0, wl.datatype, 1, c1, wl.datatype, 1)
        assert t_ow < t_rt

    def test_mvapich_pingpong_runs_and_verifies(self):
        env = make_env("sm-2gpu")
        wl = MatrixWorkload.submatrix(64, 128)
        b0, b1 = matrix_buffers(env, wl)
        t = mvapich_pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=1)
        assert t > 0
        from repro.datatype.convertor import pack_bytes

        assert np.array_equal(
            pack_bytes(wl.datatype, 1, b1.bytes),
            pack_bytes(wl.datatype, 1, b0.bytes),
        )

    def test_pack_time_runs(self):
        env = make_env("sm-1gpu")
        wl = MatrixWorkload.triangular(128)
        proc = env.world.procs[0]
        src = proc.ctx.malloc(wl.footprint_bytes)
        dst = proc.ctx.malloc(wl.payload_bytes)
        t = pack_time(env, wl.datatype, 1, src, dst, warmup=1)
        assert t > 0


class TestSweepsReleaseCells:
    def test_zero_copy_sweeps_leave_no_mapping_behind(self):
        """A cell's zero-copy mapping names its GPU in the process-wide
        registry, so one left mapped keeps the cell's cluster alive."""
        from repro.bench.scenarios import engine_times, memcpy2d_sweep
        from repro.cuda import uma

        before = dict(uma._REGIONS)
        memcpy2d_sweep(64, [96, 192])
        engine_times(64)
        assert uma._REGIONS == before
