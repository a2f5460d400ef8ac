"""Tests for the CUDA-runtime facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda.runtime import CudaContext, MemcpyKind


@pytest.fixture
def ctx(cluster):
    return CudaContext(cluster.nodes[0].gpus[0])


class TestMemcpy:
    def test_kind_inference(self, cluster, ctx):
        dev = ctx.malloc(64)
        host = ctx.malloc_host(64)
        assert ctx.infer_kind(dev, dev) is MemcpyKind.D2D
        assert ctx.infer_kind(host, dev) is MemcpyKind.D2H
        assert ctx.infer_kind(dev, host) is MemcpyKind.H2D
        assert ctx.infer_kind(host, host) is MemcpyKind.H2H

    def test_default_kind_moves_data(self, cluster, ctx, rng):
        a = ctx.malloc(512)
        h = ctx.malloc_host(512)
        a.write(rng.random(64))
        ctx.memcpy(h, a)
        cluster.sim.run()
        assert np.array_equal(h.bytes, a.bytes)

    def test_cross_gpu_d2d(self, cluster, rng):
        g0, g1 = cluster.nodes[0].gpus
        c0 = CudaContext(g0)
        a = g0.memory.alloc(256)
        b = g1.memory.alloc(256)
        a.write(rng.random(32))
        c0.memcpy(b, a)
        cluster.sim.run()
        assert np.array_equal(a.bytes, b.bytes)

    def test_h2h_goes_through_cpu(self, cluster, ctx, rng):
        a = ctx.malloc_host(256)
        b = ctx.malloc_host(256)
        a.write(rng.random(32))
        ctx.memcpy(b, a)
        cluster.sim.run()
        assert np.array_equal(a.bytes, b.bytes)
        assert cluster.nodes[0].cpu_memcpy_engine.transfers == 1


    def test_h2h_destination_smaller_than_source(self, cluster, ctx):
        """A 1 KiB host destination for a 4 KiB host source used to be
        accepted; the run then failed inside the event loop with NumPy's
        "could not broadcast input array from shape (4096,) into shape
        (1024,)"."""
        src = ctx.malloc_host(4096)
        dst = ctx.malloc_host(1024)
        with pytest.raises(ValueError, match="memcpyH2H: destination smaller "
                                             "than source"):
            ctx.memcpy(dst, src)
        cluster.sim.run()
        assert cluster.nodes[0].cpu_memcpy_engine.transfers == 0


class TestMemcpy2D:
    def test_strided_gather(self, cluster, ctx, rng):
        # 10 rows of 16 bytes with a 32-byte pitch
        src = ctx.malloc(10 * 32)
        dst = ctx.malloc(160)
        data = rng.integers(0, 255, 320, dtype=np.uint8)
        src.bytes[:] = data
        ctx.memcpy2d(dst, 16, src, 32, width=16, height=10)
        cluster.sim.run()
        expect = np.concatenate([data[r * 32 : r * 32 + 16] for r in range(10)])
        assert np.array_equal(dst.bytes, expect)

    def test_scatter_into_pitched_destination(self, cluster, ctx, rng):
        src = ctx.malloc(160)
        dst = ctx.malloc(10 * 32)
        data = rng.integers(0, 255, 160, dtype=np.uint8)
        src.bytes[:] = data
        dst.fill(0)
        ctx.memcpy2d(dst, 32, src, 16, width=16, height=10)
        cluster.sim.run()
        for r in range(10):
            row = dst.bytes[r * 32 : r * 32 + 32]
            assert np.array_equal(row[:16], data[r * 16 : (r + 1) * 16])
            assert (row[16:] == 0).all()

    def test_full_width_fast_path(self, cluster, ctx, rng):
        src = ctx.malloc(256)
        dst = ctx.malloc(256)
        src.write(rng.random(32))
        ctx.memcpy2d(dst, 16, src, 16, width=16, height=16)
        cluster.sim.run()
        assert np.array_equal(src.bytes, dst.bytes)

    def test_width_exceeding_pitch_rejected(self, cluster, ctx):
        b = ctx.malloc(256)
        with pytest.raises(ValueError):
            ctx.memcpy2d(b, 8, b, 8, width=16, height=2)

    def test_source_too_small_rejected(self, cluster, ctx):
        small = ctx.malloc(16)
        big = ctx.malloc(256)
        with pytest.raises(ValueError):
            ctx.memcpy2d(big, 32, small, 32, width=16, height=4)


class TestEvents:
    def test_event_completes_with_stream(self, cluster, ctx):
        s = ctx.stream("s")
        s.enqueue(2e-3)
        ev = ctx.event().record(s)
        assert not ev.complete
        cluster.sim.run()
        assert ev.complete and cluster.sim.now == pytest.approx(2e-3)

    def test_unrecorded_event_rejected(self, cluster, ctx):
        with pytest.raises(RuntimeError):
            ctx.event().synchronize()
