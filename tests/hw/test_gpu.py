"""Tests for the GPU model: streams, copies, and the kernel cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.gpu import _VECTOR_PRICES_MAX, Gpu
from repro.hw.node import Cluster
from repro.hw.params import GpuParams
from repro.sim.core import Simulator


class TestStreams:
    def test_ops_on_one_stream_serialize(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        s = gpu.stream("s")
        s.enqueue(1e-3, label="a")
        fut = s.enqueue(1e-3, label="b")
        cluster.sim.run()
        assert cluster.sim.now == pytest.approx(2e-3)
        assert fut.done

    def test_different_streams_overlap(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        gpu.stream("s1").enqueue(1e-3)
        gpu.stream("s2").enqueue(1e-3)
        cluster.sim.run()
        assert cluster.sim.now == pytest.approx(1e-3)

    def test_co_links_serialize_across_streams(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        link = gpu.copy_engine
        gpu.stream("s1").enqueue(1e-3, co_links=(link,))
        gpu.stream("s2").enqueue(1e-3, co_links=(link,))
        cluster.sim.run()
        assert cluster.sim.now == pytest.approx(2e-3)

    def test_synchronize_waits_for_queued_work(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        s = gpu.stream("s")
        s.enqueue(5e-3)
        fut = s.synchronize()
        cluster.sim.run()
        assert fut.done and cluster.sim.now == pytest.approx(5e-3)

    def test_fn_runs_at_completion(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        seen = []
        gpu.default_stream.enqueue(1e-3, fn=lambda: seen.append(cluster.sim.now))
        cluster.sim.run()
        assert seen == [pytest.approx(1e-3)]

    def test_negative_duration_rejected(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        with pytest.raises(ValueError):
            gpu.default_stream.enqueue(-1.0)


class TestCopies:
    def test_d2d_moves_bytes(self, cluster, rng):
        gpu = cluster.nodes[0].gpus[0]
        a = gpu.memory.alloc(1024)
        b = gpu.memory.alloc(1024)
        a.write(rng.random(128))
        gpu.memcpy_d2d(b, a)
        cluster.sim.run()
        assert np.array_equal(a.bytes, b.bytes)

    def test_d2h_h2d_roundtrip(self, cluster, rng):
        node = cluster.nodes[0]
        gpu = node.gpus[0]
        dev = gpu.memory.alloc(1024)
        host = node.host_memory.alloc(1024)
        back = gpu.memory.alloc(1024)
        dev.write(rng.random(128))
        gpu.memcpy_d2h(host, dev)
        cluster.sim.run()
        gpu.memcpy_h2d(back, host)
        cluster.sim.run()
        assert np.array_equal(dev.bytes, back.bytes)

    def test_peer_copy_moves_bytes(self, cluster, rng):
        g0, g1 = cluster.nodes[0].gpus
        a = g0.memory.alloc(512)
        b = g1.memory.alloc(512)
        a.write(rng.random(64))
        g0.memcpy_peer(b, a, g1)
        cluster.sim.run()
        assert np.array_equal(a.bytes, b.bytes)

    def test_peer_without_path_rejected(self, two_node_cluster):
        g0 = two_node_cluster.nodes[0].gpus[0]
        g1 = two_node_cluster.nodes[1].gpus[0]
        a = g0.memory.alloc(64)
        b = g1.memory.alloc(64)
        with pytest.raises(RuntimeError):
            g0.memcpy_peer(b, a, g1)

    def test_destination_too_small_rejected(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        a = gpu.memory.alloc(128)
        b = gpu.memory.alloc(64)
        with pytest.raises(ValueError):
            gpu.memcpy_d2d(b, a)

    def test_d2h_charges_pcie(self, cluster):
        node = cluster.nodes[0]
        gpu = node.gpus[0]
        dev = gpu.memory.alloc(1 << 20)
        host = node.host_memory.alloc(1 << 20)
        gpu.memcpy_d2h(host, dev)
        cluster.sim.run()
        lp = node.params.pcie_d2h
        expect = lp.overhead + (1 << 20) / lp.bandwidth + lp.latency
        assert cluster.sim.now == pytest.approx(expect)


class TestKernelCostModel:
    def test_vector_kernel_efficiency_near_peak(self, gpu):
        # 32 KiB rows: perfectly warp-aligned
        st_ = gpu.vector_kernel_stats(count=4000, blocklength_bytes=32768)
        bw = st_.payload_bytes / st_.total_time
        assert 0.90 <= bw / gpu.params.copy_peak_bw <= 0.95

    def test_triangular_units_pay_occupancy(self, gpu):
        lens = np.arange(1, 4001) * 8
        units = []
        s = gpu.params.dev_unit_size
        for l in lens:
            full, res = divmod(int(l), s)
            units.extend([s] * full)
            if res:
                units.append(res)
        st_ = gpu.dev_kernel_stats(np.array(units))
        # effective bandwidth lands at the paper's ~80% of cudaMemcpy peak
        bw = st_.payload_bytes / st_.total_time
        assert 0.75 <= bw / gpu.params.copy_peak_bw <= 0.85

    def test_block_aligned_units_full_efficiency(self, gpu):
        s = gpu.params.threads_per_block * gpu.params.bytes_per_thread
        st_ = gpu.dev_kernel_stats(np.full(1000, s))
        assert st_.efficiency == 1.0

    def test_empty_units(self, gpu):
        st_ = gpu.dev_kernel_stats(np.empty(0, dtype=np.int64))
        assert st_.payload_bytes == 0
        assert st_.total_time == pytest.approx(gpu.params.kernel_launch_overhead)

    def test_grid_throttling_reduces_bandwidth(self, gpu):
        assert gpu.kernel_bandwidth(1) < gpu.kernel_bandwidth(8)
        assert gpu.kernel_bandwidth(120) <= (
            gpu.params.copy_peak_bw * gpu.params.kernel_peak_fraction
        )

    def test_contention_scales_bandwidth(self, gpu):
        full = gpu.kernel_bandwidth()
        gpu.contention = 0.5
        assert gpu.kernel_bandwidth() == pytest.approx(full * 0.5)
        gpu.contention = 0.0

    def test_misaligned_vector_pays_extra(self, gpu):
        good = gpu.vector_kernel_stats(1000, 256, aligned=True)
        bad = gpu.vector_kernel_stats(1000, 256, aligned=False)
        assert bad.total_time > good.total_time

    def test_memcpy2d_misalignment_penalty(self, gpu):
        aligned = gpu.memcpy2d_time(192, 1000, over_pcie=True, pcie_bw=10e9)
        misaligned = gpu.memcpy2d_time(196, 1000, over_pcie=True, pcie_bw=10e9)
        # ~same bytes but off the 64B fast path
        assert misaligned > aligned * 1.2
        # per-byte regression is even clearer
        assert misaligned / 196 > (aligned / 192) * 1.2

    @settings(max_examples=50, deadline=None)
    @given(
        lens=st.lists(st.integers(1, 1 << 16), min_size=1, max_size=100),
        grid=st.integers(1, 240),
    )
    def test_dev_kernel_stats_invariants(self, lens, grid):
        cluster = Cluster(1, 1)
        gpu = cluster.nodes[0].gpus[0]
        st_ = gpu.dev_kernel_stats(np.array(lens, dtype=np.int64), grid_blocks=grid)
        assert st_.payload_bytes == sum(lens)
        assert st_.charged_bytes >= st_.payload_bytes
        assert 0 < st_.efficiency <= 1.0
        assert st_.total_time > 0

    def test_fractional_vector_rows(self, gpu):
        whole = gpu.vector_kernel_stats(1.0, 1 << 20)
        half = gpu.vector_kernel_stats(0.5, 1 << 20)
        assert half.payload_bytes == whole.payload_bytes // 2
        assert half.transfer_time < whole.transfer_time


def fresh_vector_price(gpu, *args):
    """The launch priced by a GPU of the same parameters and contention
    that has never priced one (nothing memoized)."""
    other = Gpu(Simulator(), gpu.params)
    other.contention = gpu.contention
    return other.vector_kernel_stats(*args)


#: a vector launch: rows (an int, or a fragment's fractional bytes /
#: blocklength, as PackJob passes), blocklength bytes, grid, alignment
vector_launches = st.tuples(
    st.one_of(
        st.integers(0, 5000),
        st.tuples(st.integers(0, 1 << 22), st.integers(1, 1 << 14)).map(
            lambda t: t[0] / t[1]
        ),
    ),
    st.integers(1, 1 << 14),
    st.one_of(st.none(), st.integers(1, 240)),
    st.booleans(),
)


class TestVectorPriceMemo:
    """``Gpu.vector_kernel_stats`` memoizes its frozen result."""

    @settings(max_examples=60, deadline=None)
    @given(
        launches=st.lists(
            st.tuples(vector_launches, st.sampled_from([0.0, 0.25, 0.6])),
            min_size=1, max_size=12,
        )
    )
    def test_equals_a_fresh_evaluation(self, launches):
        gpu = Cluster(1, 1).nodes[0].gpus[0]
        for (rows, bl, grid, aligned), contention in launches:
            # the launch, then one input changed at a time, then the
            # launch again (a memo hit): every key field must tell apart
            for args, cont in (
                ((rows, bl, grid, aligned), contention),
                ((rows, bl, 8 if grid is None else None, aligned), contention),
                ((rows, bl, grid, not aligned), contention),
                ((rows, bl + 8, grid, aligned), contention),
                ((rows + 1, bl, grid, aligned), contention),
                ((rows, bl, grid, aligned), 0.9 - contention),
                ((rows, bl, grid, aligned), contention),
            ):
                gpu.contention = cont
                got = gpu.vector_kernel_stats(*args)
                assert repr(got) == repr(fresh_vector_price(gpu, *args)), args

    def test_contention_change_between_identical_launches(self, gpu):
        launch = (100.5, 4096, None, True)
        before = gpu.vector_kernel_stats(*launch)
        gpu.contention = 0.5
        try:
            after = gpu.vector_kernel_stats(*launch)
            assert repr(after) == repr(fresh_vector_price(gpu, *launch))
        finally:
            gpu.contention = 0.0
        assert after.transfer_time > before.transfer_time
        assert gpu.vector_kernel_stats(*launch) is before

    def test_int_and_float_rows_keep_their_type(self, gpu):
        # 1 == 1.0 hash alike, but n_units returns rows as given
        assert repr(gpu.vector_kernel_stats(1, 256)) == repr(
            fresh_vector_price(gpu, 1, 256))
        assert repr(gpu.vector_kernel_stats(1.0, 256)) == repr(
            fresh_vector_price(gpu, 1.0, 256))

    def test_stays_bounded(self, gpu):
        for i in range(3 * _VECTOR_PRICES_MAX):
            gpu.vector_kernel_stats(1.0 + i, 256)
            assert len(gpu._vector_prices) <= _VECTOR_PRICES_MAX
        launch = (7.25, 192, 3, False)
        assert repr(gpu.vector_kernel_stats(*launch)) == repr(
            fresh_vector_price(gpu, *launch))

