"""DEV-kernel pricing from prefix sums equals the per-launch reduction.

``PackJob.kernel_stats`` prices a fragment from the units' packed offsets
and cached block-iteration prefix sums, and ``PackJob.fragments`` cuts
from the packed offsets.  The frozen reference
(:mod:`tests.gpu_engine.reference_pricing`) reduces each launch's slice
of unit lengths with NumPy and cuts from a fresh ``cumsum``; every
``KernelStats`` field and every fragment must be bit-identical to it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu_engine.dev import DevList
from repro.gpu_engine.dev_kernel import dev_kernel_stats
from repro.gpu_engine.engine import EngineOptions, GpuDatatypeEngine
from repro.gpu_engine.work_units import WorkUnits, split_units
from repro.hw.node import Cluster
from repro.workloads.matrices import lower_triangular_type
from tests.datatype.strategies import datatypes
from tests.gpu_engine import reference_pricing as ref

grids = st.one_of(st.none(), st.integers(1, 160))
contentions = st.sampled_from([0.0, 0.25, 0.6, 0.95])


def same(a, b) -> bool:
    """Every field equal, and of the same type (``repr`` shows both)."""
    return repr(a) == repr(b)


def units_from_lens(lens, unit_size: int) -> WorkUnits:
    lens = np.asarray(lens, dtype=np.int64)
    dst = np.cumsum(lens) - lens
    return split_units(DevList(3 * dst + 5, dst, lens), unit_size)


class TestKernelStatsTwin:
    @settings(max_examples=80, deadline=None)
    @given(
        lens=st.lists(st.integers(1, 6000), max_size=40),
        unit_size=st.integers(64, 8192),
        grid=grids,
        contention=contentions,
        cuts=st.lists(st.integers(0, 1 << 20), min_size=2, max_size=8),
    )
    def test_random_units_and_ranges(
        self, lens, unit_size, grid, contention, cuts
    ):
        gpu = Cluster(1, 1).nodes[0].gpus[0]
        gpu.contention = contention
        units = units_from_lens(lens, unit_size)
        n = units.count
        ranges = [(0, n), (0, 0), (n, n), (0, None)]
        # random pairs, inverted ones included (an empty launch either way)
        ranges += [(a % (n + 1), b % (n + 1)) for a, b in zip(cuts, cuts[1:])]
        for lo, hi in ranges:
            got = dev_kernel_stats(gpu, units, lo, hi, grid_blocks=grid)
            want = ref.dev_kernel_stats(gpu, units, lo, hi, grid_blocks=grid)
            assert same(got, want), (lo, hi)

    def test_array_pricing_keeps_its_formula(self):
        gpu = Cluster(1, 1).nodes[0].gpus[0]
        lens = np.array([1, 7, 4096, 4097, 12000, 8], dtype=np.int64)
        for grid in (None, 1, 3):
            got = gpu.dev_kernel_stats(lens, grid_blocks=grid)
            assert same(got, ref.gpu_dev_kernel_stats(gpu, lens, grid))


class TestPackJobTwin:
    @settings(max_examples=40, deadline=None)
    @given(
        dt=datatypes(),
        count=st.integers(1, 3),
        unit_size=st.sampled_from([64, 256, 1024, 4096]),
        grid=grids,
        contention=contentions,
        frag_bytes=st.integers(1, 1 << 14),
        cuts=st.lists(st.integers(0, 1 << 20), min_size=2, max_size=8),
    )
    def test_fragments_and_ranges(
        self, dt, count, unit_size, grid, contention, frag_bytes, cuts
    ):
        gpu = Cluster(1, 1).nodes[0].gpus[0]
        gpu.contention = contention
        buf = gpu.memory.alloc(max(dt.spans_for_count(count).true_ub, 1))
        opts = EngineOptions(
            unit_size=unit_size, grid_blocks=grid, force_dev_path=True
        )
        job = GpuDatatypeEngine(gpu).pack_job(dt, count, buf, opts)
        units = job.units
        frags = job.fragments(frag_bytes)
        assert frags == ref.dev_fragments(units, frag_bytes)
        total = job.total_bytes
        # the receiver-driven protocols' edge-unit ranges
        edges = sorted(c % (total + 1) for c in cuts)
        frags += [
            job.range_fragment(i, lo, hi)
            for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
        ]
        frags.append(job.single_fragment())
        for f in frags:
            want = ref.dev_kernel_stats(gpu, units, f.unit_lo, f.unit_hi, grid)
            assert same(job.kernel_stats(f), want), f


class _Counted(np.ndarray):
    """A unit array that counts every NumPy operation run over it."""

    ops = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(out, np.ndarray):
            _Counted.ops += 1
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.ops += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _Counted.ops += 1
        return super().__array_function__(func, types, args, kwargs)


def test_kernel_stats_runs_no_numpy_over_units(cluster):
    gpu = cluster.nodes[0].gpus[0]
    dt = lower_triangular_type(256)
    job = GpuDatatypeEngine(gpu).pack_job(dt, 1, gpu.memory.alloc(dt.extent))
    frags = job.fragments(8192)
    u = job.units
    job.units = WorkUnits(
        *(a.view(_Counted) for a in (u.src_disps, u.dst_disps, u.lens)),
        u.unit_size,
    )
    want = [job.kernel_stats(f) for f in frags]  # builds the prefix sums once
    _Counted.ops = 0
    assert [job.kernel_stats(f) for f in frags] == want
    assert _Counted.ops == 0
