"""Tests for the span algebra (typemap normalization)."""

from __future__ import annotations

import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype import ddt
from repro.datatype.canonical import canonical_key, stream_plan
from repro.datatype.primitives import BYTE, DOUBLE, FLOAT, INT
from repro.datatype.typemap import Spans, coalesce, concat, tile

from tests.datatype import reference_typemap as ref


def mk(disps, lens) -> Spans:
    return Spans(np.array(disps, np.int64), np.array(lens, np.int64))


class TestSpans:
    def test_basic_facts(self):
        s = mk([0, 16], [8, 8])
        assert s.count == 2 and s.size == 16
        assert s.true_lb == 0 and s.true_ub == 24

    def test_packed_offsets(self):
        s = mk([0, 100, 200], [4, 8, 2])
        assert s.packed_offsets().tolist() == [0, 4, 12]

    def test_shift(self):
        assert mk([0, 8], [4, 4]).shift(10).disps.tolist() == [10, 18]

    def test_overlap_detection(self):
        assert mk([0, 4], [8, 8]).overlaps_self()
        assert not mk([0, 8], [8, 8]).overlaps_self()
        assert not mk([8, 0], [4, 4]).overlaps_self()  # order-independent

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mk([0, 1], [1])


class TestCoalesce:
    def test_adjacent_merge(self):
        s = coalesce(mk([0, 8, 16], [8, 8, 8]))
        assert s.count == 1 and s.lens.tolist() == [24]

    def test_gap_preserved(self):
        s = coalesce(mk([0, 9], [8, 8]))
        assert s.count == 2

    def test_order_dependence(self):
        # spans adjacent in memory but not consecutive in pack order
        s = coalesce(mk([8, 0], [8, 8]))
        assert s.count == 2

    def test_partial_runs(self):
        s = coalesce(mk([0, 8, 100, 108, 116], [8, 8, 8, 8, 8]))
        assert s.disps.tolist() == [0, 100]
        assert s.lens.tolist() == [16, 24]


class TestTile:
    def test_counts_and_offsets(self):
        s = tile(mk([0], [4]), 3, 16)
        assert s.disps.tolist() == [0, 16, 32]

    def test_tile_coalesces_contiguous(self):
        s = tile(mk([0], [16]), 4, 16)
        assert s.count == 1 and s.size == 64

    def test_zero_count(self):
        assert tile(mk([0], [4]), 0, 16).count == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            tile(mk([0], [4]), -1, 16)


class TestConcat:
    def test_order_preserved(self):
        s = concat([mk([100], [4]), mk([0], [4])])
        assert s.disps.tolist() == [100, 0]

    def test_empty_parts_dropped(self):
        s = concat([Spans.empty(), mk([0], [4]), Spans.empty()])
        assert s.count == 1


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 64)), min_size=1, max_size=50
        )
    )
    def test_coalesce_preserves_bytes_and_order(self, pairs):
        s = mk([p[0] for p in pairs], [p[1] for p in pairs])
        c = coalesce(s)
        assert c.size == s.size
        # expanding both into per-byte address streams gives identical sequences
        def stream(sp):
            return np.concatenate(
                [np.arange(d, d + l) for d, l in sp.iter_pairs()]
            )
        assert np.array_equal(stream(s), stream(c))
        # no two consecutive output spans are mergeable
        if c.count > 1:
            assert (c.disps[1:] != c.disps[:-1] + c.lens[:-1]).all()

    @settings(max_examples=50, deadline=None)
    @given(
        count=st.integers(1, 10),
        stride=st.integers(0, 500),
        disp=st.integers(0, 100),
        length=st.integers(1, 32),
    )
    def test_tile_size_scales(self, count, stride, disp, length):
        s = tile(mk([disp], [length]), count, stride)
        assert s.size == count * length



# ---------------------------------------------------------------------------
# the closed-form tile and reduceat coalesce against the frozen reference
# ---------------------------------------------------------------------------


def arrays(s: Spans) -> tuple:
    """A span list's arrays, dtype included, in comparable form."""
    return (s.disps.dtype, s.disps.tolist(), s.lens.dtype, s.lens.tolist())


span_lists = st.lists(
    st.tuples(st.integers(-4096, 4096), st.integers(1, 64)), max_size=12
).map(lambda pairs: mk([p[0] for p in pairs], [p[1] for p in pairs]))


class TestMatchesFrozenReference:
    @settings(max_examples=300, deadline=None)
    @given(spans=span_lists, count=st.integers(0, 40),
           stride=st.integers(-512, 512))
    def test_tile_random(self, spans, count, stride):
        assert arrays(tile(spans, count, stride)) == arrays(
            ref.tile(spans, count, stride)
        )

    @settings(max_examples=200, deadline=None)
    @given(spans=span_lists, count=st.integers(0, 40))
    def test_tile_at_own_footprint(self, spans, count):
        # each copy starts where the previous one's bytes end: dense for
        # one span, seam-touching for several
        for stride in (spans.true_ub - spans.true_lb, spans.size):
            for step in (stride, -stride):
                assert arrays(tile(spans, count, step)) == arrays(
                    ref.tile(spans, count, step)
                )

    @settings(max_examples=300, deadline=None)
    @given(spans=span_lists)
    def test_coalesce_random(self, spans):
        assert arrays(coalesce(spans)) == arrays(ref.coalesce(spans))

    @pytest.mark.parametrize(
        "disps, lens, count, stride",
        [
            ([0], [8], 5, 8),  # dense
            ([24], [8], 5, 8),  # dense, displaced
            ([-16], [8], 3, 8),  # dense, below zero
            ([0], [8], 5, 16),  # gapped
            ([0], [8], 5, -8),  # backwards: touching in memory, not in order
            ([0], [8], 5, 0),  # every copy on the same bytes
            ([0, 8], [4, 4], 4, 12),  # seam-touching: last span meets the next copy
            ([0, 4], [4, 4], 4, 8),  # two touching spans tiled densely
            ([4, 0], [4, 4], 3, 8),  # out of pack order
            ([0], [8], 1, 8),  # one copy
            ([0], [8], 0, 8),  # no copies
            ([], [], 5, 8),  # empty input
        ],
    )
    def test_tile_cases(self, disps, lens, count, stride):
        s = mk(disps, lens)
        assert arrays(tile(s, count, stride)) == arrays(ref.tile(s, count, stride))

    @pytest.mark.parametrize(
        "disps, lens",
        [
            ([], []),
            ([0], [8]),
            ([0, 8, 16], [8, 8, 8]),
            ([0, 9], [8, 8]),
            ([-8, 0, 100, 108], [8, 8, 8, 1]),
        ],
    )
    def test_coalesce_cases(self, disps, lens):
        s = mk(disps, lens)
        assert arrays(coalesce(s)) == arrays(ref.coalesce(s))


# Random constructor trees as recipes, so that one tree can be built twice:
# once with the frozen span algebra and once with the current one.
_primitives = st.sampled_from([BYTE, INT, FLOAT, DOUBLE])


@st.composite
def _subarray(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    subsizes = [draw(st.integers(1, n)) for n in sizes]
    starts = [draw(st.integers(0, n - s)) for n, s in zip(sizes, subsizes)]
    order = draw(st.sampled_from("CF"))
    return ("subarray", sizes, subsizes, starts, order, draw(_primitives))


def _nodes(inner):
    counts = st.integers(0, 6)
    return st.one_of(
        st.tuples(st.just("contiguous"), counts, inner),
        st.tuples(st.just("vector"), counts, st.integers(0, 4),
                  st.integers(-8, 8), inner),
        st.tuples(st.just("hvector"), counts, st.integers(0, 3),
                  st.integers(-256, 256), inner),
        st.tuples(st.just("hindexed"),
                  st.lists(st.integers(0, 4), min_size=1, max_size=5),
                  st.lists(st.integers(-128, 128), min_size=5, max_size=5),
                  inner),
        st.tuples(st.just("struct"),
                  st.lists(st.tuples(st.integers(0, 3), st.integers(-128, 128),
                                     inner), min_size=1, max_size=3)),
        st.tuples(st.just("resized"), st.integers(-16, 16),
                  st.integers(0, 64), inner),
    )


recipes = st.recursive(
    st.one_of(st.tuples(st.just("prim"), _primitives), _subarray()),
    _nodes,
    max_leaves=4,
)


def build(recipe) -> ddt.Datatype:
    kind, *args = recipe
    if kind == "prim":
        return ddt.contiguous(1, args[0])
    if kind == "subarray":
        sizes, subsizes, starts, order, prim = args
        return ddt.subarray(sizes, subsizes, starts, prim, order=order)
    if kind == "contiguous":
        return ddt.contiguous(args[0], build(args[1]))
    if kind == "vector":
        return ddt.vector(*args[:3], build(args[3]))
    if kind == "hvector":
        return ddt.hvector(*args[:3], build(args[3]))
    if kind == "hindexed":
        bls, disps, inner = args
        return ddt.hindexed(bls, disps[: len(bls)], build(inner))
    if kind == "struct":
        (members,) = args
        return ddt.struct([m[0] for m in members], [m[1] for m in members],
                          [build(m[2]) for m in members])
    lb_shift, pad, inner = args  # resized
    base = build(inner).commit()
    return ddt.resized(base, base.lb + lb_shift, base.extent + pad)


@contextmanager
def reference_algebra():
    """Build datatypes with the frozen ``tile``/``coalesce``."""
    saved = ddt.tile, ddt.coalesce
    ddt.tile, ddt.coalesce = ref.tile, ref.coalesce
    try:
        yield
    finally:
        ddt.tile, ddt.coalesce = saved


def layout(dt: ddt.Datatype) -> list:
    """Committed spans, send-count typemaps and canonical keys."""
    out = [arrays(dt.commit().spans)]
    for count in (0, 1, 2, 5):
        out.append(arrays(dt.spans_for_count(count)))
        out.append(canonical_key(dt, count, 8))
    return out


class TestConstructorTreesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(recipe=recipes)
    def test_committed_layouts_identical(self, recipe):
        with reference_algebra():
            want = layout(build(recipe))
        assert layout(build(recipe)) == want


def _gcd_granularity(spans: Spans) -> int:
    """The gcd formula ``Datatype.granularity`` replaced."""
    g = int(np.gcd.reduce(np.concatenate([spans.disps, spans.lens])))
    g = math.gcd(g, 16) if g else 16
    return max(1, g)


def _raw_type(spans: Spans) -> ddt.Datatype:
    """A committed datatype whose typemap is ``spans`` (coalesced)."""
    return ddt.Datatype(
        "test", lambda: spans, size=spans.size, lb=0, ub=max(spans.true_ub, 0),
        signature=(("MPI_BYTE", spans.size),),
    ).commit()


class TestGranularity:
    def test_matches_gcd_formula_on_random_arrays(self):
        rng = np.random.default_rng(2016)
        for _ in range(2000):
            n = int(rng.integers(1, 20))
            disps = rng.integers(-1000, 1000, n) << rng.integers(0, 7, n)
            lens = rng.integers(1, 100, n) << rng.integers(0, 7, n)
            dt = _raw_type(Spans(disps, lens))
            assert dt.granularity() == _gcd_granularity(dt.spans)

    @pytest.mark.parametrize(
        "disps, lens, want",
        [
            ([0], [0], 16),  # every value zero: no bit set
            ([-24], [8], 8),  # negative displacement
            ([-32, 64], [32, 96], 16),  # capped at 16
            ([3], [4], 1),
            ([0, 6], [2, 2], 2),
        ],
    )
    def test_edge_cases(self, disps, lens, want):
        dt = _raw_type(mk(disps, lens))
        assert dt.granularity() == _gcd_granularity(dt.spans) == want


class TestDenseTileCost:
    def test_big_contiguous_commits_and_plans_in_constant_memory(self):
        ddt.contiguous(1, BYTE).commit()  # BYTE's own datatype, built untraced
        tracemalloc.start()
        try:
            dt = ddt.contiguous(1 << 22, BYTE).commit()
            plan = stream_plan(dt, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (plan.spans.count, plan.spans.size) == (1, 1 << 22)
        assert peak < 1 << 20

    def test_dense_tile_cost_does_not_grow_with_count(self):
        peaks = []
        for count in (1 << 8, 1 << 20):
            tracemalloc.start()
            try:
                s = tile(mk([16], [8]), count, 8)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (s.disps.tolist(), s.lens.tolist()) == ([16], [8 * count])
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 1024
