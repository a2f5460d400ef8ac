"""Equivalence tests for this PR's hot-path optimizations.

Two fast paths must be observationally identical to their references:

* the convertor's uniform-vector strided 2-D executor (``_strided``)
  vs the gather path and the stack machine;
* the hindexed gap-free-base vectorized span build vs the generic
  per-block tile/shift/coalesce loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.canonical import PLAN_GATHER, PLAN_MEMCPY, PLAN_STRIDED2D
from repro.datatype.convertor import Convertor, pack_bytes
from repro.datatype.ddt import contiguous, hindexed, indexed, vector
from repro.datatype.primitives import DOUBLE
from repro.datatype.typemap import Spans, coalesce, concat, tile
from tests.datatype.strategies import buffer_for, reference_pack

#: committed Datatype equivalent of the DOUBLE primitive, for the
#: reference span builder (which needs .spans / .extent)
DOUBLE_DT = contiguous(1, DOUBLE).commit()


def make_vec(count=16, bl=4, stride=9):
    return vector(count, bl, stride, DOUBLE).commit()


class TestStridedFastPath:
    def test_vector_engages_fast_path(self, rng):
        dt = make_vec()
        user = buffer_for(dt, 1, rng)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_STRIDED2D  # precondition for everything below
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert conv._idx is None  # gather map never materialized
        assert conv.stream_plan._gather is None
        assert np.array_equal(out, reference_pack(dt, 1, user))

    def test_non_uniform_layout_does_not_engage(self, rng):
        dt = indexed([3, 1, 2], [0, 4, 8], DOUBLE).commit()
        user = buffer_for(dt, 1, rng)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_GATHER
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, reference_pack(dt, 1, user))

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 12),
        bl=st.integers(1, 6),
        pad=st.integers(0, 5),
        frag_elems=st.integers(1, 40),
        data=st.randoms(),
    )
    def test_fragmented_pack_equals_reference(
        self, count, bl, pad, frag_elems, data
    ):
        """Arbitrary fragment sizes hit head/mid/tail block splits."""
        dt = vector(count, bl, bl + pad, DOUBLE).commit()
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        want = reference_pack(dt, 1, user)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan in (PLAN_MEMCPY, PLAN_STRIDED2D)
        chunks = []
        while not conv.done:
            buf = np.empty(frag_elems * 8, dtype=np.uint8)
            n = conv.pack(buf)
            chunks.append(buf[:n])
        assert np.array_equal(np.concatenate(chunks), want)

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(1, 12),
        bl=st.integers(1, 6),
        pad=st.integers(0, 5),
        frag_elems=st.integers(1, 40),
        data=st.randoms(),
    )
    def test_fragmented_unpack_roundtrips(
        self, count, bl, pad, frag_elems, data
    ):
        dt = vector(count, bl, bl + pad, DOUBLE).commit()
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        packed = reference_pack(dt, 1, user)
        out = np.zeros_like(user)
        conv = Convertor(dt, 1, out, "unpack")
        assert conv.plan in (PLAN_MEMCPY, PLAN_STRIDED2D)
        pos = 0
        while not conv.done:
            n = conv.unpack(packed[pos : pos + frag_elems * 8])
            pos += n
        assert np.array_equal(reference_pack(dt, 1, out), packed)

    def test_pack_range_random_access_on_fast_path(self, rng):
        dt = make_vec(count=8, bl=4, stride=9)
        user = buffer_for(dt, 1, rng)
        want = reference_pack(dt, 1, user)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_STRIDED2D
        # out-of-order, overlapping, and sub-block ranges
        for lo, hi in [(64, 128), (0, 8), (24, 104), (248, 256), (0, 256)]:
            out = np.empty(hi - lo, dtype=np.uint8)
            conv.pack_range(out, lo, hi)
            assert np.array_equal(out, want[lo:hi]), (lo, hi)

    def test_base_offset_shifts_fast_path(self, rng):
        dt = make_vec(count=4, bl=2, stride=5)
        shift = 3 * 8
        user = rng.integers(0, 255, dt.extent + shift, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack", base_offset=shift)
        assert conv.plan == PLAN_STRIDED2D
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, reference_pack(dt, 1, user[shift:]))

    def test_count_gt_one_tiles_into_fast_path(self, rng):
        # tiling a vector whose extent continues the stride stays uniform
        dt = vector(4, 2, 4, DOUBLE).commit()
        count = 3
        user = buffer_for(dt, count, rng)
        conv = Convertor(dt, count, user, "pack")
        out = np.empty(dt.size * count, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, reference_pack(dt, count, user))

    def test_layout_exceeding_buffer_falls_back(self, rng):
        # a buffer sized to true extent, but the strided row view would
        # need stride-padding past the last block: must not crash
        dt = make_vec(count=4, bl=2, stride=8)
        user = buffer_for(dt, 1, rng)
        conv = Convertor(dt, 1, user, "pack")
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, reference_pack(dt, 1, user))


def reference_hindexed_spans(bls, disps, base) -> Spans:
    """The generic per-block build: tile each block, shift, coalesce."""
    parts = []
    for bl, d in zip(bls, disps):
        if bl == 0:
            continue
        parts.append(tile(base.spans, bl, base.extent).shift(int(d)))
    return coalesce(concat(parts))


class TestHindexedVectorizedBuild:
    def assert_spans_equal(self, got: Spans, want: Spans):
        assert got.disps.tolist() == want.disps.tolist()
        assert got.lens.tolist() == want.lens.tolist()

    def test_triangular_type_matches_reference(self):
        n = 64
        bls = [n - i for i in range(n)]
        disps = [(i * n + i) * 8 for i in range(n)]
        dt = hindexed(bls, disps, DOUBLE).commit()
        self.assert_spans_equal(
            dt.spans, reference_hindexed_spans(bls, disps, DOUBLE_DT)
        )

    def test_zero_length_blocks_dropped(self):
        dt = hindexed([2, 0, 3], [0, 800, 32], DOUBLE).commit()
        assert dt.spans.count == 2
        assert dt.spans.lens.tolist() == [16, 24]

    def test_all_zero_blocks_empty(self):
        dt = hindexed([0, 0], [0, 64], DOUBLE).commit()
        assert dt.spans.count == 0

    def test_adjacent_blocks_coalesce(self):
        # block 1 at byte 0 (2 doubles) touches block 2 at byte 16
        dt = hindexed([2, 3], [0, 16], DOUBLE).commit()
        assert dt.spans.count == 1
        assert dt.spans.lens.tolist() == [40]

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 40)),
            min_size=1,
            max_size=12,
        ),
        data=st.randoms(),
    )
    def test_random_layouts_match_reference_and_pack(self, blocks, data):
        bls = [b for b, _ in blocks]
        disps = [d * 8 for _, d in blocks]
        dt = hindexed(bls, disps, DOUBLE).commit()
        want = reference_hindexed_spans(bls, disps, DOUBLE_DT)
        self.assert_spans_equal(dt.spans, want)
        if dt.size == 0:
            return
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        assert np.array_equal(
            pack_bytes(dt, 1, user), reference_pack(dt, 1, user)
        )
