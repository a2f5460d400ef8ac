"""Equivalence tests for the convertor's hot-path optimizations.

Two fast paths must be observationally identical to their references:

* the convertor's strided 2-D executor (``_strided``) over any 2-D
  lattice — a uniform vector or a lattice of one-unit runs such as a
  transpose — vs the gather path and the frozen stack machine oracle;
* the hindexed gap-free-base vectorized span build vs the generic
  per-block tile/shift/coalesce loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.canonical import (
    PLAN_GATHER,
    PLAN_MEMCPY,
    PLAN_STRIDED2D,
    Lattice,
    stream_plan,
)
from repro.datatype.convertor import Convertor, pack_bytes
from repro.datatype.ddt import contiguous, hindexed, indexed, resized, vector
from repro.datatype.primitives import DOUBLE
from repro.datatype.typemap import Spans, coalesce, concat, tile
from repro.workloads.matrices import transpose_type
from tests.datatype.reference_stack import StackMachine, compile_datatype
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


@st.composite
def lattice_types(draw):
    """A random 2-D lattice of 8- or 16-byte elements as ``(dt, count)``:
    transposes, strides of either sign, a base displacement, and resized
    rows tiled ``count`` times."""
    base = contiguous(draw(st.sampled_from([1, 2])), DOUBLE).commit()
    w = base.extent
    if draw(st.booleans()):  # a transpose: n columns of n elements
        n = draw(st.integers(2, 24))
        col = resized(vector(n, 1, n, base), 0, w)
        return contiguous(n, col).commit(), 1
    tiled = draw(st.booleans())
    rows, per_row = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rs = w * draw(st.integers(1 if tiled else -30, 30))
    es = w * draw(st.integers(-12, 12))
    offs = [r * rs + c * es for r in range(rows) for c in range(per_row)]
    first = w * draw(st.integers(0, 3)) - min(offs)
    if tiled:  # one resized row, tiled ``rows`` times by the count
        row = hindexed([1] * per_row, [first + c * es for c in range(per_row)], base)
        return resized(row, 0, rs).commit(), rows
    return hindexed([1] * len(offs), [first + o for o in offs], base).commit(), 1


def _convertor(dt, count, user, direction, base, executor=None):
    conv = Convertor(dt, count, user, direction, base)
    if executor == "gather":
        conv._exec = Convertor._gather
    return conv


class TestLatticeFastPath:
    """Any 2-D lattice of one-unit elements, not only a vector, binds
    ``strided2d`` and moves exactly the gather's and the stack's bytes."""

    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    def test_transpose_binds_strided_without_gather_map(self, n, rng):
        dt = transpose_type(n)
        sp = stream_plan(dt, 1)
        assert sp.form.kind == "runs" and sp.gpu_plan == PLAN_GATHER
        assert sp.lattice == Lattice(n, n, 8, 8 * n, 0)
        user = buffer_for(dt, 1, rng)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_STRIDED2D
        packed = np.empty(dt.size, dtype=np.uint8)
        conv.pack(packed)
        matrix = user.view(np.uint64).reshape(n, n)
        assert np.array_equal(packed.view(np.uint64), matrix.T.ravel())
        back = np.zeros_like(user)
        conv = Convertor(dt, 1, back, "unpack")
        assert conv.plan == PLAN_STRIDED2D
        conv.unpack(packed)
        assert np.array_equal(back, user)
        assert sp._gather is None  # the gather map was never built

    def test_overlapping_lattice_does_not_bind(self):
        # two rows at the same address: an unpack would write bytes twice
        dt = hindexed([1] * 4, [0, 16, 0, 16], DOUBLE).commit()
        assert stream_plan(dt, 1).lattice is None
        assert stream_plan(dt, 1).cpu_plan == PLAN_GATHER

    @settings(max_examples=150, deadline=None)
    @given(case=lattice_types(), shift=st.integers(0, 3),
           short=st.integers(0, 2), data=st.data())
    def test_random_lattices_match_gather_and_stack(
        self, case, shift, short, data
    ):
        dt, count = case
        sp = stream_plan(dt, count)
        u, total = sp.unit, sp.form.size
        base = shift * u
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        full = rng.integers(0, 255, base + sp.true_ub, dtype=np.uint8)
        overlaps = sp.spans.overlaps_self()
        if sp.form.kind == "runs" and (sp.spans.lens == u).all():
            # built as a lattice: found unless two elements overlap
            assert (sp.lattice is None) == overlaps
            assert (sp.cpu_plan == PLAN_STRIDED2D) != overlaps
        want = np.empty(total, dtype=np.uint8)
        prog = compile_datatype(dt, count)
        StackMachine(prog, full, "pack", base).advance(want)
        cuts = data.draw(st.lists(st.integers(0, total // u), max_size=6))
        bounds = sorted({0, total, *(c * u for c in cuts)})
        frags = list(zip(bounds[:-1], bounds[1:]))
        data.draw(st.randoms()).shuffle(frags)
        user = full[: len(full) - short * u]
        if short:
            # only a short buffer's prefix of whole elements can move
            assert Convertor(dt, count, user, "pack", base).plan == PLAN_GATHER
            inside = (sp.gather_map() + shift + 1) * u <= len(user)
            k = int(np.argmin(inside)) * u
            with pytest.raises(IndexError):
                Convertor(dt, count, user, "pack", base).pack_range(
                    np.empty(u, dtype=np.uint8), k, k + u
                )
            frags = [(lo, min(hi, k)) for lo, hi in frags if lo < k]
        for executor in (None, "gather"):
            conv = _convertor(dt, count, user, "pack", base, executor)
            for lo, hi in frags:
                out = np.empty(hi - lo, dtype=np.uint8)
                conv.pack_range(out, lo, hi)
                assert np.array_equal(out, want[lo:hi]), (executor, lo, hi)
        if short or overlaps:
            return  # which duplicate an unpack keeps is the gather's choice
        stack = np.zeros_like(full)
        StackMachine(prog, stack, "unpack", base).advance(want)
        for executor in (None, "gather"):
            back = np.zeros_like(full)
            conv = _convertor(dt, count, back, "unpack", base, executor)
            for lo, hi in frags:
                conv.unpack_range(want[lo:hi], lo, hi)
            assert np.array_equal(back, stack), executor


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
