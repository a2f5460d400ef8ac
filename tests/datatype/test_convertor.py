"""Tests for the gather fast-path convertor and its oracle equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.convertor import Convertor, gather_indices, pack_bytes
from repro.datatype.ddt import contiguous, indexed, struct, vector
from repro.datatype.primitives import BYTE, CHAR, DOUBLE, INT
from tests.datatype.strategies import buffer_for, datatypes, reference_pack


class TestGatherIndices:
    def test_cached_per_datatype(self):
        dt = vector(4, 2, 5, DOUBLE).commit()
        idx1, u1 = gather_indices(dt, 1)
        idx2, u2 = gather_indices(dt, 1)
        assert idx1 is idx2 and u1 == u2

    def test_granularity_for_doubles(self):
        assert vector(4, 2, 5, DOUBLE).commit().granularity() == 8

    def test_granularity_for_bytes(self):
        assert indexed([1, 2], [0, 3], BYTE).commit().granularity() == 1

    def test_indices_cover_size(self):
        dt = indexed([3, 1, 2], [0, 4, 8], DOUBLE).commit()
        idx, u = gather_indices(dt, 2)
        assert len(idx) * u == dt.size * 2


class TestStreamingApi:
    def test_incremental_pack_equals_oneshot(self, rng):
        dt = vector(8, 4, 9, DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        want = pack_bytes(dt, 1, user)
        conv = Convertor(dt, 1, user, "pack")
        chunks = []
        while not conv.done:
            buf = np.empty(48, dtype=np.uint8)  # multiple of granularity
            n = conv.pack(buf)
            chunks.append(buf[:n])
        assert np.array_equal(np.concatenate(chunks), want)

    def test_misaligned_chunks_move_bytewise(self, rng):
        """Cuts off the 8-byte unit run those ranges through the byte gather."""
        dt = vector(8, 4, 9, DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        want = pack_bytes(dt, 1, user)
        conv = Convertor(dt, 1, user, "pack")
        chunks = []
        sizes = [13, 7, 100, 3]
        i = 0
        while not conv.done:
            buf = np.empty(sizes[i % 4], dtype=np.uint8)
            i += 1
            n = conv.pack(buf)
            chunks.append(buf[:n])
        assert np.array_equal(np.concatenate(chunks), want)

    def test_pack_range_random_access(self, rng):
        dt = vector(8, 4, 9, DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        want = pack_bytes(dt, 1, user)
        conv = Convertor(dt, 1, user, "pack")
        out = np.empty(64, dtype=np.uint8)
        conv.pack_range(out, 64, 128)
        assert np.array_equal(out, want[64:128])

    def test_pack_range_alignment_enforced(self, rng):
        dt = vector(8, 4, 9, DOUBLE).commit()
        user = np.zeros(dt.extent, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack")
        with pytest.raises(ValueError):
            conv.pack_range(np.empty(3, np.uint8), 1, 4)

    def test_unpack_range(self, rng):
        dt = indexed([2, 3], [0, 4], DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        want = pack_bytes(dt, 1, user)
        out = np.zeros(dt.extent, dtype=np.uint8)
        conv = Convertor(dt, 1, out, "unpack")
        conv.unpack_range(want[:16], 0, 16)
        conv.unpack_range(want[16:], 16, dt.size)
        assert np.array_equal(pack_bytes(dt, 1, out), want)

    def test_direction_misuse_rejected(self, rng):
        dt = contiguous(4, DOUBLE).commit()
        user = np.zeros(32, dtype=np.uint8)
        with pytest.raises(RuntimeError):
            Convertor(dt, 1, user, "pack").unpack(user)
        with pytest.raises(RuntimeError):
            Convertor(dt, 1, user, "unpack").pack(user)

    def test_base_offset(self, rng):
        dt = contiguous(4, DOUBLE).commit()
        user = rng.integers(0, 255, 64, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack", base_offset=16)
        out = np.empty(32, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, user[16:48])

    def test_negative_reach_rejected(self):
        dt = struct([1], [-8], [DOUBLE]).commit()
        with pytest.raises(ValueError):
            Convertor(dt, 1, np.zeros(64, np.uint8), "pack", base_offset=0)

    def test_negative_reach_ok_with_offset(self, rng):
        dt = struct([1], [-8], [DOUBLE]).commit()
        user = rng.integers(0, 255, 64, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack", base_offset=16)
        out = np.empty(8, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, user[8:16])


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(dt=datatypes(), count=st.integers(1, 3), data=st.randoms())
    def test_fast_path_equals_reference(self, dt, count, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, count, rng)
        assert np.array_equal(
            pack_bytes(dt, count, user), reference_pack(dt, count, user)
        )

    @settings(max_examples=50, deadline=None)
    @given(dt=datatypes(), data=st.randoms())
    def test_roundtrip_restores_described_bytes(self, dt, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        packed = pack_bytes(dt, 1, user)
        out = np.zeros_like(user)
        conv = Convertor(dt, 1, out, "unpack")
        conv.unpack(packed)
        assert np.array_equal(pack_bytes(dt, 1, out), packed)

    @settings(max_examples=40, deadline=None)
    @given(dt=datatypes(), frag=st.integers(1, 64), data=st.randoms())
    def test_aligned_fragment_concat_equals_whole(self, dt, frag, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        want = reference_pack(dt, 1, user)
        g = dt.granularity()
        frag_bytes = max(1, frag) * g
        conv = Convertor(dt, 1, user, "pack")
        chunks = []
        while not conv.done:
            buf = np.empty(frag_bytes, dtype=np.uint8)
            n = conv.pack(buf)
            chunks.append(buf[:n])
        assert np.array_equal(np.concatenate(chunks), want)
