"""Regression: pack_range/unpack_range with a misaligned ``base_offset``.

Pre-fix, a ``base_offset`` that was not a multiple of the primitive unit
silently used the *unadjusted* gather index — random access returned
bytes from the wrong user offsets.  A misaligned base now binds the
gather at byte granularity: the unit map expanded to bytes and shifted
by the base, random-access in both directions, so fragments may arrive
in any order.  The frozen stack machine is the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datatype.convertor import Convertor
from repro.datatype.ddt import vector
from repro.datatype.primitives import DOUBLE
from tests.datatype.reference_stack import StackMachine, compile_datatype


@pytest.fixture
def dt():
    return vector(8, 4, 9, DOUBLE).commit()  # 256 packed bytes


def _oracle(dt, user, off):
    """Full sequential pack by the frozen stack machine."""
    want = np.empty(dt.size, dtype=np.uint8)
    StackMachine(compile_datatype(dt), user, "pack", off).advance(want)
    return want


@pytest.mark.parametrize("off", [3, 5])
def test_pack_range_misaligned_base(rng, off):
    dt = vector(8, 4, 9, DOUBLE).commit()
    user = rng.integers(0, 255, dt.extent + 16, dtype=np.uint8)
    want = _oracle(dt, user, off)

    conv = Convertor(dt, 1, user, "pack", base_offset=off)
    out = np.full(dt.size, 0xEE, dtype=np.uint8)
    # out of order: skip ahead, rewind, then skip ahead again
    conv.pack_range(out[64:128], 64, 128)
    conv.pack_range(out[0:64], 0, 64)
    conv.pack_range(out[128:256], 128, 256)
    assert np.array_equal(out, want)


def test_pack_range_misaligned_matches_aligned_semantics(rng, dt):
    """Aligned offsets keep taking the gather fast path, same answer."""
    user = rng.integers(0, 255, dt.extent + 16, dtype=np.uint8)
    aligned = Convertor(dt, 1, user, "pack", base_offset=8)
    misaligned = Convertor(dt, 1, user[5:], "pack", base_offset=3)
    a = np.empty(dt.size, dtype=np.uint8)
    b = np.empty(dt.size, dtype=np.uint8)
    aligned.pack_range(a, 0, dt.size)
    misaligned.pack_range(b, 0, dt.size)
    assert np.array_equal(a, b)


def test_unpack_range_misaligned_base_round_trips(rng, dt):
    user = rng.integers(0, 255, dt.extent + 16, dtype=np.uint8)
    off = 3
    want = _oracle(dt, user, off)

    target = np.zeros(dt.extent + 16, dtype=np.uint8)
    conv = Convertor(dt, 1, target, "unpack", base_offset=off)
    conv.unpack_range(want[0:64], 0, 64)
    conv.unpack_range(want[64:256], 64, 256)
    assert np.array_equal(_oracle(dt, target, off), want)


def test_unpack_range_misaligned_out_of_order_round_trips(rng, dt):
    user = rng.integers(0, 255, dt.extent + 16, dtype=np.uint8)
    want = _oracle(dt, user, 3)
    ref = np.zeros(dt.extent + 16, dtype=np.uint8)
    StackMachine(compile_datatype(dt), ref, "unpack", 3).advance(want)
    # skip-ahead: fragment 64..128 before 0..64, then a rewind over
    # bytes already delivered, then the rest
    target = np.zeros(dt.extent + 16, dtype=np.uint8)
    conv = Convertor(dt, 1, target, "unpack", base_offset=3)
    conv.unpack_range(want[64:128], 64, 128)
    conv.unpack_range(want[0:64], 0, 64)
    conv.unpack_range(want[32:64], 32, 64)
    conv.unpack_range(want[128:256], 128, 256)
    assert np.array_equal(target, ref)
