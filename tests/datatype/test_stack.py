"""Tests for the frozen stack machine oracle (the Open MPI state machine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous, hindexed, struct, vector
from repro.datatype.primitives import DOUBLE, INT
from tests.datatype.reference_stack import (
    ElemDesc,
    LoopDesc,
    StackMachine,
    compile_datatype,
)
from tests.datatype.strategies import buffer_for, datatypes, reference_pack


class TestCompilation:
    def test_primitive_is_single_elem(self):
        prog = compile_datatype(contiguous(1, DOUBLE))
        assert prog == [ElemDesc(1, 8, 8, 0)]

    def test_contiguous_folds(self):
        prog = compile_datatype(contiguous(10, DOUBLE))
        assert prog == [ElemDesc(1, 80, 80, 0)]

    def test_vector_folds_to_one_elem(self):
        prog = compile_datatype(vector(5, 3, 7, DOUBLE))
        assert prog == [ElemDesc(5, 24, 56, 0)]

    def test_send_count_wraps_in_loop(self):
        prog = compile_datatype(vector(5, 3, 7, DOUBLE), count=2)
        assert isinstance(prog[0], (LoopDesc, ElemDesc))
        # either a loop over the vector or a folded elem run
        total_elems = sum(1 for d in prog if isinstance(d, ElemDesc))
        assert total_elems >= 1

    def test_hindexed_one_desc_per_block(self):
        prog = compile_datatype(hindexed([2, 3], [0, 100], DOUBLE))
        elems = [d for d in prog if isinstance(d, ElemDesc)]
        assert len(elems) == 2
        assert elems[1].disp == 100


class TestExecution:
    def test_matches_fast_path_on_vector(self, rng):
        dt = vector(6, 2, 5, DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        sm = StackMachine(compile_datatype(dt), user, "pack")
        out = np.empty(dt.size, dtype=np.uint8)
        assert sm.advance(out) == dt.size
        assert sm.finished
        assert np.array_equal(out, pack_bytes(dt, 1, user))

    def test_resume_at_every_boundary(self, rng):
        dt = struct([2, 3], [0, 40], [INT, DOUBLE]).commit()
        user = rng.integers(0, 255, 80, dtype=np.uint8)
        want = pack_bytes(dt, 1, user)
        for cut in range(1, dt.size):
            sm = StackMachine(compile_datatype(dt), user, "pack")
            a = np.empty(cut, dtype=np.uint8)
            b = np.empty(dt.size - cut, dtype=np.uint8)
            assert sm.advance(a) == cut
            assert not sm.finished
            assert sm.advance(b) == dt.size - cut
            assert sm.finished
            assert np.array_equal(np.concatenate([a, b]), want)

    def test_unpack_direction(self, rng):
        dt = vector(4, 2, 6, DOUBLE).commit()
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        packed = pack_bytes(dt, 1, user)
        out = np.zeros(dt.extent, dtype=np.uint8)
        sm = StackMachine(compile_datatype(dt), out, "unpack")
        sm.advance(packed)
        assert np.array_equal(pack_bytes(dt, 1, out), packed)

    def test_empty_program_finished_immediately(self):
        sm = StackMachine([], np.zeros(0, np.uint8))
        assert sm.finished
        assert sm.advance(np.empty(10, np.uint8)) == 0

    def test_bytes_done_accumulates(self, rng):
        dt = contiguous(10, DOUBLE).commit()
        user = rng.integers(0, 255, 80, dtype=np.uint8)
        sm = StackMachine(compile_datatype(dt), user, "pack")
        sm.advance(np.empty(30, np.uint8))
        assert sm.bytes_done == 30

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            StackMachine([], np.zeros(0, np.uint8), "sideways")


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(dt=datatypes(), count=st.integers(1, 3), data=st.randoms())
    def test_stack_machine_equals_reference(self, dt, count, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, count, rng)
        want = reference_pack(dt, count, user)
        sm = StackMachine(compile_datatype(dt, count), user, "pack")
        out = np.empty(len(want), dtype=np.uint8)
        got = sm.advance(out)
        assert got == len(want)
        assert sm.finished
        assert np.array_equal(out, want)

    @settings(max_examples=40, deadline=None)
    @given(dt=datatypes(), data=st.randoms())
    def test_random_fragmentation_equals_whole(self, dt, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, 1, rng)
        want = reference_pack(dt, 1, user)
        sm = StackMachine(compile_datatype(dt, 1), user, "pack")
        chunks = []
        while not sm.finished:
            n = rng.integers(1, 37)
            buf = np.empty(n, dtype=np.uint8)
            got = sm.advance(buf)
            chunks.append(buf[:got])
            if got == 0:
                break
        assert np.array_equal(np.concatenate(chunks), want)
