"""Tests for the canonical datatype IR and the compiled pack plans.

The contract under test: any two ways of building the same logical
layout canonicalize to the same key (so caches actually hit across
constructions), and every pack plan the cost model can select moves
exactly the same bytes as the frozen stack machine oracle
(``reference_stack.py``) and the typemap walk (``reference_pack``).
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
    PLAN_VECTOR_KERNEL,
    canonical_key,
    canonicalize,
    display_id,
    plan_cost,
    select_cpu_plan,
    select_gpu_plan,
    stream_plan,
)
from repro.datatype.convertor import Convertor, pack_bytes, unpack_bytes
from repro.datatype.ddt import (
    contiguous,
    hindexed,
    hvector,
    indexed,
    resized,
    struct,
    vector,
)
from repro.datatype.primitives import BYTE, DOUBLE, INT

from .reference_stack import StackMachine, compile_datatype
from .strategies import buffer_for, datatypes, reference_pack

S = 4096


def key1(dt):
    return canonical_key(dt, 1, S)


class TestEquivalentConstructions:
    """Same logical layout, different constructor trees -> same key."""

    def test_vector_hvector_hindexed_unify(self):
        c, bl, stride = 7, 3, 5
        v = vector(c, bl, stride, DOUBLE)
        hv = hvector(c, bl, stride * 8, DOUBLE)
        hi = hindexed([bl] * c, [i * stride * 8 for i in range(c)], DOUBLE)
        assert key1(v) == key1(hv) == key1(hi)
        assert canonicalize(v).kind == "vector"

    def test_contiguous_collapse(self):
        # stride == blocklength: the "vector" is really contiguous
        v = vector(6, 4, 4, DOUBLE)
        c = contiguous(24, DOUBLE)
        b = contiguous(192, BYTE)
        assert key1(v) == key1(c) == key1(b)
        assert canonicalize(v).kind == "contig"

    def test_indexed_run_merging(self):
        # touching indexed blocks coalesce into the same maximal runs
        a = indexed([2, 2, 3], [0, 2, 10], INT)
        b = indexed([4, 1, 2], [0, 10, 11], INT)
        assert key1(a) == key1(b)

    def test_struct_flattening(self):
        inner = vector(4, 2, 5, DOUBLE)
        wrapped = struct([1], [0], [inner])
        assert key1(wrapped) == key1(inner)

    def test_resized_and_dup_erased_at_count_1(self):
        base = vector(4, 2, 5, DOUBLE).commit()
        r = resized(base, base.lb, base.extent + 64)
        assert key1(r) == key1(base)
        assert key1(base.dup()) == key1(base)

    def test_resized_extent_matters_at_count_2(self):
        # at count > 1 the extent tiles the layout: keys must differ
        base = vector(4, 2, 5, DOUBLE).commit()
        r = resized(base, base.lb, base.extent + 64)
        assert canonical_key(base, 2, S) != canonical_key(r, 2, S)

    def test_count_folds_into_the_key(self):
        # contiguous(2, D) packed once == D packed twice
        assert canonical_key(contiguous(2, DOUBLE), 1, S) == canonical_key(
            contiguous(1, DOUBLE), 2, S
        )

    def test_unit_size_distinguishes_keys(self):
        dt = vector(4, 2, 5, DOUBLE)
        assert canonical_key(dt, 1, 1024) != canonical_key(dt, 1, 4096)

    def test_different_layouts_different_keys(self):
        assert key1(vector(4, 2, 5, DOUBLE)) != key1(vector(4, 2, 6, DOUBLE))
        assert key1(indexed([1, 2], [0, 4], INT)) != key1(
            indexed([2, 1], [0, 4], INT)
        )

    @given(dt=datatypes(), pad=st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_dup_and_same_extent_resize_share_keys(self, dt, pad):
        assert key1(dt.dup()) == key1(dt)
        r = resized(dt, dt.lb, dt.extent + pad)
        assert key1(r) == key1(dt)


class TestDisplayId:
    def test_structural_not_positional(self):
        a = vector(5, 2, 7, DOUBLE).commit()
        b = hvector(5, 2, 56, DOUBLE).commit()  # same layout, built later
        assert a.display_id == b.display_id == display_id(a)
        assert a.display_id != contiguous(10, DOUBLE).commit().display_id

    def test_uncommitted_has_placeholder(self):
        assert display_id(vector(5, 2, 7, DOUBLE)) == "uncommitted"

    def test_repr_uses_display_id(self):
        dt = vector(5, 2, 7, DOUBLE).commit()
        assert dt.display_id in repr(dt)


class TestPlanSelection:
    def test_contig_aligned_is_memcpy(self):
        form = canonicalize(contiguous(32, DOUBLE))
        assert select_cpu_plan(form, 8) == PLAN_MEMCPY
        assert select_gpu_plan(form) == PLAN_MEMCPY

    def test_vector_aligned_is_strided(self):
        form = canonicalize(vector(8, 4, 6, DOUBLE))
        assert select_cpu_plan(form, 8) == PLAN_STRIDED2D
        assert select_gpu_plan(form) == PLAN_VECTOR_KERNEL

    def test_vector_misaligned_for_unit_falls_back(self):
        # 12-byte blocks cannot be walked in 8-byte elements
        form = canonicalize(hvector(8, 12, 24, BYTE))
        assert select_cpu_plan(form, 8) == PLAN_GATHER

    def test_irregular_is_gather(self):
        form = canonicalize(indexed([1, 2, 1], [0, 3, 9], DOUBLE))
        assert form.kind == "runs"
        assert select_cpu_plan(form, 8) == PLAN_GATHER
        assert select_gpu_plan(form) == PLAN_GATHER

    def test_misaligned_base_binds_byte_gather(self):
        dt = contiguous(32, DOUBLE).commit()
        assert stream_plan(dt, 1).cpu_plan == PLAN_MEMCPY
        user = np.arange(4 + dt.size, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack", base_offset=4)
        assert conv.plan == PLAN_GATHER
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, user[4:])

    def test_force_dev_pins_gather(self):
        form = canonicalize(vector(8, 4, 6, DOUBLE))
        assert select_gpu_plan(form, force_dev=True) == PLAN_GATHER

    def test_cost_ordering_sane(self):
        form = canonicalize(contiguous(32, DOUBLE))
        assert (
            plan_cost(form, PLAN_MEMCPY)
            < plan_cost(form, PLAN_STRIDED2D)
            < plan_cost(form, PLAN_GATHER)
        )


class TestPlanEquivalence:
    """Every selected plan moves exactly the stack machine's bytes."""

    CASES = [
        ("contig", lambda: contiguous(100, DOUBLE)),
        ("vector", lambda: vector(9, 3, 7, DOUBLE)),
        ("hvector-odd", lambda: hvector(5, 3, 29, BYTE)),
        ("runs", lambda: indexed([1, 3, 2], [0, 5, 20], DOUBLE)),
        ("struct", lambda: struct([2, 1], [0, 48], [INT, DOUBLE])),
    ]

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("count", [1, 3])
    def test_pack_matches_oracle_and_stack(self, name, make, count):
        dt = make().commit()
        rng = np.random.default_rng(17)
        user = buffer_for(dt, count, rng)
        oracle = reference_pack(dt, count, user)

        packed = pack_bytes(dt, count, user)
        assert np.array_equal(packed, oracle)

        # the stack machine, compiled from the constructor tree
        assert np.array_equal(self.stack_pack(dt, count, user), oracle)

        # unpack roundtrip restores the layout bytes
        blank = np.zeros_like(user)
        unpack_bytes(dt, count, blank, packed)
        mask = np.zeros(len(user), dtype=bool)
        for d, l in dt.spans_for_count(count).iter_pairs():
            mask[d : d + l] = True
        assert np.array_equal(blank[mask], user[mask])
        assert not blank[~mask].any()

    @given(dt=datatypes(), count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_property_pack_matches_oracle(self, dt, count):
        rng = np.random.default_rng(3)
        user = buffer_for(dt, count, rng)
        assert np.array_equal(
            pack_bytes(dt, count, user), reference_pack(dt, count, user)
        )

    @staticmethod
    def stack_pack(dt, count, user, base_offset=0):
        out = np.empty(dt.size * count, dtype=np.uint8)
        prog = compile_datatype(dt, count)
        StackMachine(prog, user, "pack", base_offset).advance(out)
        return out

    @staticmethod
    def stack_unpack(dt, count, packed, size, base_offset=0):
        user = np.zeros(size, dtype=np.uint8)
        prog = compile_datatype(dt, count)
        StackMachine(prog, user, "unpack", base_offset).advance(packed)
        return user

    def check_plan(self, dt, count, user, plan, base_offset=0):
        """``plan`` is selected and packs/unpacks the stack machine's bytes."""
        conv = Convertor(dt, count, user, "pack", base_offset)
        assert conv.plan == plan
        want = self.stack_pack(dt, count, user, base_offset)
        out = np.empty(conv.total_bytes, dtype=np.uint8)
        conv.pack_range(out, 0, conv.total_bytes)
        assert np.array_equal(out, want)
        back = np.zeros_like(user)
        conv = Convertor(dt, count, back, "unpack", base_offset)
        assert conv.plan == plan
        conv.unpack(want)
        assert np.array_equal(
            back, self.stack_unpack(dt, count, want, len(user), base_offset)
        )

    @pytest.mark.parametrize("base_offset", [0, 8, 40])
    def test_memcpy_with_first_disp_and_base_offset(self, base_offset):
        dt = struct([5], [24], [DOUBLE]).commit()  # one block at byte 24
        assert canonicalize(dt).first_disp == 24
        user = np.random.default_rng(1).integers(
            0, 255, base_offset + 24 + dt.size, dtype=np.uint8
        )
        self.check_plan(dt, 1, user, PLAN_MEMCPY, base_offset)
        packed = pack_bytes(dt, 1, user[base_offset:])
        assert np.array_equal(
            packed, user[base_offset + 24 : base_offset + 24 + dt.size]
        )

    @pytest.mark.parametrize("extent,unit", [(107, 1), (106, 2), (108, 4), (104, 8)])
    @pytest.mark.parametrize("count", [2, 3])
    def test_resized_odd_extent_unit(self, extent, unit, count):
        # the stream unit folds the element extent in with a gcd
        dt = resized(vector(3, 2, 4, DOUBLE), 0, extent).commit()
        assert dt.granularity() == 16
        assert stream_plan(dt, count).unit == unit
        user = buffer_for(dt, count, np.random.default_rng(count))
        oracle = reference_pack(dt, count, user)
        assert np.array_equal(pack_bytes(dt, count, user), oracle)
        self.check_plan(dt, count, user, stream_plan(dt, count).cpu_plan)

    def test_short_buffer_strided_falls_back_to_gather(self):
        dt = vector(4, 2, 8, DOUBLE).commit()
        full = buffer_for(dt, 1, np.random.default_rng(2))
        want = reference_pack(dt, 1, full)
        user = full[: 2 * 64 + 16].copy()  # covers the first three blocks
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_GATHER
        out = np.empty(48, dtype=np.uint8)
        conv.pack_range(out, 0, 48)
        assert np.array_equal(out, want[:48])
        with pytest.raises(IndexError):
            conv.pack_range(np.empty(16, dtype=np.uint8), 48, 64)
        back = np.zeros_like(user)
        conv = Convertor(dt, 1, back, "unpack")
        assert conv.plan == PLAN_GATHER
        conv.unpack_range(want[:48], 0, 48)
        ref = self.stack_unpack(dt, 1, want[:48], len(user))
        assert np.array_equal(back, ref)

    @given(
        dt=datatypes(),
        count=st.integers(1, 3),
        cuts=st.lists(st.integers(0, 1 << 16), max_size=8),
        data=st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_fragment_ranges_both_directions(self, dt, count, cuts, data):
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = buffer_for(dt, count, rng)
        want = self.stack_pack(dt, count, user)
        u = stream_plan(dt, count).unit
        total = len(want)
        bounds = sorted({0, total, *(c % (total + 1) // u * u for c in cuts)})
        frags = list(zip(bounds[:-1], bounds[1:])) + [(total, total)]
        data.shuffle(frags)
        conv = Convertor(dt, count, user, "pack")
        for lo, hi in frags:
            out = np.empty(hi - lo, dtype=np.uint8)
            conv.pack_range(out, lo, hi)
            assert np.array_equal(out, want[lo:hi]), (conv.plan, lo, hi)
        back = np.zeros_like(user)
        conv = Convertor(dt, count, back, "unpack")
        for lo, hi in frags:
            conv.unpack_range(want[lo:hi], lo, hi)
        assert np.array_equal(
            back, self.stack_unpack(dt, count, want, len(user))
        )

    @given(
        dt=datatypes(),
        count=st.integers(1, 3),
        base=st.integers(0, 15),
        cuts=st.lists(st.integers(0, 1 << 16), max_size=8),
        data=st.randoms(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_base_and_cut_match_both_oracles(
        self, dt, count, base, cuts, data
    ):
        """At any base offset, streaming cuts anywhere (off the unit too)
        and unit-aligned ranges in shuffled order pack and unpack exactly
        the bytes of both oracles."""
        rng = np.random.default_rng(data.randint(0, 2**31))
        user = np.concatenate([
            rng.integers(0, 255, base, dtype=np.uint8),
            buffer_for(dt, count, rng),
        ])
        want = reference_pack(dt, count, user[base:])
        assert np.array_equal(self.stack_pack(dt, count, user, base), want)
        total, u = len(want), stream_plan(dt, count).unit
        cut = sorted({0, total, *(c % (total + 1) for c in cuts)})
        stream = list(zip(cut[:-1], cut[1:]))
        cut = sorted({0, total, *(c % (total + 1) // u * u for c in cuts)})
        ranges = list(zip(cut[:-1], cut[1:])) + [(total, total)]
        data.shuffle(ranges)
        conv = Convertor(dt, count, user, "pack", base)
        for lo, hi in stream:
            out = np.empty(hi - lo, dtype=np.uint8)
            assert conv.pack(out) == hi - lo
            assert np.array_equal(out, want[lo:hi]), (conv.plan, lo, hi)
        conv = Convertor(dt, count, user, "pack", base)
        for lo, hi in ranges:
            out = np.empty(hi - lo, dtype=np.uint8)
            conv.pack_range(out, lo, hi)
            assert np.array_equal(out, want[lo:hi]), (conv.plan, lo, hi)
        # unpacked: the stream where the typemap says, zeros elsewhere
        ref = self.stack_unpack(dt, count, want, len(user), base)
        assert np.array_equal(reference_pack(dt, count, ref[base:]), want)
        mask = np.zeros(len(user), dtype=bool)
        for d, n in dt.spans_for_count(count).iter_pairs():
            mask[base + d : base + d + n] = True
        assert not ref[~mask].any()
        back = np.zeros_like(user)
        conv = Convertor(dt, count, back, "unpack", base)
        for lo, hi in stream:
            assert conv.unpack(want[lo:hi]) == hi - lo
        assert np.array_equal(back, ref)
        back = np.zeros_like(user)
        conv = Convertor(dt, count, back, "unpack", base)
        for lo, hi in ranges:
            conv.unpack_range(want[lo:hi], lo, hi)
        assert np.array_equal(back, ref)


class TestDevCacheReuse:
    def test_second_construction_hits(self, gpu):
        from repro.gpu_engine.cache import DevCache

        cache = DevCache(gpu)
        c, bl, stride = 6, 2, 9
        units = cache.put(vector(c, bl, stride, DOUBLE), 1, S)
        # an equivalent type built a *different* way still hits
        hi = hindexed([bl * 8] * c, [i * stride * 8 for i in range(c)], BYTE)
        assert cache.get(hi, 1, S) is units
        assert cache.hits == 1 and cache.misses == 0


class TestStreamPlanCache:
    """After one message on a (datatype, count), binding the same pair to a
    buffer again re-derives nothing from the span list."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: indexed([3, 1, 2], [0, 5, 9], DOUBLE),  # gather / DEV path
            lambda: vector(6, 2, 5, DOUBLE),  # strided / vector kernel
        ],
        ids=["runs", "vector"],
    )
    def test_no_layout_work_per_message(self, monkeypatch, make):
        from repro.datatype import ddt, typemap
        from repro.hw.node import Cluster
        from repro.mpi.config import MpiConfig
        from repro.mpi.proc import MpiProcess
        from repro.mpi.protocols.common import CpuSideJob

        dt, count = make().commit(), 2
        cluster = Cluster(1, 1)
        node = cluster.nodes[0]
        proc = MpiProcess(0, node, node.gpus[0], MpiConfig())
        size = dt.extent * count
        dev = proc.ctx.malloc(size)
        host = node.host_memory.alloc(size)
        out = np.empty(dt.size * count, dtype=np.uint8)

        def message():
            conv = Convertor(dt, count, np.zeros(size, np.uint8), "pack")
            conv.pack(out)
            job = proc.engine.pack_job(dt, count, dev)
            job.convertor.pack_range(out, 0, len(out))
            if job.units is not None:
                job.prep_time(job.units.count)
            cpu = CpuSideJob(proc, dt, count, host, "pack")
            cpu.convertor.pack_range(out, 0, len(out))

        message()  # warm-up: compiles the plan, fills the DevCache
        calls = dict.fromkeys(
            ["tile", "coalesce", "spans_for_count", "granularity"], 0
        )

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for mod in (typemap, ddt):
            monkeypatch.setattr(mod, "tile", counting("tile", mod.tile))
            monkeypatch.setattr(mod, "coalesce", counting("coalesce", mod.coalesce))
        for name in ("spans_for_count", "granularity"):
            monkeypatch.setattr(
                ddt.Datatype, name, counting(name, getattr(ddt.Datatype, name))
            )
        message()
        assert calls == dict.fromkeys(calls, 0)
        assert proc.engine.cache.hits == 1
