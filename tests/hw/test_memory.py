"""Tests for simulated memory arenas and buffer handles."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.hw.memory import Buffer, Memory, MemoryKind, OutOfMemory


@pytest.fixture
def mem() -> Memory:
    return Memory("test", 1 << 20, MemoryKind.DEVICE)


class TestAllocation:
    def test_alloc_and_use(self, mem):
        buf = mem.alloc(100)
        assert buf.nbytes == 100
        buf.fill(7)
        assert (buf.bytes == 7).all()

    def test_alignment_rounding(self, mem):
        mem.alloc(1)
        assert mem.bytes_in_use == Memory.ALIGNMENT

    def test_oom(self, mem):
        mem.alloc(1 << 19)
        mem.alloc(1 << 19)
        with pytest.raises(OutOfMemory):
            mem.alloc(1)

    def test_free_returns_capacity(self, mem):
        buf = mem.alloc(1 << 19)
        buf.free()
        assert mem.bytes_in_use == 0
        mem.alloc(1 << 20)  # whole capacity available again

    def test_double_free_rejected(self, mem):
        buf = mem.alloc(64)
        buf.free()
        with pytest.raises(ValueError):
            buf.free()

    def test_use_after_free_rejected(self, mem):
        buf = mem.alloc(64)
        buf.free()
        with pytest.raises(ValueError, match="use after free"):
            _ = buf.bytes
        # under REPRO_SANITIZE the memory sanitizer records the same
        # event; assert it did, then scrub the intentional violation so
        # the session-level zero-violation check stays meaningful
        from repro import sanitize
        from repro.sanitize import runtime as _san

        if _san.MEM is not None:
            rep = sanitize.report()
            assert any(
                v.code == "mem.use_after_free" for v in rep.violations
            )
            rep.violations[:] = [
                v for v in rep.violations if v.code != "mem.use_after_free"
            ]

    def test_zero_alloc_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(0)

    def test_odd_size_alloc_free_balances(self, mem):
        # in-use accounting charges and refunds the same rounded size:
        # an odd-sized allocation must return the arena to exactly zero
        buf = mem.alloc(1000)  # not a multiple of ALIGNMENT
        rounded = -(-1000 // Memory.ALIGNMENT) * Memory.ALIGNMENT
        assert mem.bytes_in_use == rounded
        buf.free()
        assert mem.bytes_in_use == 0

    def test_subbuffer_free_rejected(self, mem):
        buf = mem.alloc(256)
        sub = buf[0:64]
        with pytest.raises(ValueError, match="sub-buffer"):
            sub.free()
        # the allocation is still live and fully usable
        buf.fill(3)
        assert (sub.bytes == 3).all()
        buf.free()
        assert mem.bytes_in_use == 0

    def test_peak_tracking(self, mem):
        a = mem.alloc(1024)
        b = mem.alloc(1024)
        a.free()
        b.free()
        assert mem.peak_bytes_in_use == 2048
        assert mem.bytes_in_use == 0

    def test_kind_predicates(self):
        dev = Memory("d", 1024, MemoryKind.DEVICE)
        host = Memory("h", 1024, MemoryKind.HOST)
        assert dev.alloc(16).is_device and not dev.alloc(16).is_host
        assert host.alloc(16).is_host and not host.alloc(16).is_device


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


needs_statm = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)


class TestSparseAllocations:
    """A sparse buffer of 4 MiB or more is mapped without NumPy's
    huge-page advice, so it is resident by the pages touched, not in
    whole 2 MiB pages."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("nbytes", [(4 << 20) - 256, 4 << 20, 5 << 20])
    def test_zeroed_writable_bytes(self, nbytes, sparse):
        buf = Memory("big", 64 << 20, MemoryKind.HOST).alloc(nbytes, sparse=sparse)
        data = buf.bytes
        assert (data.dtype, data.size, data.any()) == (np.uint8, nbytes, False)
        buf[nbytes - 8 :].fill(7)
        assert buf.bytes[-8:].tolist() == [7] * 8

    @needs_statm
    def test_resident_memory_follows_touched_pages(self):
        buf = Memory("big", 128 << 20, MemoryKind.DEVICE).alloc(64 << 20, sparse=True)
        before = _resident_bytes()
        # one byte in each 2 MiB stretch, written to the storage itself
        # (.bytes would also mark sanitizer shadow)
        buf.allocation.data[:: 2 << 20] = 1
        assert _resident_bytes() - before < 16 << 20


class TestBuffer:
    def test_slicing_aliases_bytes(self, mem):
        buf = mem.alloc(256)
        buf.fill(0)
        sub = buf[16:32]
        sub.fill(9)
        assert (buf.bytes[16:32] == 9).all()
        assert (buf.bytes[:16] == 0).all()

    def test_slice_of_slice(self, mem):
        buf = mem.alloc(256)
        sub = buf[100:200][10:20]
        assert sub.offset == buf.offset + 110
        assert sub.nbytes == 10

    def test_step_slices_rejected(self, mem):
        with pytest.raises(TypeError):
            _ = mem.alloc(64)[::2]

    def test_view_roundtrip(self, mem, rng):
        buf = mem.alloc(800)
        data = rng.random(100)
        buf.write(data)
        assert np.array_equal(buf.view("f8")[:100], data)

    def test_view_size_mismatch_rejected(self, mem):
        buf = mem.alloc(10)
        with pytest.raises(ValueError):
            buf.view("f8")

    def test_write_overrun_rejected(self, mem):
        buf = mem.alloc(8)
        with pytest.raises(ValueError):
            buf.write(np.zeros(2, dtype="f8"))

    def test_read_copies(self, mem):
        buf = mem.alloc(64)
        buf.write(np.arange(8, dtype="f8"))
        out = buf.read("f8", 8)
        buf.fill(0)
        assert np.array_equal(out, np.arange(8))

    def test_split_covers_buffer(self, mem):
        buf = mem.alloc(100)
        parts = list(buf.split(30))
        assert [p.nbytes for p in parts] == [30, 30, 30, 10]
        assert parts[0].offset == buf.offset
        assert parts[-1].offset == buf.offset + 90

    def test_out_of_range_construction_rejected(self, mem):
        buf = mem.alloc(64)
        with pytest.raises(ValueError):
            Buffer(buf.allocation, 0, buf.allocation.nbytes + 1)

    def test_len(self, mem):
        assert len(mem.alloc(33)) == 33
