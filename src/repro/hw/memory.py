"""Byte-addressable simulated memories and buffer handles.

A :class:`Memory` is a named arena with *logical* capacity bookkeeping
(allocations fail when the device would be out of memory) whose storage is
materialized lazily: each allocation owns a NumPy ``uint8`` array, so a
12 GB simulated GPU costs nothing until buffers are actually allocated.

A :class:`Buffer` is a (allocation, offset, size) handle — the moral
equivalent of a device pointer, supporting pointer arithmetic via slicing.
All data movement in the package ultimately reads/writes :class:`Buffer`
contents, which keeps the reproduction honest: a protocol bug shows up as
wrong bytes on the receiver, not just a wrong simulated time.
"""

from __future__ import annotations

import enum
import itertools
import mmap
from typing import Iterator, Optional

import numpy as np

from repro.sanitize import runtime as _san

__all__ = [
    "MemoryKind", "OutOfMemory", "Memory", "Allocation", "Buffer",
    "require_buffers",
]


class MemoryKind(enum.Enum):
    """Where a buffer physically lives (drives protocol selection)."""

    HOST = "host"
    HOST_PINNED = "host_pinned"
    DEVICE = "device"
    MANAGED = "managed"

    @property
    def is_device(self) -> bool:
        return self is MemoryKind.DEVICE

    @property
    def is_host(self) -> bool:
        return self in (MemoryKind.HOST, MemoryKind.HOST_PINNED)


_HOST_KINDS = (MemoryKind.HOST, MemoryKind.HOST_PINNED)


class OutOfMemory(MemoryError):
    """Raised when an arena cannot satisfy an allocation."""


_alloc_ids = itertools.count()

#: NumPy advises transparent huge pages for arrays of this size and more.
#: A sparse allocation this large is mapped directly, without that
#: advice: a staging ring of ``depth`` x 1 MiB slots that a small message
#: only partly uses would otherwise be resident in whole 2 MiB pages, as
#: many as the mapping's chance alignment allows, and peak memory would
#: follow address-space layout rather than the bytes touched.
_HUGE_PAGE_ADVICE = 1 << 22


class Allocation:
    """One materialized block inside a :class:`Memory`."""

    __slots__ = (
        "memory",
        "alloc_id",
        "nbytes",
        "requested_nbytes",
        "data",
        "freed",
        "label",
    )

    def __init__(
        self,
        memory: "Memory",
        nbytes: int,
        label: str = "",
        requested_nbytes: Optional[int] = None,
        sparse: bool = False,
    ) -> None:
        self.memory = memory
        self.alloc_id = next(_alloc_ids)
        #: the *rounded* size — in-use accounting charges and refunds this
        #: field on both sides, so alignment slack can never leak
        self.nbytes = nbytes
        #: the caller-requested (pre-rounding) size; bytes beyond it are
        #: the alignment redzone
        self.requested_nbytes = nbytes if requested_nbytes is None else requested_nbytes
        #: zero bytes, resident once touched
        self.data = (
            np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)
            if sparse and nbytes >= _HUGE_PAGE_ADVICE
            else np.zeros(nbytes, dtype=np.uint8)
        )
        self.freed = False
        self.label = label

    def __repr__(self) -> str:
        return f"Allocation(#{self.alloc_id}, {self.nbytes}B in {self.memory.name})"


class Memory:
    """A fixed-capacity arena; allocations are lazily materialized."""

    #: allocation granularity — mimics CUDA's 256-byte alignment guarantee
    ALIGNMENT = 256

    def __init__(
        self,
        name: str,
        capacity: int,
        kind: MemoryKind,
        owner: Optional[object] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"memory {name!r}: capacity must be positive")
        self.name = name
        self.capacity = int(capacity)
        self.kind = kind
        self.owner = owner  # the Gpu or Node this arena belongs to
        self.bytes_in_use = 0
        self.peak_bytes_in_use = 0
        self.live_allocations = 0

    def alloc(self, nbytes: int, label: str = "", sparse: bool = False) -> "Buffer":
        """Allocate ``nbytes`` (rounded up to the arena alignment).

        ``sparse`` marks a buffer its user may touch only in part, as a
        pooled staging ring sized for the largest transfer is.
        """
        if nbytes <= 0:
            raise ValueError(f"memory {self.name!r}: allocation must be positive")
        rounded = -(-nbytes // self.ALIGNMENT) * self.ALIGNMENT
        if self.bytes_in_use + rounded > self.capacity:
            raise OutOfMemory(
                f"memory {self.name!r}: cannot allocate {nbytes} bytes "
                f"({self.bytes_in_use}/{self.capacity} in use)"
            )
        self.bytes_in_use += rounded
        self.peak_bytes_in_use = max(self.peak_bytes_in_use, self.bytes_in_use)
        self.live_allocations += 1
        allocation = Allocation(
            self, rounded, label=label, requested_nbytes=nbytes, sparse=sparse
        )
        if _san.MEM is not None:
            _san.MEM.on_alloc(allocation)
        return Buffer(allocation, 0, nbytes, label=label)

    def free(self, allocation: Allocation) -> None:
        """Return an allocation's bytes to the arena (double-free checked)."""
        if allocation.memory is not self:
            raise ValueError(f"allocation {allocation!r} not from {self.name!r}")
        if allocation.freed:
            raise ValueError(f"double free of {allocation!r}")
        allocation.freed = True
        self.bytes_in_use -= allocation.nbytes
        self.live_allocations -= 1
        if _san.MEM is not None:
            _san.MEM.on_free(allocation)

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_in_use

    def __repr__(self) -> str:
        return (
            f"Memory({self.name!r}, kind={self.kind.value}, "
            f"{self.bytes_in_use}/{self.capacity}B used)"
        )


class Buffer:
    """A handle to a contiguous byte range inside an :class:`Allocation`.

    Supports pointer arithmetic via slicing: ``buf[16:32]`` is a sub-buffer
    aliasing the same bytes (no copy), like ``ptr + 16``.
    """

    __slots__ = ("allocation", "offset", "nbytes", "label")

    def __init__(
        self, allocation: Allocation, offset: int, nbytes: int, label: str = ""
    ):
        if offset < 0 or offset + nbytes > allocation.nbytes:
            raise ValueError(
                f"buffer [{offset}, {offset + nbytes}) outside allocation "
                f"of {allocation.nbytes} bytes"
            )
        self.allocation = allocation
        self.offset = offset
        self.nbytes = nbytes
        self.label = label
        if _san.MEM is not None:
            _san.MEM.on_buffer(self)

    # -- placement predicates -------------------------------------------
    @property
    def memory(self) -> Memory:
        return self.allocation.memory

    @property
    def kind(self) -> MemoryKind:
        return self.memory.kind

    # flat attribute walks (not chained properties): these predicates sit
    # on every protocol-selection path
    @property
    def is_device(self) -> bool:
        return self.allocation.memory.kind is MemoryKind.DEVICE

    @property
    def is_host(self) -> bool:
        return self.allocation.memory.kind in _HOST_KINDS

    @property
    def device(self) -> Optional[object]:
        """The owning GPU for device/managed memory, else None."""
        return self.memory.owner if not self.is_host else None

    # -- data access -------------------------------------------------------
    @property
    def bytes(self) -> np.ndarray:
        """A mutable ``uint8`` view of the buffer's contents."""
        if self.allocation.freed:
            if _san.MEM is not None:
                _san.MEM.on_use_after_free(self)
            raise ValueError(f"use after free: {self!r}")
        if _san.MEM is not None:
            _san.MEM.on_touch(self)
        return self.allocation.data[self.offset : self.offset + self.nbytes]

    def view(self, dtype: np.dtype | str) -> np.ndarray:
        """Reinterpret the whole buffer as an array of ``dtype``."""
        dt = np.dtype(dtype)
        if self.nbytes % dt.itemsize:
            raise ValueError(
                f"buffer of {self.nbytes} bytes not divisible by "
                f"{dt.itemsize}-byte items"
            )
        return self.bytes.view(dt)

    def fill(self, value: int) -> None:
        """Set every byte of the buffer to ``value``."""
        self.bytes[:] = value

    def write(self, array: np.ndarray, at: int = 0) -> None:
        """Copy a NumPy array's bytes into the buffer at byte offset ``at``."""
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if at + raw.nbytes > self.nbytes:
            raise ValueError("write overruns buffer")
        self.bytes[at : at + raw.nbytes] = raw

    def read(self, dtype: np.dtype | str, count: int, at: int = 0) -> np.ndarray:
        """Copy out ``count`` items of ``dtype`` starting at byte ``at``."""
        dt = np.dtype(dtype)
        end = at + count * dt.itemsize
        if end > self.nbytes:
            raise ValueError("read overruns buffer")
        return self.bytes[at:end].view(dt).copy()

    # -- pointer arithmetic ------------------------------------------------
    def __getitem__(self, key: slice) -> "Buffer":
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("buffers only support contiguous slices")
        start, stop, _ = key.indices(self.nbytes)
        return Buffer(
            self.allocation, self.offset + start, stop - start, label=self.label
        )

    def split(self, chunk: int) -> Iterator["Buffer"]:
        """Yield consecutive sub-buffers of at most ``chunk`` bytes."""
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        for lo in range(0, self.nbytes, chunk):
            yield self[lo : min(lo + chunk, self.nbytes)]

    def free(self) -> None:
        """Free the underlying allocation.

        Only the original whole-allocation handle may free: freeing a
        sub-buffer would silently release bytes other live handles still
        alias.
        """
        if self.offset != 0 or self.nbytes != self.allocation.requested_nbytes:
            raise ValueError(
                f"cannot free sub-buffer {self!r} (allocation spans "
                f"[0, {self.allocation.requested_nbytes})); free() must be "
                f"called on the original allocation handle"
            )
        self.memory.free(self.allocation)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"Buffer({self.memory.name}#{self.allocation.alloc_id}"
            f"[{self.offset}:{self.offset + self.nbytes}]{tag})"
        )


def require_buffers(call: str, **args) -> None:
    """Raise ``TypeError`` naming ``call`` and the first of ``args`` that
    is not a :class:`Buffer`.  Callers test ``type(x) is Buffer`` inline
    and call this only when that fails."""
    for name, value in args.items():
        if type(value) is not Buffer:
            raise TypeError(
                f"{call}: {name}={value!r} is a {type(value).__name__}, "
                "not a Buffer"
            )
