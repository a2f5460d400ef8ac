"""Unified Memory Architecture zero-copy support.

The paper's copy-in/copy-out protocol optionally maps the host staging
buffer into GPU address space ("zero copy"), so the pack kernel writes
straight through PCIe and "the data movement is implicitly handled by
hardware, which is able to overlap it with pack/unpack operations"
(Section 4.2).  We model that by registering a host buffer region as
*mapped*; the GPU engine then runs the kernel with PCIe as a co-occupied
link and the kernel's effective rate clamped to
``min(kernel_bw, pcie_bw)``, removing the separate D2H/H2D memcpy
entirely (the ``cpy`` lines in Fig 7).

Registration is region-based: any sub-buffer (slice) of a mapped region
is itself mapped, matching CUDA pointer-arithmetic semantics.
"""

from __future__ import annotations

from repro.hw.gpu import Gpu
from repro.hw.memory import Buffer

__all__ = ["map_host_buffer", "unmap_host_buffer", "is_mapped_host", "mapped_gpu"]

# allocation id -> list of (start, end, gpu)
_REGIONS: dict[int, list[tuple[int, int, Gpu]]] = {}


def map_host_buffer(buf: Buffer, gpu: Gpu) -> Buffer:
    """cudaHostRegister + cudaHostGetDevicePointer.

    Returns the same buffer, now usable as a kernel target from ``gpu``.
    """
    if not buf.is_host:
        raise ValueError("only host memory can be zero-copy mapped")
    _REGIONS.setdefault(buf.allocation.alloc_id, []).append(
        (buf.offset, buf.offset + buf.nbytes, gpu)
    )
    return buf


def unmap_host_buffer(buf: Buffer) -> None:
    """cudaHostUnregister for an exact previously mapped region."""
    regions = _REGIONS.get(buf.allocation.alloc_id, [])
    target = (buf.offset, buf.offset + buf.nbytes)
    for i, (lo, hi, _gpu) in enumerate(regions):
        if (lo, hi) == target:
            del regions[i]
            if not regions:
                del _REGIONS[buf.allocation.alloc_id]
            return
    raise ValueError(f"{buf!r} was not zero-copy mapped")


def _find(buf: Buffer) -> Gpu | None:
    for lo, hi, gpu in _REGIONS.get(buf.allocation.alloc_id, ()):
        if lo <= buf.offset and buf.offset + buf.nbytes <= hi:
            return gpu
    return None


def is_mapped_host(buf: Buffer) -> bool:
    """True if the buffer lies inside a zero-copy-mapped host region."""
    return buf.is_host and _find(buf) is not None


def mapped_gpu(buf: Buffer) -> Gpu:
    """The GPU a mapped host buffer is visible to; raises if unmapped."""
    gpu = _find(buf)
    if gpu is None:
        raise ValueError(f"{buf!r} is not zero-copy mapped")
    return gpu
