"""Specialized pack/unpack kernel for vector-like datatypes (Section 3.1).

"The pack kernel takes the address of the source and the destination
buffers, blocklength, stride, and block count as arguments, and is
launched in a dedicated CUDA stream."  Rows are consumed at warp
granularity — coalesced 8-byte accesses per thread — with a
prologue/middle/epilogue split when the block is not 8-byte aligned.

No CPU-side preparation exists for this kernel: that is why the paper's
Fig 7 shows pipeline/cached variants only for the indexed (triangular)
type — the vector path has nothing to prepare or cache.  Its cost model
is :meth:`repro.hw.gpu.Gpu.vector_kernel_stats`.
"""

from __future__ import annotations

from repro.datatype.ddt import VectorShape

__all__ = ["is_aligned"]


def is_aligned(shape: VectorShape) -> bool:
    """8-byte alignment of every block (no prologue/epilogue needed)."""
    return (
        shape.blocklength % 8 == 0
        and shape.first_disp % 8 == 0
        and shape.stride % 8 == 0
    )
