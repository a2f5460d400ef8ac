"""Datatype Engine Vectors (DEVs).

"The first step is to convert the representation of the datatype from
stack-based into a collection of Datatype Engine Vectors (DEVs), where
each DEV contains the displacement of a block from the contiguous buffer,
the displacement of the corresponding block from the non-contiguous data
and the corresponding blocklength" (Section 3.2).

A DEV is one contiguous block of the flattened typemap; the destination
displacement is simply the running sum of block lengths (the contiguous
buffer is the pack destination / unpack source).  Because DEVs hold only
*relative* displacements they are reusable for any buffer pair — the
property both the CUDA_DEV cache and Open MPI's convertor caching rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatype.canonical import stream_plan
from repro.datatype.ddt import Datatype
from repro.obs import phases as _phases

__all__ = ["DevList", "to_devs"]


@dataclass(frozen=True)
class DevList:
    """Parallel arrays of <src_disp, dst_disp, length> block descriptors."""

    src_disps: np.ndarray  # displacement in the non-contiguous layout
    dst_disps: np.ndarray  # displacement in the packed stream
    lens: np.ndarray  # block length in bytes

    @property
    def count(self) -> int:
        return int(self.lens.size)

    @property
    def total_bytes(self) -> int:
        return int(self.lens.sum()) if self.count else 0

    def __repr__(self) -> str:
        return f"DevList(count={self.count}, bytes={self.total_bytes})"


def to_devs(dt: Datatype, count: int = 1) -> DevList:
    """Convert ``count`` elements of a committed datatype into DEVs."""
    with _phases.measure(_phases.DEV_BUILD):
        spans = stream_plan(dt, count).spans
        return DevList(
            src_disps=spans.disps,
            dst_disps=spans.packed_offsets(),
            lens=spans.lens,
        )
