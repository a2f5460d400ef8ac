"""CUDA_DEV work units: equal-size slices of DEVs.

"Each DEV is divided into several cuda_dev_dist of the same size S plus
a residue if needed" (Section 3.2).  Units are what the GPU kernel's
grid-stride loop consumes; they are at most ``S`` bytes, cover every DEV
exactly, and inherit the DEV's relative-displacement reusability.

The split is fully vectorized — a transpose datatype with millions of
single-element DEVs costs a few NumPy ops, which is itself the simulated
counterpart of the paper's observation that the CPU-side conversion is
"sequential" and worth pipelining/caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu_engine.dev import DevList
from repro.obs import phases as _phases

__all__ = ["WorkUnits", "split_units"]

#: bytes per cuda_dev_dist entry: three 8-byte fields (Figure 3)
UNIT_DESCRIPTOR_BYTES = 24


@dataclass(frozen=True)
class WorkUnits:
    """Parallel arrays of <src_disp, dst_disp, length<=S> work units."""

    src_disps: np.ndarray
    dst_disps: np.ndarray  # packed offsets: exclusive prefix sums of lens
    lens: np.ndarray
    unit_size: int  # the S this split used
    #: block-iteration size -> int64 prefix sums of ceil(len / size), built
    #: once per unit array by :func:`~repro.gpu_engine.dev_kernel.dev_kernel_stats`
    iter_prefix: dict = field(default_factory=dict, init=False, compare=False)

    @property
    def count(self) -> int:
        return int(self.lens.size)

    @property
    def total_bytes(self) -> int:
        return int(self.lens.sum()) if self.count else 0

    @property
    def descriptor_bytes(self) -> int:
        """Size of the cuda_dev_dist array shipped to the GPU."""
        return self.count * UNIT_DESCRIPTOR_BYTES

    def slice(self, lo: int, hi: int) -> "WorkUnits":
        """Units [lo, hi) — used for per-fragment kernel launches."""
        return WorkUnits(
            self.src_disps[lo:hi],
            self.dst_disps[lo:hi],
            self.lens[lo:hi],
            self.unit_size,
        )

    def packed_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Packed-stream byte range covered by units [lo, hi).

        An empty range (``lo == hi``) is a zero-length slice at the
        position unit ``lo`` would start.  Inverted or out-of-bounds
        ranges raise — a negative ``lo`` would otherwise index from the
        end of the array and silently return another unit's offsets.
        """
        if lo < 0 or hi < lo or hi > self.count:
            raise IndexError(
                f"unit range [{lo}, {hi}) invalid for {self.count} units"
            )
        if lo == hi:
            start = int(self.dst_disps[lo]) if lo < self.count else self.total_bytes
            return start, start
        return (
            int(self.dst_disps[lo]),
            int(self.dst_disps[hi - 1] + self.lens[hi - 1]),
        )

    def __repr__(self) -> str:
        return (
            f"WorkUnits(count={self.count}, S={self.unit_size}, "
            f"bytes={self.total_bytes})"
        )


def split_units(devs: DevList, unit_size: int) -> WorkUnits:
    """Split every DEV into ceil(len/S) units of at most ``S`` bytes."""
    if unit_size <= 0:
        raise ValueError("unit_size must be positive")
    with _phases.measure(_phases.UNIT_SPLIT):
        lens = devs.lens
        n = devs.count
        if n == 0:
            z = np.empty(0, dtype=np.int64)
            return WorkUnits(z, z, z, unit_size)
        counts = -(-lens // unit_size)
        total = int(counts.sum())
        dev_id = np.repeat(np.arange(n, dtype=np.int64), counts)
        first = np.cumsum(counts) - counts
        ramp = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
        off = ramp * unit_size
        u_src = devs.src_disps[dev_id] + off
        u_dst = devs.dst_disps[dev_id] + off
        u_len = np.minimum(unit_size, lens[dev_id] - off)
        return WorkUnits(u_src, u_dst, u_len, unit_size)
