"""Frozen per-launch DEV-kernel pricing — the reference the O(1) path matches.

This is a verbatim copy of the DEV-kernel pricing as it stood before
fragments were priced from prefix sums: ``Gpu.dev_kernel_stats``, which
reduces the launch's slice of unit lengths with NumPy on every launch,
the ``dev_kernel_stats`` wrapper of :mod:`repro.gpu_engine.dev_kernel`
that slices the unit array, and the DEV branch of ``PackJob.fragments``,
which cut fragments from a fresh ``np.cumsum`` per call.
``tests/gpu_engine/test_pricing.py`` requires every ``KernelStats`` field
and every fragment of the current code to equal these, bit for bit.

Do **not** "improve" this file — its value is that it does not change.

The only edits are the cuts: the methods became module functions taking
the ``Gpu``, ``WorkUnits`` or ``PackJob`` they used to be bound to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu_engine.engine import Fragment
from repro.hw.gpu import KernelStats

__all__ = ["gpu_dev_kernel_stats", "dev_kernel_stats", "dev_fragments"]


def gpu_dev_kernel_stats(
    gpu,
    unit_lens: np.ndarray,
    grid_blocks: Optional[int] = None,
) -> KernelStats:
    """Cost of the generic DEV pack/unpack kernel over CUDA_DEV units.

    Each unit is retired in whole block iterations of
    ``threads_per_block * bytes_per_thread`` bytes; partially filled
    iterations idle the remaining threads (occupancy loss).
    """
    p = gpu.params
    if grid_blocks is None:
        grid_blocks = p.default_grid_blocks
    unit_lens = np.asarray(unit_lens, dtype=np.int64)
    n_units = int(unit_lens.size)
    payload = int(unit_lens.sum()) if n_units else 0
    block_iter = p.threads_per_block * p.bytes_per_thread
    iters = -(-unit_lens // block_iter) if n_units else unit_lens
    charged = int(iters.sum()) * block_iter if n_units else 0
    bw = gpu.kernel_bandwidth(grid_blocks)
    transfer = charged / bw if charged else 0.0
    # each block serially fetches its units from the CUDA_DEV array
    overhead = (n_units / max(1, grid_blocks)) * p.dev_unit_overhead
    overhead /= gpu._avail()
    return KernelStats(
        payload_bytes=payload,
        charged_bytes=charged,
        n_units=n_units,
        launch_time=p.kernel_launch_overhead,
        transfer_time=transfer,
        overhead_time=overhead,
    )


def dev_kernel_stats(
    gpu,
    units,
    unit_lo: int = 0,
    unit_hi: int | None = None,
    grid_blocks: int | None = None,
) -> KernelStats:
    """Kernel cost for processing units [unit_lo, unit_hi)."""
    hi = units.count if unit_hi is None else unit_hi
    return gpu_dev_kernel_stats(gpu, units.lens[unit_lo:hi], grid_blocks=grid_blocks)


def dev_fragments(units, frag_bytes: int) -> list[Fragment]:
    """The DEV branch of ``PackJob.fragments``."""
    frags: list[Fragment] = []
    # accumulate units until the fragment budget is reached
    csum = np.cumsum(units.lens)
    i = 0
    unit_lo = 0
    while unit_lo < units.count:
        base = csum[unit_lo - 1] if unit_lo else 0
        target = base + frag_bytes
        unit_hi = int(np.searchsorted(csum, target, side="left")) + 1
        unit_hi = min(unit_hi, units.count)
        lo, hi = units.packed_range(unit_lo, unit_hi)
        frags.append(Fragment(i, lo, hi, unit_lo, unit_hi))
        unit_lo = unit_hi
        i += 1
    return frags
