"""Generic DEV pack/unpack kernel (Section 3.2).

One kernel launch consumes a range of CUDA_DEV work units: "once the array
of CUDA_DEVs is generated, it is copied into device memory and the
corresponding GPU kernel is launched.  When a CUDA block finishes its
work, it would jump N (total number of CUDA blocks) on the CUDA_DEVs array
to retrieve its next unit of work."

The cost model (in :meth:`repro.hw.gpu.Gpu.dev_kernel_cost`) charges each
unit in whole block iterations, which is where the triangular matrix's
~80 %-of-peak occupancy penalty comes from, and charges a per-unit fetch
overhead that the grid amortizes.
"""

from __future__ import annotations

import numpy as np

from repro.gpu_engine.work_units import WorkUnits
from repro.hw.gpu import Gpu, KernelStats

__all__ = ["dev_kernel_stats"]


def dev_kernel_stats(
    gpu: Gpu,
    units: WorkUnits,
    unit_lo: int = 0,
    unit_hi: int | None = None,
    grid_blocks: int | None = None,
) -> KernelStats:
    """Kernel cost for processing units [unit_lo, unit_hi), in O(1).

    No reduction over the unit array: the payload is a difference of
    packed offsets, and block iterations one of prefix sums built once
    per unit array and iteration size.
    """
    hi = units.count if unit_hi is None else unit_hi
    if hi <= unit_lo:
        return gpu.dev_kernel_cost(0, 0, 0, grid_blocks)
    bi = gpu.block_iter_bytes
    iters = units.iter_prefix.get(bi)
    if iters is None:
        iters = units.iter_prefix[bi] = np.zeros(len(units.lens) + 1, np.int64)
        np.cumsum(-(-units.lens // bi), out=iters[1:])
    d = units.dst_disps
    payload = int(d[hi - 1] + units.lens[hi - 1] - d[unit_lo])
    n_iters = int(iters[hi] - iters[unit_lo])
    return gpu.dev_kernel_cost(payload, hi - unit_lo, n_iters, grid_blocks)
