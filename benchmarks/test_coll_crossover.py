"""Collective algorithm ladder: the staged-vs-nonblocking alltoall crossover.

The GPU-datatype-aware alltoall can move each peer block three ways
(docs/COLLECTIVES.md); ``"auto"`` picks between two of them by the
per-peer block size:

* **staged** — pack every remote block, batch ONE D2H, exchange through
  host memory, batch ONE H2D on the receiver.  Pays the PCIe bounce
  twice but amortizes per-message costs across all peers;
* **nonblocking** — every two-sided isend/irecv in flight at once, each
  block through the point-to-point protocols (CUDA IPC intra-node,
  pipelined host staging inter-node), no batching.

Measured (mostly-inter-node topologies): nonblocking wins every block
from 4 KB per peer up, and from 1 KB on 4x1, so the crossover sits
below the ``coll_staged_threshold`` default (32 KB).  ROADMAP item 6
decides the rule; this benchmark pins what it would act on.
"""

from __future__ import annotations

import pytest

from repro.bench import Series, fmt_time
from repro.bench.harness import alltoall_times
from repro.bench.profiles import current as current_profile
from repro.mpi.collectives import CollAlgorithm
from repro.mpi.config import MpiConfig

PROFILE = current_profile()
SIZES = PROFILE.pick(
    [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10],
    [4 << 10, 16 << 10, 64 << 10],
)
TOPOS = PROFILE.pick([(4, 1), (4, 2), (8, 1)], [(4, 2)])
ALGOS = [CollAlgorithm.STAGED, CollAlgorithm.NONBLOCKING]


@pytest.mark.figure("coll_crossover")
def test_staged_vs_nonblocking_crossover(benchmark, show):
    """Nonblocking wins the largest block on every topology."""
    for n_nodes, gpn in TOPOS:
        series = Series(
            f"alltoall {n_nodes}x{gpn}: staged vs nonblocking",
            "block",
            ["staged", "nonblocking"],
        )
        for nbytes in SIZES:
            series.add(nbytes, **alltoall_times(
                nbytes, ALGOS, n_nodes=n_nodes, gpus_per_node=gpn
            ))
        show(series.to_table(fmt_time))

        staged = series.column("staged")
        nonblocking = series.column("nonblocking")
        assert nonblocking[-1] < staged[-1], (
            f"{n_nodes}x{gpn}: nonblocking should win the {SIZES[-1]}B block"
        )


def _auto_alltoall_algo(block_bytes: int) -> dict:
    """Run one 'auto' alltoall; return the per-algorithm call counters."""
    import numpy as np

    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE
    from repro.hw.node import Cluster
    from repro.mpi.collectives import alltoall
    from repro.mpi.world import MpiWorld

    size = 4
    world = MpiWorld(
        Cluster(2, 2), [(n, g) for n in range(2) for g in range(2)]
    )
    dt = contiguous(max(block_bytes // 8, 1), DOUBLE).commit()
    rng = np.random.default_rng(3)
    sendbufs, recvbufs = [], []
    for r in range(size):
        ctx = world.procs[r].ctx
        srow, rrow = [], []
        for _ in range(size):
            sb = ctx.malloc(dt.size)
            sb.bytes[:] = rng.integers(0, 255, dt.size, dtype=np.uint8)
            rb = ctx.malloc(dt.size)
            rb.fill(0)
            srow.append(sb)
            rrow.append(rb)
        sendbufs.append(srow)
        recvbufs.append(rrow)

    def program(rank):
        def run(mpi):
            yield from alltoall(
                mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1
            )
        return run

    world.run({r: program(r) for r in range(size)})
    return world.stats().coll_ops


@pytest.mark.figure("coll_crossover")
def test_auto_policy_tracks_threshold(benchmark, show):
    """'auto' routes below-threshold blocks staged, larger ones not."""
    cfg = MpiConfig()
    below = _auto_alltoall_algo(cfg.coll_staged_threshold // 2)
    above = _auto_alltoall_algo(cfg.coll_staged_threshold * 4)
    assert below.get("alltoall.staged") == 4, below
    assert "alltoall.staged" not in above, above
