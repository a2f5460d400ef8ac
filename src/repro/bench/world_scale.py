"""World-scale benchmark: events/sec and wall clock at 256/1k/4k ranks.

The figure benchmarks exercise two-rank protocol depth; this module
exercises *width* — hundreds to thousands of ranks doing a mixed
pingpong + collective load over host memory, with ``transfer_log`` off
(the counters-only observability mode built for scale runs).  It is the
scenario the simulator-core fast paths (array-backed heap, eager
process start, callback-chained eager protocol) are accountable to.

Metric naming follows the regression-gate convention
(:mod:`repro.bench.regress`):

* plain names (``events``, ``transfers``, ``sim_elapsed_s``,
  ``peak_queue_depth``) are deterministic — identical on every machine,
  held to the tight tolerance;
* ``*_wall_s`` is host wall clock — gated loosely, regressions only;
* ``*_per_wall_s`` is wall-clock throughput — gated loosely, lower
  bound only (a faster machine must never fail the gate).
"""

from __future__ import annotations

from repro.datatype import BYTE, contiguous
from repro.hw.node import Cluster
from repro.mpi.collectives import bcast
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld

__all__ = ["RANKS_PER_NODE", "world_scale_metrics"]

#: ranks packed per simulated node (dense host-only placement)
RANKS_PER_NODE = 32


def world_scale_metrics(
    ranks: int,
    iters: int = 8,
    payload: int = 1024,
) -> dict[str, float]:
    """Run the mixed load on a ``ranks``-wide world; flat metric dict.

    The load: every even/odd pair ping-pongs ``payload`` host-contiguous
    bytes for ``iters`` rounds (2 messages per rank per round), then the
    whole world joins one binomial ``bcast`` from rank 0 — so the run
    mixes pairwise traffic with a world-wide dependency tree, and a
    matching/ordering bug at width shows up as a hang or a wrong count,
    not just a slow number.
    """
    if ranks % (2 * RANKS_PER_NODE):
        raise ValueError(
            f"ranks must be a multiple of {2 * RANKS_PER_NODE}, got {ranks}"
        )
    cluster = Cluster(n_nodes=ranks // RANKS_PER_NODE, gpus_per_node=0)
    placements = [(r // RANKS_PER_NODE, None) for r in range(ranks)]
    world = MpiWorld(cluster, placements, MpiConfig(transfer_log=False))
    dt = contiguous(payload, BYTE).commit()

    def prog(ctx):
        peer = ctx.rank ^ 1
        buf = ctx.host_alloc(payload)
        for _ in range(iters):
            if ctx.rank & 1 == 0:
                yield ctx.send(buf, dt, 1, dest=peer, tag=7)
                yield ctx.recv(buf, dt, 1, source=peer, tag=9)
            else:
                yield ctx.recv(buf, dt, 1, source=peer, tag=7)
                yield ctx.send(buf, dt, 1, dest=peer, tag=9)
        yield from bcast(ctx, buf, dt, 1, root=0)

    world.run({r: prog for r in range(ranks)})
    ws = world.stats()
    world.close()
    transfers = float(sum(ws.by_protocol.values()))
    wall = ws.run_wall_s
    return {
        # deterministic (tight gate)
        "events": float(ws.events_processed),
        "transfers": transfers,
        "peak_queue_depth": float(ws.peak_queue_depth),
        "sim_elapsed_s": ws.sim_elapsed_s,
        # machine-dependent (loose gates, by naming convention)
        "run_wall_s": wall,
        "events_per_wall_s": ws.events_per_wall_s,
        "transfers_per_wall_s": transfers / wall if wall > 0 else 0.0,
    }
