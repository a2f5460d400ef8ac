"""Seeded multi-tenant traffic replay.

Real GPU applications rarely look like a single ping-pong: several
libraries (tenants) share the ranks, each with its own communicator and
its own — structurally identical — derived datatypes, sending a mix of
eager-sized control messages and large non-contiguous payloads in
bursts.  This module generates that traffic deterministically:

* every random draw (shift patterns, message sizes, payload kinds,
  burst gaps) is precomputed up front from one ``numpy`` generator
  seeded by :class:`TrafficSpec.seed`, so sender and receiver agree on
  every message shape by construction and two runs with the same spec
  are bit-identical;
* each tenant runs on its own dup'ed communicator and builds its *own*
  datatype objects, exercising the canonical-key DevCache exactly the
  way two independent libraries in one application do;
* per round, every rank sleeps the same drawn gap and then issues all
  tenants' sends and receives back-to-back — idle valleys followed by
  waves of concurrent traffic across communicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.hw.node import Cluster
from repro.mpi.world import MpiWorld
from repro.sim.core import Future, Simulator

__all__ = ["TrafficSpec", "TrafficDraws", "run_traffic", "replay_digest"]


@dataclass(frozen=True)
class TrafficSpec:
    """One reproducible traffic mix (all knobs, nothing hidden).

    ``size_mix`` pairs contiguous payload sizes with draw weights; the
    defaults straddle the eager limit so the mix exercises the eager,
    host-rendezvous, and device pipelines.  ``vector_frac`` of the
    draws instead send ``vector(vector_rows, vector_bl, vector_stride)``
    doubles — the non-contiguous path through the GPU engine.
    """

    seed: int = 7
    tenants: int = 3
    rounds: int = 4
    n_nodes: int = 2
    gpus_per_node: int = 2
    #: (nbytes, weight) pairs for contiguous draws
    size_mix: tuple = ((2 << 10, 0.45), (64 << 10, 0.35), (1 << 20, 0.2))
    #: probability a draw sends the structured (vector) payload instead
    vector_frac: float = 0.4
    vector_rows: int = 512
    vector_bl: int = 4
    vector_stride: int = 12
    #: max elements of the vector type per structured send
    vector_max_count: int = 3
    #: mean idle gap before each burst (exponential)
    burst_gap_s: float = 2e-4
    #: tenants with index < host_tenants use host buffers (CPU pipeline)
    host_tenants: int = 1

    def __post_init__(self) -> None:
        """Validate the spec (sizes positive, fractions in range)."""
        if self.tenants < 1 or self.rounds < 1:
            raise ValueError("traffic needs >= 1 tenant and >= 1 round")
        if self.n_nodes * self.gpus_per_node < 2:
            raise ValueError("traffic needs >= 2 ranks")
        if not self.size_mix or any(n <= 0 or w <= 0 for n, w in self.size_mix):
            raise ValueError("size_mix entries must be (nbytes>0, weight>0)")
        if not 0.0 <= self.vector_frac <= 1.0:
            raise ValueError("vector_frac must be in [0, 1]")
        if not 0 <= self.host_tenants <= self.tenants:
            raise ValueError("host_tenants must be in [0, tenants]")

    @property
    def world_size(self) -> int:
        """Total ranks (one per GPU slot)."""
        return self.n_nodes * self.gpus_per_node


@dataclass
class TrafficDraws:
    """Every random draw of one run, materialized before the clock starts.

    Indexed ``[round][tenant]`` (gaps per round only).  Both endpoints
    of a message read the same table, so the receiver always knows the
    sender's kind/size without any out-of-band agreement.
    """

    shifts: list = field(default_factory=list)
    kinds: list = field(default_factory=list)  # "contig" | "vector"
    sizes: list = field(default_factory=list)  # contig nbytes
    vcounts: list = field(default_factory=list)  # vector element count
    gaps: list = field(default_factory=list)

    @classmethod
    def generate(cls, spec: TrafficSpec) -> "TrafficDraws":
        """Draw the full schedule from one seeded generator.

        Each size is one ``rng.random()`` looked up in the size mix's
        CDF, which is what ``rng.choice(nbytes, p=weights)`` does on
        every call; building the CDF once keeps the table bit-identical
        at a fraction of the cost.
        """
        rng = np.random.default_rng(spec.seed)
        size = spec.world_size
        nbytes = [int(n) for n, _w in spec.size_mix]
        weights = np.array([w for _n, w in spec.size_mix], dtype=float)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        d = cls()
        for _r in range(spec.rounds):
            d.shifts.append(
                [int(rng.integers(1, size)) for _t in range(spec.tenants)]
            )
            d.kinds.append([
                "vector" if rng.random() < spec.vector_frac else "contig"
                for _t in range(spec.tenants)
            ])
            d.sizes.append([
                nbytes[int(cdf.searchsorted(rng.random(), side="right"))]
                for _t in range(spec.tenants)
            ])
            d.vcounts.append([
                int(rng.integers(1, spec.vector_max_count + 1))
                for _t in range(spec.tenants)
            ])
            d.gaps.append(float(rng.exponential(spec.burst_gap_s)))
        return d


def _sleep(sim: Simulator, seconds: float) -> Future:
    """A future resolving ``seconds`` of simulated time from now."""
    fut = Future(sim, label="traffic-gap")
    sim.call_at(sim.now + seconds, lambda: fut.resolve(None))
    return fut


def _replay(spec: TrafficSpec, config, sim):
    """Build the world, run the full replay; returns the raw pieces.

    ``(world, recvbufs, elapsed, messages)`` — :func:`run_traffic`
    flattens them into metrics, :func:`replay_digest` hashes the
    application-visible state for the schedule explorer.
    """
    draws = TrafficDraws.generate(spec)
    size = spec.world_size
    cluster = Cluster(spec.n_nodes, spec.gpus_per_node, sim=sim)
    placements = [
        (n, g) for n in range(spec.n_nodes) for g in range(spec.gpus_per_node)
    ]
    world = MpiWorld(cluster, placements, config=config)

    # one communicator per tenant: COMM_WORLD plus dup()s (fresh context
    # ids — concurrent same-tag traffic on different tenants never mixes)
    comms = [world.comm_world]
    for _t in range(1, spec.tenants):
        comms.append(world.comm_world.dup())

    # per-tenant, per-rank datatype instances: distinct objects with
    # identical structure — the canonical key must unify them
    vec_dts = [
        [
            vector(spec.vector_rows, spec.vector_bl, spec.vector_stride,
                   DOUBLE).commit()
            for _r in range(size)
        ]
        for _t in range(spec.tenants)
    ]
    contig_sizes = sorted({n for n, _w in spec.size_mix})
    contig_dts = [
        {n: contiguous(n, BYTE).commit() for n in contig_sizes}
        for _r in range(size)
    ]

    vec_extent = vec_dts[0][0].extent * spec.vector_max_count
    buf_bytes = max(max(contig_sizes), vec_extent)
    sendbufs: list = []
    recvbufs: list = []
    for t in range(spec.tenants):
        srow, rrow = [], []
        for r in range(size):
            proc = world.procs[r]
            if t < spec.host_tenants:
                sb = proc.node.host_memory.alloc(buf_bytes, label=f"traffic-s{t}")
                rb = proc.node.host_memory.alloc(buf_bytes, label=f"traffic-r{t}")
            else:
                sb = proc.ctx.malloc(buf_bytes)
                rb = proc.ctx.malloc(buf_bytes)
            sb.fill(17)
            rb.fill(0)
            srow.append(sb)
            rrow.append(rb)
        sendbufs.append(srow)
        recvbufs.append(rrow)

    messages = 0
    for r in range(spec.rounds):
        messages += spec.tenants * size

    def make_program(rank: int):
        def run(mpi):
            for rnd in range(spec.rounds):
                # idle valley, then the whole round's traffic at once
                yield _sleep(mpi.sim, draws.gaps[rnd])
                reqs = []
                for t in range(spec.tenants):
                    shift = draws.shifts[rnd][t]
                    dest = (rank + shift) % size
                    src = (rank - shift) % size
                    if draws.kinds[rnd][t] == "vector":
                        dt = vec_dts[t][rank]
                        cnt = draws.vcounts[rnd][t]
                    else:
                        dt = contig_dts[rank][draws.sizes[rnd][t]]
                        cnt = 1
                    reqs.append(mpi.isend(
                        sendbufs[t][rank], dt, cnt, dest=dest, tag=rnd,
                        comm=comms[t],
                    ))
                    reqs.append(mpi.irecv(
                        recvbufs[t][rank], dt, cnt, source=src, tag=rnd,
                        comm=comms[t],
                    ))
                yield mpi.wait_all(*reqs)
                yield mpi.barrier()
        return run

    elapsed = world.run([make_program(r) for r in range(size)])
    return world, recvbufs, elapsed, messages


def run_traffic(spec: TrafficSpec, config=None) -> dict[str, float]:
    """Run one traffic replay; returns flat gateable metrics.

    Metrics: ``elapsed_s`` (whole replay, virtual clock),
    ``total_gbytes`` moved, ``messages`` issued, DevCache
    ``cache_hits``/``cache_misses`` across all tenants, and
    ``cross_tenant_hit_rate`` — the fraction of descriptor lookups
    that reuse cached preparations (the canonical-key payoff the
    generator exists to measure).
    """
    world, _recvbufs, elapsed, messages = _replay(spec, config, None)
    ws = world.stats()
    cache = ws.cache
    lookups = cache.hits + cache.misses
    return {
        "elapsed_s": elapsed,
        "total_gbytes": ws.total_bytes / 1e9,
        "messages": float(messages),
        "cache_hits": float(cache.hits),
        "cache_misses": float(cache.misses),
        "cross_tenant_hit_rate": cache.hits / lookups if lookups else 0.0,
    }


def replay_digest(spec: TrafficSpec, config=None, sim=None) -> str:
    """BLAKE2b digest of everything the application observes in a replay.

    Hashes every tenant's received bytes on every rank, then runs the
    finalize audit.  The schedule explorer asserts this digest is
    bit-identical across perturbed event orderings.
    """
    import hashlib

    world, recvbufs, _elapsed, _messages = _replay(spec, config, sim)
    world.finalize()
    h = hashlib.blake2b(digest_size=16)
    for row in recvbufs:
        for buf in row:
            h.update(buf.bytes.tobytes())
    return h.hexdigest()
