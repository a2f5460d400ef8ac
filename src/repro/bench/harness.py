"""Benchmark environments and measurement drivers.

``make_env`` builds the paper's four configurations (Section 5.2):

* ``sm-1gpu`` — two ranks sharing one GPU on one node;
* ``sm-2gpu`` — two ranks on different GPUs of one node;
* ``ib``      — two ranks on different nodes over FDR InfiniBand;
* ``cpu``     — two host-only ranks (the CPU datatype engine baseline).

``pingpong`` measures steady state: a warm-up iteration first pays the
one-time costs real benchmarks also amortize (IPC registration, CUDA_DEV
cache fill, gather-index build), then the measured iterations run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.mvapich import MvapichLikeTransfer
from repro.datatype.ddt import Datatype
from repro.hw.memory import Buffer
from repro.hw.node import Cluster
from repro.hw.params import SystemParams
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld
from repro.workloads.matrices import MatrixWorkload

__all__ = [
    "BenchEnv",
    "make_env",
    "matrix_buffers",
    "pingpong",
    "pingpong_stats",
    "one_way",
    "mvapich_pingpong",
    "pack_time",
    "alltoall_times",
]


@dataclass
class BenchEnv:
    kind: str
    cluster: Cluster
    world: MpiWorld

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def gpu0(self):
        return self.world.procs[0].gpu

    @property
    def gpu1(self):
        return self.world.procs[1].gpu


def make_env(
    kind: str,
    config: Optional[MpiConfig] = None,
    params: Optional[SystemParams] = None,
    trace: bool = False,
    sim=None,
) -> BenchEnv:
    """Build one of the paper's four benchmark environments.

    ``sim`` optionally supplies the simulator (the schedule explorer
    injects a seeded perturbed one); default is a fresh clock per env.
    """
    if kind == "sm-1gpu":
        cluster = Cluster(1, 1, params=params, trace=trace, sim=sim)
        placements = [(0, 0), (0, 0)]
    elif kind == "sm-2gpu":
        cluster = Cluster(1, 2, params=params, trace=trace, sim=sim)
        placements = [(0, 0), (0, 1)]
    elif kind == "ib":
        cluster = Cluster(2, 1, params=params, trace=trace, sim=sim)
        placements = [(0, 0), (1, 0)]
    elif kind == "cpu":
        cluster = Cluster(1, 1, params=params, trace=trace, sim=sim)
        placements = [(0, None), (0, None)]
    else:
        raise ValueError(f"unknown environment {kind!r}")
    world = MpiWorld(cluster, placements, config=config)
    return BenchEnv(kind, cluster, world)


def matrix_buffers(
    env: BenchEnv, workload: MatrixWorkload, seed: int = 42
) -> tuple[Buffer, Buffer]:
    """Allocate the underlying matrices on both ranks; rank 0 gets data."""
    nbytes = workload.footprint_bytes
    bufs = []
    for rank in (0, 1):
        proc = env.world.procs[rank]
        if proc.gpu is not None:
            buf = proc.ctx.malloc(nbytes, label=f"{workload.name}-r{rank}")
        else:
            buf = proc.node.host_memory.alloc(nbytes, label=f"{workload.name}-r{rank}")
        bufs.append(buf)
    rng = np.random.default_rng(seed)
    bufs[0].write(rng.random(nbytes // 8))
    return bufs[0], bufs[1]


def _pingpong_programs(b0, d0, c0, b1, d1, c1, iters: int):
    def rank0(mpi):
        for _ in range(iters):
            yield mpi.send(b0, d0, c0, dest=1, tag=1)
            yield mpi.recv(b0, d0, c0, source=1, tag=2)

    def rank1(mpi):
        for _ in range(iters):
            yield mpi.recv(b1, d1, c1, source=0, tag=1)
            yield mpi.send(b1, d1, c1, dest=0, tag=2)

    return [rank0, rank1]


def pingpong(
    env: BenchEnv,
    b0: Buffer,
    d0: Datatype,
    c0: int,
    b1: Buffer,
    d1: Datatype,
    c1: int,
    iters: int = 3,
    warmup: int = 1,
) -> float:
    """Steady-state round-trip time (seconds per iteration)."""
    if warmup:
        env.world.run(_pingpong_programs(b0, d0, c0, b1, d1, c1, warmup))
    elapsed = env.world.run(_pingpong_programs(b0, d0, c0, b1, d1, c1, iters))
    return elapsed / iters


def pingpong_stats(
    env: BenchEnv,
    b0: Buffer,
    d0: Datatype,
    c0: int,
    b1: Buffer,
    d1: Datatype,
    c1: int,
    iters: int = 3,
    warmup: int = 1,
):
    """Steady-state ping-pong plus the run's :class:`WorldStats`.

    The warm-up window is dropped from the stats (``reset_stats``), so
    the returned record describes exactly the measured iterations —
    benchmarks read cache hit rate, overlap fraction and per-resource
    busy time off this one object instead of poking protocol internals.
    Returns ``(seconds_per_iteration, WorldStats)``.
    """
    if warmup:
        env.world.run(_pingpong_programs(b0, d0, c0, b1, d1, c1, warmup))
    env.world.reset_stats()
    elapsed = env.world.run(_pingpong_programs(b0, d0, c0, b1, d1, c1, iters))
    return elapsed / iters, env.world.stats()


def one_way(
    env: BenchEnv,
    b0: Buffer,
    d0: Datatype,
    c0: int,
    b1: Buffer,
    d1: Datatype,
    c1: int,
    warmup: int = 1,
) -> float:
    """Steady-state single-transfer time (seconds)."""

    def programs():
        def rank0(mpi):
            yield mpi.send(b0, d0, c0, dest=1, tag=3)

        def rank1(mpi):
            yield mpi.recv(b1, d1, c1, source=0, tag=3)

        return [rank0, rank1]

    for _ in range(warmup):
        env.world.run(programs())
    return env.world.run(programs())


def mvapich_pingpong(
    env: BenchEnv,
    b0: Buffer,
    d0: Datatype,
    c0: int,
    b1: Buffer,
    d1: Datatype,
    c1: int,
    iters: int = 2,
    warmup: int = 1,
) -> float:
    """Round-trip time under the MVAPICH-style baseline."""
    fwd = MvapichLikeTransfer(env.world.procs[0], env.world.procs[1])
    back = MvapichLikeTransfer(env.world.procs[1], env.world.procs[0])
    sim = env.sim

    def round_trip():
        yield from fwd.transfer(b0, d0, c0, b1, d1, c1)
        yield from back.transfer(b1, d1, c1, b0, d0, c0)

    for _ in range(warmup):
        sim.run_until_complete(sim.spawn(round_trip(), label="mvapich-warm"))
    t0 = sim.now
    for _ in range(iters):
        sim.run_until_complete(sim.spawn(round_trip(), label="mvapich-pp"))
    return (sim.now - t0) / iters


def pack_time(
    env: BenchEnv,
    dt: Datatype,
    count: int,
    src: Buffer,
    dst: Buffer,
    options=None,
    frag_bytes: Optional[int] = None,
    warmup: int = 0,
) -> float:
    """GPU-engine pack (or unpack) time into ``dst`` on rank 0's GPU."""
    proc = env.world.procs[0]
    sim = env.sim
    for _ in range(warmup):
        job = proc.engine.pack_job(dt, count, src, options)
        sim.run_until_complete(sim.spawn(job.process_all(dst, frag_bytes)))
    job = proc.engine.pack_job(dt, count, src, options)
    t0 = sim.now
    sim.run_until_complete(sim.spawn(job.process_all(dst, frag_bytes)))
    return sim.now - t0


def alltoall_times(
    block_bytes: int,
    algorithms,
    n_nodes: int = 2,
    gpus_per_node: int = 2,
    iters: int = 2,
    config: Optional[MpiConfig] = None,
) -> dict[str, float]:
    """Simulated seconds per collective algorithm for one alltoall.

    Each algorithm gets a fresh ``n_nodes x gpus_per_node`` world with
    device buffers of ``block_bytes`` per peer; the first iteration is a
    warm-up (IPC registration, staging-pool fill) and the remaining
    ``iters`` are averaged.  Keys are ``CollAlgorithm`` values.
    """
    from repro.datatype.primitives import DOUBLE
    from repro.datatype.ddt import contiguous
    from repro.mpi.collectives import alltoall

    size = n_nodes * gpus_per_node
    count = max(block_bytes // DOUBLE.size, 1)
    out: dict[str, float] = {}
    for algo in algorithms:
        dt = contiguous(count, DOUBLE).commit()
        cluster = Cluster(n_nodes, gpus_per_node)
        placements = [
            (n, g) for n in range(n_nodes) for g in range(gpus_per_node)
        ]
        world = MpiWorld(cluster, placements, config=config)
        rng = np.random.default_rng(13)
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
        marks: list[float] = []

        def program(rank):
            def run(mpi):
                for _ in range(iters + 1):
                    yield from alltoall(
                        mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                        algorithm=algo,
                    )
                    yield mpi.barrier()
                    if rank == 0:
                        marks.append(mpi.sim.now)
            return run

        world.run({r: program(r) for r in range(size)})
        world.close()
        out[getattr(algo, "value", str(algo))] = (
            (marks[-1] - marks[0]) / iters
        )
    return out
