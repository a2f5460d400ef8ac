"""Oracle tests: every collective x every algorithm vs NumPy packing.

The contract under test: whatever rung of the :class:`CollAlgorithm`
ladder moves the bytes, the packed content landing in each receive slot
is byte-identical to the NumPy ``pack_bytes`` oracle applied to the
sender's buffer — across world sizes 1-8 (non-powers-of-two included),
host and device buffers, triangular datatypes, and a chaos leg with
seeded Active-Message drops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous
from repro.datatype.primitives import DOUBLE
from repro.faults.plan import FaultSpec
from repro.hw.node import Cluster
from repro.mpi.collectives import (
    CollAlgorithm,
    allgather,
    alltoall,
    alltoallv,
    bcast,
    gather,
)
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld
from repro.workloads.matrices import lower_triangular_type
from tests.datatype.strategies import datatypes

#: every rung of the ladder; each op runs under all of them
RUNGS = list(CollAlgorithm)

#: 1 and 2 are the degenerate worlds; 3 and 5 are non-powers-of-two
#: (a ragged last node); 8 is two full nodes
WORLD_SIZES = [1, 2, 3, 5, 8]


def build_world(n_ranks: int, device: bool = True, config=None) -> MpiWorld:
    """Ranks block-distributed over two nodes (one node for size 1)."""
    n_nodes = 2 if n_ranks > 1 else 1
    per_node = -(-n_ranks // n_nodes)
    cluster = Cluster(n_nodes, per_node if device else 1)
    placements = []
    for r in range(n_ranks):
        placements.append((r // per_node, r % per_node if device else None))
    return MpiWorld(cluster, placements, config)


def alloc(world: MpiWorld, rank: int, nbytes: int, device: bool):
    """A device or host buffer on ``rank``'s hardware."""
    proc = world.procs[rank]
    if device:
        return proc.ctx.malloc(nbytes)
    return proc.node.host_memory.alloc(nbytes)


def fill_random(buf, rng) -> None:
    """Fully initialize a buffer with random bytes (MemSan-clean)."""
    buf.bytes[:] = rng.integers(0, 255, buf.nbytes, dtype=np.uint8)


class TestAlltoallvOracle:
    """alltoallv: ragged counts (zeros included), triangular datatype."""

    @pytest.mark.parametrize("algo", RUNGS)
    @pytest.mark.parametrize("n_ranks", WORLD_SIZES)
    def test_matches_oracle(self, algo, n_ranks):
        world = build_world(n_ranks)
        rng = np.random.default_rng(7 * n_ranks + 1)
        T = lower_triangular_type(8)
        block = T.extent + 64

        def counts(src: int, dest: int) -> int:
            # ragged, includes zero blocks, symmetric-by-contract
            return (src + dest) % 3

        sendbufs = {}
        recvbufs = {}
        for r in range(n_ranks):
            sendbufs[r] = []
            recvbufs[r] = []
            for peer in range(n_ranks):
                sb = alloc(world, r, block * max(counts(r, peer), 1), True)
                fill_random(sb, rng)
                rb = alloc(world, r, block * max(counts(peer, r), 1), True)
                rb.fill(0)
                sendbufs[r].append(sb)
                recvbufs[r].append(rb)

        def program(rank):
            def run(mpi):
                moved = yield from alltoallv(
                    mpi, sendbufs[rank], T,
                    [counts(rank, d) for d in range(n_ranks)],
                    recvbufs[rank], T,
                    [counts(s, rank) for s in range(n_ranks)],
                    algorithm=algo,
                )
                assert moved == T.size * sum(
                    counts(rank, d) for d in range(n_ranks)
                )
            return run

        world.run({r: program(r) for r in range(n_ranks)})
        for r in range(n_ranks):
            for src in range(n_ranks):
                c = counts(src, r)
                if not c:
                    continue
                got = pack_bytes(T, c, recvbufs[r][src].bytes)
                want = pack_bytes(T, c, sendbufs[src][r].bytes)
                assert np.array_equal(got, want), (
                    f"{algo.value} n={n_ranks}: rank {r} block from {src}"
                )


class TestFlatOpsOracle:
    """bcast / gather / allgather x algorithm, device buffers, size 5."""

    N_RANKS = 5

    def _world_and_type(self):
        world = build_world(self.N_RANKS)
        T = lower_triangular_type(10)
        return world, T, np.random.default_rng(42)

    @pytest.mark.parametrize("algo", RUNGS)
    def test_bcast(self, algo):
        world, T, rng = self._world_and_type()
        n = self.N_RANKS
        bufs = [alloc(world, r, T.extent + 32, True) for r in range(n)]
        for b in bufs:
            fill_random(b, rng)

        def program(rank):
            def run(mpi):
                got = yield from bcast(
                    mpi, bufs[rank], T, 1, root=1, algorithm=algo
                )
                assert got == T.size
            return run

        world.run({r: program(r) for r in range(n)})
        want = pack_bytes(T, 1, bufs[1].bytes)
        for r in range(n):
            assert np.array_equal(pack_bytes(T, 1, bufs[r].bytes), want), (
                f"{algo.value}: rank {r}"
            )

    @pytest.mark.parametrize("algo", RUNGS)
    def test_gather(self, algo):
        world, T, rng = self._world_and_type()
        n = self.N_RANKS
        sendbufs = [alloc(world, r, T.extent + 32, True) for r in range(n)]
        for b in sendbufs:
            fill_random(b, rng)
        recvbufs = [alloc(world, 2, T.extent + 32, True) for _ in range(n)]
        for b in recvbufs:
            b.fill(0)

        def program(rank):
            def run(mpi):
                yield from gather(
                    mpi, sendbufs[rank], T, 1,
                    recvbufs if rank == 2 else None,
                    T if rank == 2 else None,
                    1, root=2, algorithm=algo,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for src in range(n):
            assert np.array_equal(
                pack_bytes(T, 1, recvbufs[src].bytes),
                pack_bytes(T, 1, sendbufs[src].bytes),
            ), f"{algo.value}: slot {src}"

    @pytest.mark.parametrize("algo", RUNGS)
    def test_allgather(self, algo):
        world, T, rng = self._world_and_type()
        n = self.N_RANKS
        sendbufs = [alloc(world, r, T.extent + 32, True) for r in range(n)]
        for b in sendbufs:
            fill_random(b, rng)
        recv = [
            [alloc(world, r, T.extent + 32, True) for _ in range(n)]
            for r in range(n)
        ]
        for row in recv:
            for b in row:
                b.fill(0)

        def program(rank):
            def run(mpi):
                yield from allgather(
                    mpi, sendbufs[rank], T, 1, recv[rank], T, 1,
                    algorithm=algo,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for r in range(n):
            for src in range(n):
                assert np.array_equal(
                    pack_bytes(T, 1, recv[r][src].bytes),
                    pack_bytes(T, 1, sendbufs[src].bytes),
                ), f"{algo.value}: rank {r} block {src}"


class TestHostAndMixedBuffers:
    """Host-only worlds and mixed host/device staged interop."""

    @pytest.mark.parametrize("algo", RUNGS)
    def test_alltoall_host_buffers(self, algo):
        n = 4
        world = build_world(n, device=False)
        rng = np.random.default_rng(3)
        dt = contiguous(24, DOUBLE).commit()
        sendbufs = [
            [alloc(world, r, dt.size, False) for _ in range(n)]
            for r in range(n)
        ]
        recvbufs = [
            [alloc(world, r, dt.size, False) for _ in range(n)]
            for r in range(n)
        ]
        for r in range(n):
            for d in range(n):
                fill_random(sendbufs[r][d], rng)
                recvbufs[r][d].fill(0)

        def program(rank):
            def run(mpi):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=algo,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for r in range(n):
            for src in range(n):
                assert np.array_equal(
                    recvbufs[r][src].bytes, sendbufs[src][r].bytes
                ), f"{algo.value}: rank {r} from {src}"

    def test_staged_mixed_host_device_interop(self):
        """STAGED is a per-rank wire decision: device ranks stage, host
        ranks don't, and the packed signatures still match."""
        n = 4
        world = build_world(n)
        rng = np.random.default_rng(5)
        dt = contiguous(32, DOUBLE).commit()
        device_of = {0: True, 1: False, 2: True, 3: False}
        sendbufs = [
            [alloc(world, r, dt.size, device_of[r]) for _ in range(n)]
            for r in range(n)
        ]
        recvbufs = [
            [alloc(world, r, dt.size, device_of[r]) for _ in range(n)]
            for r in range(n)
        ]
        for r in range(n):
            for d in range(n):
                fill_random(sendbufs[r][d], rng)
                recvbufs[r][d].fill(0)

        def program(rank):
            def run(mpi):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=CollAlgorithm.STAGED,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for r in range(n):
            for src in range(n):
                assert np.array_equal(
                    recvbufs[r][src].bytes, sendbufs[src][r].bytes
                ), f"rank {r} from {src}"


@settings(max_examples=8, deadline=None)
@given(
    dt=datatypes(),
    algo=st.sampled_from(RUNGS),
    data=st.randoms(),
)
def test_alltoall_random_datatype(dt, algo, data):
    """Random committed datatypes through every alltoall algorithm."""
    n = 3
    world = build_world(n)
    rng = np.random.default_rng(data.randint(0, 2**31))
    size = max(dt.spans.true_ub, 1) + 64
    sendbufs = []
    recvbufs = []
    for r in range(n):
        srow, rrow = [], []
        for _ in range(n):
            sb = world.procs[r].ctx.malloc(size)
            fill_random(sb, rng)
            rb = world.procs[r].ctx.malloc(size)
            rb.fill(0)
            srow.append(sb)
            rrow.append(rb)
        sendbufs.append(srow)
        recvbufs.append(rrow)

    def program(rank):
        def run(mpi):
            yield from alltoall(
                mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                algorithm=algo,
            )
        return run

    world.run({r: program(r) for r in range(n)})
    for r in range(n):
        for src in range(n):
            assert np.array_equal(
                pack_bytes(dt, 1, recvbufs[r][src].bytes),
                pack_bytes(dt, 1, sendbufs[src][r].bytes),
            ), f"{algo.value}: rank {r} from {src}"


@settings(max_examples=10, deadline=None)
@given(dt=datatypes(), n_ranks=st.integers(2, 4), data=st.randoms())
def test_bcast_random_datatype(dt, n_ranks, data):
    world = MpiWorld(Cluster(1, n_ranks), [(0, g) for g in range(n_ranks)])
    rng = np.random.default_rng(data.randint(0, 2**31))
    size = max(dt.spans.true_ub, 1) + 64
    bufs = [world.procs[r].ctx.malloc(size) for r in range(n_ranks)]
    bufs[0].bytes[:] = rng.integers(0, 255, size, dtype=np.uint8)

    def program(rank):
        def run(mpi):
            yield from bcast(mpi, bufs[rank], dt, 1, root=0)

        return run

    world.run({r: program(r) for r in range(n_ranks)})
    want = pack_bytes(dt, 1, bufs[0].bytes)
    for r in range(1, n_ranks):
        assert np.array_equal(pack_bytes(dt, 1, bufs[r].bytes), want)


class TestChaos:
    """Seeded AM drops: the retransmit layer must keep results exact."""

    @pytest.mark.parametrize("algo", RUNGS)
    def test_alltoall_under_drops(self, algo):
        n = 4
        config = MpiConfig(
            faults=FaultSpec(seed=23, am_drop=0.15, max_faults=40)
        )
        world = build_world(n, config=config)
        rng = np.random.default_rng(23)
        dt = contiguous(64, DOUBLE).commit()
        sendbufs = [
            [alloc(world, r, dt.size, True) for _ in range(n)]
            for r in range(n)
        ]
        recvbufs = [
            [alloc(world, r, dt.size, True) for _ in range(n)]
            for r in range(n)
        ]
        for r in range(n):
            for d in range(n):
                fill_random(sendbufs[r][d], rng)
                recvbufs[r][d].fill(0)

        def program(rank):
            def run(mpi):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=algo,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for r in range(n):
            for src in range(n):
                assert np.array_equal(
                    recvbufs[r][src].bytes, sendbufs[src][r].bytes
                ), f"{algo.value}: rank {r} from {src}"

    def test_interleaved_ops_under_drops(self):
        """bcast + alltoall + gather back-to-back with drops enabled —
        the disjoint tag sub-spaces keep matching unambiguous even with
        retransmitted fragments in flight."""
        n = 3
        config = MpiConfig(
            faults=FaultSpec(seed=31, am_drop=0.2, max_faults=30)
        )
        world = build_world(n, config=config)
        rng = np.random.default_rng(31)
        dt = contiguous(48, DOUBLE).commit()
        bbufs = [alloc(world, r, dt.size, True) for r in range(n)]
        fill_random(bbufs[0], rng)
        sendbufs = [
            [alloc(world, r, dt.size, True) for _ in range(n)]
            for r in range(n)
        ]
        recvbufs = [
            [alloc(world, r, dt.size, True) for _ in range(n)]
            for r in range(n)
        ]
        gslots = [alloc(world, 0, dt.size, True) for _ in range(n)]
        for r in range(n):
            for d in range(n):
                fill_random(sendbufs[r][d], rng)
                recvbufs[r][d].fill(0)
        for b in gslots:
            b.fill(0)

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bbufs[rank], dt, 1, root=0)
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1
                )
                yield from gather(
                    mpi, sendbufs[rank][rank], dt, 1,
                    gslots if rank == 0 else None,
                    dt if rank == 0 else None,
                    1, root=0,
                )
            return run

        world.run({r: program(r) for r in range(n)})
        for r in range(1, n):
            assert np.array_equal(bbufs[r].bytes, bbufs[0].bytes)
        for r in range(n):
            for src in range(n):
                assert np.array_equal(
                    recvbufs[r][src].bytes, sendbufs[src][r].bytes
                )
            assert np.array_equal(gslots[r].bytes, sendbufs[r][r].bytes)
