"""Tests for datatype-aware collectives over the GPU protocols."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.datatype import canonical
from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous
from repro import sanitize
from repro.mpi import collectives
from repro.datatype.primitives import BYTE, DOUBLE
from repro.faults.plan import FaultSpec
from repro.hw.node import Cluster
from repro.mpi.collectives import (
    _COLL_OP_INDEX,
    _COLL_OP_SPAN,
    _COLL_TAG_BASE,
    CollAlgorithm,
    allgather,
    alltoall,
    alltoallv,
    bcast,
    gather,
    _op_tag,
)
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld
from repro.sanitize import SanitizeOptions
from repro.sim.core import SimulationError
from repro.workloads.matrices import lower_triangular_type


def gpu_world(n_ranks: int, config: MpiConfig | None = None) -> MpiWorld:
    cluster = Cluster(1, n_ranks)
    return MpiWorld(cluster, [(0, g) for g in range(n_ranks)], config)


class TestBcast:
    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_triangular_bcast(self, n_ranks, rng):
        world = gpu_world(n_ranks)
        n = 48
        T = lower_triangular_type(n)
        bufs = [world.procs[r].ctx.malloc(n * n * 8) for r in range(n_ranks)]
        bufs[0].write(rng.random(n * n))

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bufs[rank], T, 1, root=0)
            return run

        world.run({r: program(r) for r in range(n_ranks)})
        want = pack_bytes(T, 1, bufs[0].bytes)
        for r in range(1, n_ranks):
            assert np.array_equal(pack_bytes(T, 1, bufs[r].bytes), want)

    def test_nonzero_root(self, rng):
        world = gpu_world(3)
        dt = contiguous(256, DOUBLE).commit()
        bufs = [world.procs[r].ctx.malloc(2048) for r in range(3)]
        bufs[2].write(rng.random(256))

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bufs[rank], dt, 1, root=2)
            return run

        world.run({r: program(r) for r in range(3)})
        for r in range(3):
            assert np.array_equal(bufs[r].bytes, bufs[2].bytes)

    def test_single_rank_returns_bytes_moved(self):
        """World size 1 honours the 'bytes moved per rank' contract —
        the old early-return of 0 forced bench sweeps to special-case."""
        world = gpu_world(1)
        dt = contiguous(8, DOUBLE).commit()
        buf = world.procs[0].ctx.malloc(256)

        def program(mpi):
            got = yield from bcast(mpi, buf, dt, 1)
            assert got == dt.size

        world.run([program])

    def test_binomial_beats_linear_time(self, rng):
        """log2 rounds: 4-rank bcast ~2 sequential hops, not 3."""
        world = gpu_world(4)
        dt = contiguous(1 << 18, DOUBLE).commit()  # 2 MiB
        bufs = [world.procs[r].ctx.malloc(dt.size) for r in range(4)]
        bufs[0].write(rng.random(1 << 18))

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bufs[rank], dt, 1, root=0)
            return run

        world.run({r: program(r) for r in range(4)})  # warm-up
        t4 = world.run({r: program(r) for r in range(4)})

        world2 = gpu_world(2)
        bufs2 = [world2.procs[r].ctx.malloc(dt.size) for r in range(2)]
        bufs2[0].write(rng.random(1 << 18))

        def program2(rank):
            def run(mpi):
                yield from bcast(mpi, bufs2[rank], dt, 1, root=0)
            return run

        world2.run({r: program2(r) for r in range(2)})
        t2 = world2.run({r: program2(r) for r in range(2)})
        # binomial: 4 ranks take ~2 rounds => < 2.6x the 2-rank time
        assert t4 < t2 * 2.6


class TestGather:
    def test_gather_triangular_to_root(self, rng):
        n_ranks = 3
        world = gpu_world(n_ranks)
        n = 32
        T = lower_triangular_type(n)
        packed = contiguous(T.size // 8, DOUBLE).commit()
        sendbufs = [world.procs[r].ctx.malloc(n * n * 8) for r in range(n_ranks)]
        for b in sendbufs:
            b.write(rng.random(n * n))
        recvbufs = [world.procs[0].ctx.malloc(T.size) for _ in range(n_ranks)]

        def program(rank):
            def run(mpi):
                yield from gather(
                    mpi, sendbufs[rank], T, 1,
                    recvbufs if rank == 0 else None,
                    packed if rank == 0 else None,
                    1, root=0,
                )
            return run

        world.run({r: program(r) for r in range(n_ranks)})
        for r in range(n_ranks):
            assert np.array_equal(
                recvbufs[r].bytes, pack_bytes(T, 1, sendbufs[r].bytes)
            )


class TestTagSpaces:
    """Regression coverage for the per-op disjoint tag sub-spaces."""

    def test_same_seq_different_ops_never_collide(self):
        """The original bug: bcast seq k == gather seq k tag-wise."""
        for k in range(256):
            assert _op_tag("bcast", k) != _op_tag("gather", k)

    def test_all_op_subspaces_disjoint(self):
        seen: dict[int, tuple] = {}
        for op in _COLL_OP_INDEX:
            for seq in (0, 1, 7, 1000, _COLL_OP_SPAN - 1):
                tag = _op_tag(op, seq)
                lo = _COLL_TAG_BASE + _COLL_OP_INDEX[op] * _COLL_OP_SPAN
                assert lo <= tag < lo + _COLL_OP_SPAN
                assert tag not in seen, (op, seq, seen[tag])
                seen[tag] = (op, seq)

    def test_interleaved_collective_types(self, rng):
        """Two different collectives back-to-back under AM delays.

        With the old shared tag arithmetic, bcast seq k and allgather
        seq k messages between the same pair could cross-match when
        injection reordered deliveries; disjoint sub-spaces make the
        match unambiguous.  Verify byte-exact results end to end.
        """
        n_ranks = 3
        world = gpu_world(
            n_ranks,
            MpiConfig(
                faults=FaultSpec(seed=11, am_delay=0.5, am_delay_s=300e-6)
            ),
        )
        dt = contiguous(64, DOUBLE).commit()
        bbufs = [world.procs[r].ctx.malloc(dt.size) for r in range(n_ranks)]
        bbufs[0].write(rng.random(64))
        sendbufs = [world.procs[r].ctx.malloc(dt.size) for r in range(n_ranks)]
        for i, b in enumerate(sendbufs):
            b.write(np.full(64, float(i + 10)))
        recv = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(n_ranks)]
            for r in range(n_ranks)
        ]

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bbufs[rank], dt, 1, root=0)
                yield from allgather(
                    mpi, sendbufs[rank], dt, 1, recv[rank], dt, 1
                )
                yield from bcast(mpi, bbufs[rank], dt, 1, root=1)
            return run

        world.run({r: program(r) for r in range(n_ranks)})
        for r in range(1, n_ranks):
            assert np.array_equal(bbufs[r].bytes, bbufs[0].bytes)
        for r in range(n_ranks):
            for src in range(n_ranks):
                assert (recv[r][src].view("f8") == float(src + 10)).all()


class TestGatherValidation:
    """The root must pass a real receive spec — no silent zero-gather."""

    def _run_bad_gather(self, **kw):
        world = gpu_world(2)
        dt = contiguous(8, DOUBLE).commit()
        sendbufs = [world.procs[r].ctx.malloc(dt.size) for r in range(2)]
        for b in sendbufs:
            b.fill(1)
        recvbufs = [world.procs[0].ctx.malloc(dt.size) for _ in range(2)]
        args = dict(recvbufs=recvbufs, recv_dt=dt, recv_count=1)
        args.update(kw)

        def program(rank):
            def run(mpi):
                yield from gather(
                    mpi, sendbufs[rank], dt, 1,
                    args["recvbufs"] if rank == 0 else None,
                    args["recv_dt"] if rank == 0 else None,
                    args["recv_count"], root=0,
                )
            return run

        world.run({r: program(r) for r in range(2)})

    def test_missing_recv_count_rejected(self):
        with pytest.raises(ValueError, match="recv_count must be a positive"):
            self._run_bad_gather(recv_count=None)

    def test_zero_recv_count_rejected(self):
        """The old default of 0 silently received nothing into every slot."""
        with pytest.raises(ValueError, match="recv_count must be a positive"):
            self._run_bad_gather(recv_count=0)

    def test_missing_recvbufs_rejected(self):
        with pytest.raises(ValueError, match="must pass recvbufs"):
            self._run_bad_gather(recvbufs=None)

    def test_short_recvbufs_rejected(self):
        world = gpu_world(3)
        dt = contiguous(8, DOUBLE).commit()
        sendbufs = [world.procs[r].ctx.malloc(dt.size) for r in range(3)]
        for b in sendbufs:
            b.fill(1)
        recvbufs = [world.procs[0].ctx.malloc(dt.size) for _ in range(2)]

        def program(rank):
            def run(mpi):
                yield from gather(
                    mpi, sendbufs[rank], dt, 1,
                    recvbufs if rank == 0 else None,
                    dt if rank == 0 else None,
                    1, root=0,
                )
            return run

        with pytest.raises(ValueError, match="one recv buffer per rank"):
            world.run({r: program(r) for r in range(3)})


class TestBadArguments:
    """A bad root, count or datatype fails at the call on every rank,
    naming the call and the argument, before anything is posted."""

    def world2(self):
        world = gpu_world(2)
        dt = contiguous(8, DOUBLE).commit()
        return world, dt, [world.procs[r].ctx.malloc(dt.size) for r in range(2)]

    @pytest.mark.parametrize("root", [5, -1, 2])
    def test_bcast_root_outside_the_world(self, root):
        """``root=5`` and ``root=-1`` used to complete and move nothing."""
        world, dt, bufs = self.world2()
        for r in range(2):
            with pytest.raises(ValueError, match=f"bcast: root={root} "):
                bcast(world.context(r), bufs[r], dt, 1, root=root)
        assert world.sim.events_processed == 0

    def test_gather_root_outside_the_world(self):
        """``root=7`` used to fail inside isend as "dest=7 is not a
        rank"."""
        world, dt, bufs = self.world2()
        for r in range(2):
            with pytest.raises(ValueError, match="gather: root=7 "):
                gather(world.context(r), bufs[r], dt, 1, None, None, root=7)
        assert world.sim.events_processed == 0

    @pytest.mark.parametrize("call, match", [
        ("bcast", "bcast: count=-4 "),
        ("gather", "gather: send_count=-4 "),
        ("allgather send", "allgather: counts must be >= 0, got send_count=-4"),
        ("allgather recv", "allgather: counts must be >= 0, .* recv_count=-4"),
    ], ids=["bcast", "gather", "allgather-send", "allgather-recv"])
    def test_negative_count(self, call, match):
        """``bcast(count=-4)`` used to fail in a metrics counter as
        "negative increment -4"."""
        world, dt, bufs = self.world2()
        mpi = world.context(0)
        calls = {
            "bcast": lambda: bcast(mpi, bufs[0], dt, -4),
            "gather": lambda: gather(mpi, bufs[0], dt, -4, bufs, dt, 1),
            "allgather send": lambda: allgather(mpi, bufs[0], dt, -4, bufs, dt, 1),
            "allgather recv": lambda: allgather(mpi, bufs[0], dt, 1, bufs, dt, -4),
        }
        with pytest.raises(ValueError, match=match):
            calls[call]()

    @pytest.mark.parametrize("call, arg", [
        ("bcast", "dt"),
        ("gather", "send_dt"),
        ("gather", "recv_dt"),
        ("allgather", "send_dt"),
        ("allgather", "recv_dt"),
        ("alltoall", "send_dt"),
        ("alltoallv", "recv_dt"),
    ])
    def test_primitive_datatype(self, call, arg):
        """A primitive used to fail as ``AttributeError: 'Primitive'
        object has no attribute 'commit'``."""
        world, dt, bufs = self.world2()
        mpi = world.context(0)
        send = BYTE if arg in ("dt", "send_dt") else dt
        recv = BYTE if arg == "recv_dt" else dt
        calls = {
            "bcast": lambda: bcast(mpi, bufs[0], send, 64),
            "gather": lambda: gather(mpi, bufs[0], send, 1, bufs, recv, 1),
            "allgather": lambda: allgather(mpi, bufs[0], send, 1, bufs, recv, 1),
            "alltoall": lambda: alltoall(mpi, bufs, send, 1, bufs, recv, 1),
            "alltoallv": lambda: alltoallv(
                mpi, bufs, send, [1, 1], bufs, recv, [1, 1]
            ),
        }
        with pytest.raises(TypeError, match=f"{call}: {arg}=MPI_BYTE "):
            calls[call]()

    @pytest.mark.parametrize("call, match", [
        ("bcast", r"bcast: buf=None "),
        ("gather", r"gather: recvbufs=5 is a int, not a list"),
        ("gather entry", r"gather: recvbufs\[1\]=None "),
        ("allgather", r"allgather: recvbufs\[1\]=None "),
        ("allgather sendbuf", r"allgather: sendbuf=2.5 "),
        ("alltoall", r"alltoall: sendbufs\[0\]=None "),
        ("alltoallv", r"alltoallv: send_counts=None is a NoneType, not a list"),
    ])
    def test_bad_buffer_or_list(self, call, match):
        """These used to fail as ``AttributeError: 'NoneType' object has
        no attribute 'is_device'`` (bcast) or ``'is_host'`` (allgather),
        "object of type 'int' has no len()" (gather) and "'NoneType'
        object is not iterable" (alltoallv), naming neither the call nor
        the argument."""
        world, dt, bufs = self.world2()
        mpi = world.context(0)
        calls = {
            "bcast": lambda: bcast(mpi, None, dt, 1),
            "gather": lambda: gather(mpi, bufs[0], dt, 1, 5, dt, 1),
            "gather entry": lambda: gather(
                mpi, bufs[0], dt, 1, [bufs[0], None], dt, 1
            ),
            "allgather": lambda: allgather(
                mpi, bufs[0], dt, 1, [bufs[0], None], dt, 1
            ),
            "allgather sendbuf": lambda: allgather(mpi, 2.5, dt, 1, bufs, dt, 1),
            "alltoall": lambda: alltoall(mpi, [None, bufs[1]], dt, 1, bufs, dt, 1),
            "alltoallv": lambda: alltoallv(mpi, bufs, dt, None, bufs, dt, [1, 1]),
        }
        with pytest.raises(TypeError, match=match):
            calls[call]()
        assert world.sim.events_processed == 0

    @pytest.mark.parametrize("call, arg, value", [
        ("bcast", "root", None),
        ("bcast", "count", None),
        ("bcast", "count", 2.0),
        ("gather", "root", 1.0),
        ("gather", "send_count", None),
        ("gather", "recv_count", 1.5),
        ("allgather", "send_count", 1.0),
        ("allgather", "recv_count", None),
        ("alltoall", "send_count", 2.5),
        ("alltoall", "recv_count", None),
        ("alltoallv", "send_counts[0]", 1.0),
        ("alltoallv", "recv_counts[1]", None),
    ])
    def test_non_integer_argument(self, call, arg, value):
        """A ``None`` root or count used to fail as a bare "'<' not
        supported", a float count inside NumPy or not at all."""
        world, dt, bufs = self.world2()
        for r in range(2):
            mpi = world.context(r)
            kw = {arg: value}

            def val(name, default):
                return kw.get(name, default)

            calls = {
                "bcast": lambda: bcast(
                    mpi, bufs[r], dt, val("count", 1), root=val("root", 0)
                ),
                "gather": lambda: gather(
                    mpi, bufs[r], dt, val("send_count", 1), bufs, dt,
                    val("recv_count", 1), root=val("root", r),
                ),
                "allgather": lambda: allgather(
                    mpi, bufs[r], dt, val("send_count", 1), bufs, dt,
                    val("recv_count", 1),
                ),
                "alltoall": lambda: alltoall(
                    mpi, bufs, dt, val("send_count", 1), bufs, dt,
                    val("recv_count", 1),
                ),
                "alltoallv": lambda: alltoallv(
                    mpi, bufs, dt, [val("send_counts[0]", 1), 1], bufs, dt,
                    [1, val("recv_counts[1]", 1)],
                ),
            }
            want = f"{call}: {arg}={value!r} is a {type(value).__name__}, "
            with pytest.raises(TypeError, match=re.escape(want)):
                calls[call]()
        assert world.sim.events_processed == 0

    #: call -> the error it raises for four 64-byte elements on 64 bytes
    PAST_THE_BUFFER = {
        "bcast": r"bcast: count=4 elements reach byte 256, past the end of "
                 r"buf \(64 bytes\)",
        "gather-send": r"gather: send_count=4 .* sendbuf ",
        "gather-recv": r"gather: recv_count=4 .* recvbufs\[0\] ",
        "allgather-send": r"allgather: send_count=4 .* sendbuf ",
        "allgather-recv": r"allgather: recv_count=4 .* recvbufs\[0\] ",
        "alltoall": r"alltoall: send_count=4 .* sendbufs\[0\] ",
        "alltoallv-send": r"alltoallv: send_counts\[1\]=4 .* sendbufs\[1\] ",
        "alltoallv-recv": r"alltoallv: recv_counts\[1\]=4 .* recvbufs\[1\] ",
    }

    @pytest.mark.parametrize("where", ["device", "host"])
    @pytest.mark.parametrize("call", list(PAST_THE_BUFFER))
    def test_count_past_the_buffer(self, call, where):
        """Four 64-byte elements on a 64-byte buffer used to fail inside
        the transfer, with ``IndexError`` on device buffers and NumPy's
        "could not broadcast" on host buffers; a list entry is named by
        its index."""
        if where == "device":
            world, dt, bufs = self.world2()
        else:
            world = MpiWorld(Cluster(1, 0), [(0, None)] * 2)
            dt = contiguous(8, DOUBLE).commit()
            bufs = [world.context(r).host_alloc(dt.size) for r in range(2)]
        mpi = world.context(0)
        calls = {
            "bcast": lambda: bcast(mpi, bufs[0], dt, 4),
            "gather-send": lambda: gather(mpi, bufs[0], dt, 4, bufs, dt, 1),
            "gather-recv": lambda: gather(mpi, bufs[0], dt, 1, bufs, dt, 4),
            "allgather-send": lambda: allgather(mpi, bufs[0], dt, 4, bufs, dt, 1),
            "allgather-recv": lambda: allgather(mpi, bufs[0], dt, 1, bufs, dt, 4),
            "alltoall": lambda: alltoall(mpi, bufs, dt, 4, bufs, dt, 1),
            "alltoallv-send": lambda: alltoallv(
                mpi, bufs, dt, [1, 4], bufs, dt, [1, 1]
            ),
            "alltoallv-recv": lambda: alltoallv(
                mpi, bufs, dt, [1, 1], bufs, dt, [1, 4]
            ),
        }
        with pytest.raises(ValueError, match=self.PAST_THE_BUFFER[call]):
            calls[call]()
        assert world.sim.events_processed == 0

    def test_numpy_integers_accepted_floats_rejected(self):
        """NumPy integer roots and counts run; a whole float does not
        (``bcast(count=2.0)`` used to fail inside NumPy)."""
        world, dt, bufs = self.world2()
        bufs[1].bytes[:] = 7
        bufs[0].fill(0)

        def program(rank):
            def run(mpi):
                yield from bcast(
                    mpi, bufs[rank], dt, np.int64(1), root=np.int64(1)
                )
                yield from alltoallv(
                    mpi, [bufs[rank]] * 2, dt, [np.int32(0)] * 2,
                    [bufs[rank]] * 2, dt, [np.int64(0)] * 2,
                )
            return run

        world.run({r: program(r) for r in range(2)})
        assert np.array_equal(bufs[0].bytes, bufs[1].bytes)
        with pytest.raises(TypeError, match="bcast: count=2.0 "):
            bcast(world.context(0), bufs[0], dt, 2.0)


class TestAllgather:
    def test_ring_allgather(self, rng):
        n_ranks = 4
        world = gpu_world(n_ranks)
        dt = contiguous(512, DOUBLE).commit()
        sendbufs = [world.procs[r].ctx.malloc(dt.size) for r in range(n_ranks)]
        for i, b in enumerate(sendbufs):
            b.write(np.full(512, float(i + 1)))
        recv = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(n_ranks)]
            for r in range(n_ranks)
        ]

        def program(rank):
            def run(mpi):
                yield from allgather(
                    mpi, sendbufs[rank], dt, 1, recv[rank], dt, 1
                )
            return run

        world.run({r: program(r) for r in range(n_ranks)})
        for r in range(n_ranks):
            for src in range(n_ranks):
                assert (recv[r][src].view("f8") == float(src + 1)).all(), (
                    f"rank {r} block {src}"
                )


def two_node_world(config: MpiConfig | None = None) -> MpiWorld:
    """4 ranks over 2 nodes x 2 GPUs — exercises intra- and inter-node."""
    cluster = Cluster(2, 2)
    placements = [(n, g) for n in range(2) for g in range(2)]
    return MpiWorld(cluster, placements, config)


class TestAlltoall:
    """alltoall across every rung of the algorithm ladder."""

    @pytest.mark.parametrize("algo", list(CollAlgorithm))
    def test_all_algorithms_byte_identical(self, algo):
        world = two_node_world()
        size = 4
        count = 32
        dt = contiguous(count, DOUBLE).commit()
        sendbufs = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(size)]
            for r in range(size)
        ]
        for r in range(size):
            for d in range(size):
                sendbufs[r][d].write(np.full(count, float(r * 10 + d)))
        recvbufs = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(size)]
            for r in range(size)
        ]

        def program(rank):
            def run(mpi):
                moved = yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=algo,
                )
                assert moved == dt.size * size
            return run

        world.run({r: program(r) for r in range(size)})
        for r in range(size):
            for src in range(size):
                assert (recvbufs[r][src].view("f8") == float(src * 10 + r)).all(), (
                    f"algo {algo.value}: rank {r} block from {src}"
                )

    def test_config_knob_selects_algorithm(self):
        """MpiConfig.coll_algorithm drives selection; counters record it."""
        world = two_node_world(MpiConfig(coll_algorithm="staged"))
        size = 4
        dt = contiguous(16, DOUBLE).commit()
        sendbufs = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(size)]
            for r in range(size)
        ]
        recvbufs = [
            [world.procs[r].ctx.malloc(dt.size) for _ in range(size)]
            for r in range(size)
        ]
        for r in range(size):
            for d in range(size):
                sendbufs[r][d].fill(r + 1)

        def program(rank):
            def run(mpi):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1
                )
            return run

        world.run({r: program(r) for r in range(size)})
        assert world.stats().coll_ops.get("alltoall.staged") == size

    def test_unknown_algorithm_rejected(self):
        world = gpu_world(2)
        dt = contiguous(8, DOUBLE).commit()
        bufs = [world.procs[r].ctx.malloc(dt.size) for r in range(2)]
        bufs[0].fill(3)

        def program(rank):
            def run(mpi):
                yield from bcast(mpi, bufs[rank], dt, 1, algorithm="quantum")
            return run

        with pytest.raises(ValueError, match="unknown collective algorithm"):
            world.run({r: program(r) for r in range(2)})

    @pytest.mark.xfail(
        strict=True, raises=SimulationError,
        reason="docs/COLLECTIVES.md known limit: staged drops the zero-byte "
        "legs nonblocking posts (ROADMAP item 6)",
    )
    def test_auto_alltoallv_zero_counts_mixed_placement(self, rng):
        """Under ``auto`` the device ranks stage and the host ranks take
        the nonblocking rung; a zero count between them leaves one side
        waiting for a leg the other never posts."""
        world = MpiWorld(Cluster(2, 1), [(0, 0), (1, 0), (0, None), (1, None)])
        size = 4
        rec = contiguous(64, BYTE).commit()
        counts = np.array([[2, 0, 3, 1], [1, 2, 0, 4], [0, 3, 1, 2], [4, 1, 2, 0]])

        def alloc(r):
            proc = world.procs[r]
            if proc.gpu is not None:
                return proc.ctx.malloc(4 * rec.size)
            return proc.node.host_memory.alloc(4 * rec.size)

        send = [[alloc(r) for _d in range(size)] for r in range(size)]
        recv = [[alloc(r) for _s in range(size)] for r in range(size)]
        for row in send:
            for b in row:
                b.write(rng.integers(0, 256, b.nbytes, dtype=np.uint8))

        def program(mpi):
            r = mpi.rank
            yield from alltoallv(mpi, send[r], rec, counts[r].tolist(),
                                 recv[r], rec, counts[:, r].tolist())

        # the stuck run's verify.deadlock findings (REPRO_SANITIZE=verify
        # or all) go to an isolated report, not the session's
        with sanitize.enabled(SanitizeOptions.from_env()):
            world.run([program] * size)
        for r in range(size):
            for s in range(size):
                k = int(counts[s, r]) * rec.size
                assert np.array_equal(recv[r][s].bytes[:k], send[s][r].bytes[:k])


class TestAliasedBuffers:
    """Blocks whose buffers alias are still distinct blocks: the staged
    rung packs and lands each one in its own slot, and delivers what
    the nonblocking rung delivers."""

    SIZE = 4
    ELEMS = 64

    def _alltoallv_shared_send(self, algo):
        """Each rank sends every peer a prefix of ONE buffer, with ragged
        counts (1-3 blocks), so peers share a buffer but not a count."""
        size, elems = self.SIZE, self.ELEMS
        world = two_node_world()
        dt = contiguous(elems, DOUBLE).commit()
        counts = [[(s + d) % 3 + 1 for d in range(size)] for s in range(size)]
        sendbufs = []
        for r in range(size):
            buf = world.procs[r].ctx.malloc(3 * dt.size)
            buf.write(np.arange(3 * elems, dtype="f8") + 1000 * r)
            sendbufs.append(buf)
        recvbufs = [
            [world.procs[r].ctx.malloc(3 * dt.size) for _ in range(size)]
            for r in range(size)
        ]

        def program(rank):
            def run(mpi):
                yield from alltoallv(
                    mpi, [sendbufs[rank]] * size, dt, counts[rank],
                    recvbufs[rank], dt, [counts[s][rank] for s in range(size)],
                    algorithm=algo,
                )
            return run

        world.run({r: program(r) for r in range(size)})
        got = {
            (r, s): recvbufs[r][s].view("f8")[: elems * counts[s][r]].copy()
            for r in range(size) for s in range(size)
        }
        for (r, s), data in got.items():
            want = sendbufs[s].view("f8")[: elems * counts[s][r]]
            assert np.array_equal(data, want), f"{algo}: rank {r} from {s}"
        return got

    @pytest.mark.parametrize("algo", ["staged", "auto"])
    def test_alltoallv_shared_send_buffer_ragged_counts(self, algo):
        got = self._alltoallv_shared_send(algo)
        want = self._alltoallv_shared_send("nonblocking")
        for key, data in got.items():
            assert np.array_equal(data, want[key]), key

    def _alltoall(self, algo, sends: str):
        """Run one alltoall; ``sends`` is "distinct" (a buffer per peer,
        holding ``10 * rank + peer``), "shared" (one buffer holding
        ``10 * rank`` for every peer) or "in_place" (the distinct send
        list doubles as the receive list).  Returns (received, time)."""
        size, elems = self.SIZE, self.ELEMS
        world = two_node_world()
        dt = contiguous(elems, DOUBLE).commit()

        def bufs(rank, n):
            return [world.procs[rank].ctx.malloc(dt.size) for _ in range(n)]

        sendbufs = []
        for r in range(size):
            if sends == "shared":
                (one,) = bufs(r, 1)
                one.write(np.full(elems, float(10 * r)))
                sendbufs.append([one] * size)
            else:
                sendbufs.append(bufs(r, size))
                for d, buf in enumerate(sendbufs[r]):
                    buf.write(np.full(elems, float(10 * r + d)))
        if sends == "in_place":
            recvbufs = sendbufs
        else:
            recvbufs = [bufs(r, size) for r in range(size)]

        def program(rank):
            def run(mpi):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=algo,
                )
            return run

        elapsed = world.run({r: program(r) for r in range(size)})
        got = [[b.view("f8").copy() for b in row] for row in recvbufs]
        return got, elapsed

    def test_alltoall_send_list_is_recv_list(self):
        got, _t = self._alltoall("staged", "in_place")
        want, _t = self._alltoall("nonblocking", "in_place")
        for r in range(self.SIZE):
            for s in range(self.SIZE):
                assert (got[r][s] == float(10 * s + r)).all(), (r, s)
                assert np.array_equal(got[r][s], want[r][s]), (r, s)

    def test_staged_packs_each_aliased_block(self):
        """Sending one buffer to every peer costs what sending distinct
        buffers costs: one pack per peer block."""
        got, shared = self._alltoall("staged", "shared")
        _got, distinct = self._alltoall("staged", "distinct")
        assert shared == distinct
        for r in range(self.SIZE):
            for s in range(self.SIZE):
                assert (got[r][s] == float(10 * s)).all(), (r, s)


class TestLayoutMemosBounded:
    """An alltoallv whose counts are redrawn on every call asks for a new
    packed wire type and a new stream plan almost every call; both memos
    stay under their bounds, and clearing them changes no byte."""

    @pytest.mark.parametrize("algo", ["staged", "nonblocking"])
    def test_alltoallv_redrawn_counts(self, algo, monkeypatch):
        monkeypatch.setattr(collectives, "_PACKED_CACHE", {})
        monkeypatch.setattr(collectives, "_PACKED_MAX", 8)
        monkeypatch.setattr(canonical, "_PLANS_MAX", 8)
        size, elems, calls, most = 4, 16, 6, 12
        world = two_node_world()
        dt = contiguous(elems, DOUBLE).commit()
        # counts[call][src][dst], 13 distinct values against bounds of 8
        counts = np.random.default_rng(21).integers(0, most + 1, (calls, size, size))
        assert len(np.unique(counts)) > 8
        sendbufs = [
            [world.procs[r].ctx.malloc(most * dt.size) for _ in range(size)]
            for r in range(size)
        ]
        for r in range(size):
            for d in range(size):
                sendbufs[r][d].write(
                    np.arange(most * elems, dtype="f8") + 1000 * r + 100 * d
                )
        recvbufs = [
            [world.procs[r].ctx.malloc(most * dt.size) for _ in range(size)]
            for r in range(size)
        ]
        peaks = {"packed": 0, "plans": 0}

        def program(rank):
            def run(mpi):
                for c in range(calls):
                    yield from alltoallv(
                        mpi, sendbufs[rank], dt, counts[c][rank].tolist(),
                        recvbufs[rank], dt, counts[c][:, rank].tolist(),
                        algorithm=algo,
                    )
                    for s in range(size):
                        n = int(counts[c][s][rank]) * elems
                        got = recvbufs[rank][s].view("f8")[:n]
                        want = sendbufs[s][rank].view("f8")[:n]
                        assert np.array_equal(got, want), (algo, c, rank, s)
                    peaks["packed"] = max(peaks["packed"],
                                          len(collectives._PACKED_CACHE))
                    peaks["plans"] = max(peaks["plans"], len(dt._plans))
                    yield mpi.barrier()
            return run

        world.run({r: program(r) for r in range(size)})
        assert 0 < peaks["plans"] <= 8
        assert peaks["packed"] <= 8
        if algo == "staged":
            assert peaks["packed"] > 0
