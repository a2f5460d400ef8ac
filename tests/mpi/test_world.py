"""End-to-end tests of the MPI world: transports, requests, correctness."""

from __future__ import annotations

import gc
import re
import sys
import types
import weakref

import numpy as np
import pytest

from repro.cuda.uma import is_mapped_host
from repro.datatype.convertor import Convertor, pack_bytes
from repro.datatype.ddt import contiguous, resized, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.faults.plan import FaultSpec, TransferTimeout
from repro.hw.node import Cluster
from repro.mpi.btl.base import Btl
from repro.mpi.config import MpiConfig
from repro.mpi.protocols.common import TransferState
from repro.mpi.world import MpiWorld
from repro.sim.core import Process, SimulationError
from repro.workloads.matrices import lower_triangular_type, submatrix_type


def make_world(kind: str, config=None):
    if kind == "sm-1gpu":
        return MpiWorld(Cluster(1, 1), [(0, 0), (0, 0)], config)
    if kind == "sm-2gpu":
        return MpiWorld(Cluster(1, 2), [(0, 0), (0, 1)], config)
    if kind == "ib":
        return MpiWorld(Cluster(2, 1), [(0, 0), (1, 0)], config)
    if kind == "cpu":
        return MpiWorld(Cluster(1, 1), [(0, None), (0, None)], config)
    raise ValueError(kind)


def alloc(world, rank, nbytes):
    proc = world.procs[rank]
    if proc.gpu is not None:
        return proc.ctx.malloc(nbytes)
    return proc.node.host_memory.alloc(nbytes)


def one_way(world, b0, d0, c0, b1, d1, c1, tag=5):
    def s(mpi):
        yield mpi.send(b0, d0, c0, dest=1, tag=tag)

    def r(mpi):
        got = yield mpi.recv(b1, d1, c1, source=0, tag=tag)
        return got

    return world.run([s, r])


ENVS = ["sm-1gpu", "sm-2gpu", "ib", "cpu"]


class TestTransferCorrectness:
    @pytest.mark.parametrize("kind", ENVS)
    def test_vector_transfer(self, kind, rng):
        world = make_world(kind)
        n, ld = 96, 160
        V = submatrix_type(n, ld)
        b0 = alloc(world, 0, ld * ld * 8)
        b0.write(rng.random(ld * ld))
        b1 = alloc(world, 1, ld * ld * 8)
        one_way(world, b0, V, 1, b1, V, 1)
        assert np.array_equal(pack_bytes(V, 1, b1.bytes), pack_bytes(V, 1, b0.bytes))

    @pytest.mark.parametrize("kind", ENVS)
    def test_triangular_transfer(self, kind, rng):
        world = make_world(kind)
        n = 96
        T = lower_triangular_type(n)
        b0 = alloc(world, 0, n * n * 8)
        b0.write(rng.random(n * n))
        b1 = alloc(world, 1, n * n * 8)
        one_way(world, b0, T, 1, b1, T, 1)
        assert np.array_equal(pack_bytes(T, 1, b1.bytes), pack_bytes(T, 1, b0.bytes))

    @pytest.mark.parametrize("kind", ["sm-2gpu", "ib"])
    def test_sender_contiguous_fast_path(self, kind, rng):
        world = make_world(kind)
        n = 64
        C = contiguous(n * n, DOUBLE).commit()
        V = vector(n, n, 2 * n, DOUBLE).commit()
        b0 = alloc(world, 0, n * n * 8)
        b0.write(rng.random(n * n))
        b1 = alloc(world, 1, 2 * n * n * 8)
        one_way(world, b0, C, 1, b1, V, 1)
        assert np.array_equal(pack_bytes(V, 1, b1.bytes), b0.bytes)

    @pytest.mark.parametrize("kind", ["sm-2gpu", "ib"])
    def test_receiver_contiguous_fast_path(self, kind, rng):
        world = make_world(kind)
        n = 64
        C = contiguous(n * n, DOUBLE).commit()
        V = vector(n, n, 2 * n, DOUBLE).commit()
        b0 = alloc(world, 0, 2 * n * n * 8)
        b0.write(rng.random(2 * n * n))
        b1 = alloc(world, 1, n * n * 8)
        one_way(world, b0, V, 1, b1, C, 1)
        assert np.array_equal(b1.bytes, pack_bytes(V, 1, b0.bytes))

    def test_both_contiguous_get(self, rng):
        world = make_world("sm-2gpu")
        C = contiguous(4096, DOUBLE).commit()
        b0 = alloc(world, 0, 4096 * 8)
        b0.write(rng.random(4096))
        b1 = alloc(world, 1, 4096 * 8)
        one_way(world, b0, C, 1, b1, C, 1)
        assert np.array_equal(b0.bytes, b1.bytes)

    def test_mixed_host_device(self, rng):
        world = MpiWorld(Cluster(1, 1), [(0, None), (0, 0)])
        V = vector(32, 16, 48, DOUBLE).commit()
        b0 = world.procs[0].node.host_memory.alloc(V.extent + 4096)
        b0.write(rng.random((V.extent + 4096) // 8))
        b1 = world.procs[1].ctx.malloc(V.extent + 4096)
        one_way(world, b0, V, 1, b1, V, 1)
        assert np.array_equal(pack_bytes(V, 1, b1.bytes), pack_bytes(V, 1, b0.bytes))

    def test_device_to_host(self, rng):
        world = MpiWorld(Cluster(1, 1), [(0, 0), (0, None)])
        V = vector(32, 16, 48, DOUBLE).commit()
        b0 = world.procs[0].ctx.malloc(V.extent + 4096)
        b0.write(rng.random((V.extent + 4096) // 8))
        b1 = world.procs[1].node.host_memory.alloc(V.extent + 4096)
        one_way(world, b0, V, 1, b1, V, 1)
        assert np.array_equal(pack_bytes(V, 1, b1.bytes), pack_bytes(V, 1, b0.bytes))

    @pytest.mark.parametrize("kind", ENVS)
    def test_eager_small_messages(self, kind, rng):
        world = make_world(kind)
        dt = contiguous(16, DOUBLE).commit()
        b0 = alloc(world, 0, 256)
        b0.write(rng.random(16))
        b1 = alloc(world, 1, 256)
        one_way(world, b0, dt, 1, b1, dt, 1)
        assert np.array_equal(b0.bytes[:128], b1.bytes[:128])

    def test_ipc_disabled_falls_back_to_copyinout(self, rng):
        world = make_world("sm-2gpu", MpiConfig(use_cuda_ipc=False))
        T = lower_triangular_type(64)
        b0 = alloc(world, 0, 64 * 64 * 8)
        b0.write(rng.random(64 * 64))
        b1 = alloc(world, 1, 64 * 64 * 8)
        one_way(world, b0, T, 1, b1, T, 1)
        assert np.array_equal(pack_bytes(T, 1, b1.bytes), pack_bytes(T, 1, b0.bytes))

    def test_no_zero_copy_explicit_staging(self, rng):
        world = make_world("ib", MpiConfig(zero_copy=False))
        T = lower_triangular_type(64)
        b0 = alloc(world, 0, 64 * 64 * 8)
        b0.write(rng.random(64 * 64))
        b1 = alloc(world, 1, 64 * 64 * 8)
        one_way(world, b0, T, 1, b1, T, 1)
        assert np.array_equal(pack_bytes(T, 1, b1.bytes), pack_bytes(T, 1, b0.bytes))


class TestRequests:
    def test_isend_irecv_wait(self, rng):
        world = make_world("cpu")
        dt = contiguous(1024, DOUBLE).commit()
        b0 = alloc(world, 0, 8192)
        b0.write(rng.random(1024))
        b1 = alloc(world, 1, 8192)

        def s(mpi):
            req = mpi.isend(b0, dt, 1, dest=1, tag=1)
            assert not req.test()
            yield req
            assert req.test()

        def r(mpi):
            req = mpi.irecv(b1, dt, 1, source=0, tag=1)
            yield req

        world.run([s, r])
        assert np.array_equal(b0.bytes, b1.bytes)

    def test_multiple_outstanding_messages_ordered(self, rng):
        world = make_world("cpu")
        dt = contiguous(512, DOUBLE).commit()
        srcs = [alloc(world, 0, 4096) for _ in range(3)]
        for i, s_ in enumerate(srcs):
            s_.write(np.full(512, float(i)))
        dsts = [alloc(world, 1, 4096) for _ in range(3)]

        def s(mpi):
            reqs = [mpi.isend(b, dt, 1, dest=1, tag=9) for b in srcs]
            yield mpi.wait_all(*reqs)

        def r(mpi):
            for b in dsts:  # same tag: must match in send order
                yield mpi.recv(b, dt, 1, source=0, tag=9)

        world.run([s, r])
        for i, b in enumerate(dsts):
            assert (b.view("f8") == float(i)).all()

    def test_recv_larger_than_send(self, rng):
        world = make_world("cpu")
        small = contiguous(64, DOUBLE).commit()
        big = contiguous(128, DOUBLE).commit()
        b0 = alloc(world, 0, 512)
        b0.write(rng.random(64))
        b1 = alloc(world, 1, 1024)
        b1.fill(0)
        one_way(world, b0, small, 1, b1, big, 1)
        assert np.array_equal(b1.bytes[:512], b0.bytes)
        assert (b1.bytes[512:] == 0).all()

    def test_signature_mismatch_fails(self, rng):
        world = make_world("cpu")
        d_doubles = contiguous(64, DOUBLE).commit()
        from repro.datatype.primitives import INT
        d_ints = contiguous(64, INT).commit()
        b0 = alloc(world, 0, 512)
        b1 = alloc(world, 1, 512)

        def s(mpi):
            yield mpi.send(b0, d_doubles, 1, dest=1, tag=2)

        def r(mpi):
            yield mpi.recv(b1, d_ints, 1, source=0, tag=2)

        with pytest.raises(Exception):
            world.run([s, r])


class TestArgumentValidation:
    """Bad point-to-point arguments fail at the call, naming the argument.

    A negative rank used to wrap around the process table (``dest=-1``,
    which is also ``ANY_SOURCE``, delivered to the last rank), a rank past
    the end raised a bare ``IndexError``, a negative count failed inside
    NumPy, and a receive from a nonexistent rank deadlocked the run.
    """

    def world3(self):
        return MpiWorld(Cluster(1, 1), [(0, None)] * 3)

    @pytest.mark.parametrize("nbytes", [64, 64 * 1024], ids=["eager", "rndv"])
    @pytest.mark.parametrize("dest", [-1, -2, 3])
    def test_send_to_a_nonexistent_rank(self, dest, nbytes):
        world = self.world3()
        mpi = world.context(0)
        buf = mpi.host_alloc(nbytes)
        with pytest.raises(ValueError, match=f"dest={dest} "):
            mpi.isend(buf, contiguous(1, BYTE).commit(), nbytes, dest=dest)
        world.sim.run()  # nothing was posted, so nothing runs
        assert world.sim.events_processed == 0

    @pytest.mark.parametrize("source", [-2, 3, 5])
    def test_recv_from_a_nonexistent_rank(self, source):
        world = self.world3()
        mpi = world.context(1)
        with pytest.raises(ValueError, match=f"source={source} "):
            mpi.irecv(mpi.host_alloc(8), contiguous(1, BYTE).commit(), 8,
                      source=source)
        assert world.procs[1].matching.posted_count == 0

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_negative_count(self, call):
        world = self.world3()
        mpi = world.context(0)
        with pytest.raises(ValueError, match="count=-1 "):
            getattr(mpi, call)(mpi.host_alloc(8), contiguous(1, BYTE).commit(),
                               -1, 1)

    @pytest.mark.parametrize("placement, arg", [
        ((-1, 0), "node=-1 "), ((1, 0), "node=1 "),
        ((0, -1), "gpu=-1 "), ((0, 2), "gpu=2 "),
    ])
    def test_placement_outside_the_cluster(self, placement, arg):
        """A negative index used to wrap (rank 1 on ``node0.gpu0``), and
        one past the end raised ``IndexError`` at the first run."""
        with pytest.raises(ValueError, match=rf"MpiWorld: placements\[1\] {arg}"):
            MpiWorld(Cluster(1, 2), [(0, 0), placement])

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_primitive_datatype(self, call):
        """A primitive used to fail as ``AttributeError: 'Primitive'
        object has no attribute 'commit'``."""
        world = self.world3()
        mpi = world.context(0)
        with pytest.raises(TypeError, match=f"{call}: datatype=MPI_BYTE "):
            getattr(mpi, call)(mpi.host_alloc(8), BYTE, 8, 1)
        assert world.procs[0].matching.posted_count == 0

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_buffer_not_a_buffer(self, call):
        """``isend(None, ...)`` used to raise ``AttributeError:
        'NoneType' object has no attribute 'is_host'``; ``irecv(None,
        ...)`` was posted and failed so only when a message arrived."""
        world = MpiWorld(Cluster(1, 2), [(0, 0), (0, 1)])
        mpi = world.context(0)
        with pytest.raises(TypeError, match=f"{call}: buf=None "):
            getattr(mpi, call)(None, contiguous(8, BYTE).commit(), 1, 1)
        assert world.procs[0].matching.posted_count == 0
        assert world.sim.events_processed == 0

    @pytest.mark.parametrize("where", ["device", "host"])
    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_count_past_the_buffer(self, call, where):
        """Four 64-byte elements on a 64-byte buffer used to fail inside
        the transfer: ``IndexError: index 4 is out of bounds for axis 0
        with size 4`` on device buffers, NumPy's "could not broadcast" on
        host buffers."""
        world = MpiWorld(Cluster(1, 2), [(0, 0), (0, 1)])
        mpi = world.context(0)
        buf = mpi.device_alloc(64) if where == "device" else mpi.host_alloc(64)
        want = (f"{call}: count=4 elements reach byte 256, past the end of "
                "buf (64 bytes)")
        with pytest.raises(ValueError, match=re.escape(want)):
            getattr(mpi, call)(buf, contiguous(64, BYTE).commit(), 4, 1)
        assert world.procs[0].matching.posted_count == 0
        assert world.sim.events_processed == 0

    def test_count_fits_to_the_last_byte(self):
        """The reach is the last element's last byte, not count x extent:
        four doubles 16 bytes apart fit 56 bytes, not 55."""
        world = make_world("cpu")
        dt = resized(contiguous(1, DOUBLE), 0, 16).commit()
        src = world.context(0).host_alloc(56)
        dst = world.context(1).host_alloc(56)
        src.write(np.arange(7, dtype=np.float64))

        def rank0(mpi):
            yield mpi.send(src, dt, 4, dest=1)

        def rank1(mpi):
            yield mpi.recv(dst, dt, 4, source=0)

        world.run([rank0, rank1])
        assert np.array_equal(dst.read(np.float64, 7)[::2], [0, 2, 4, 6])
        with pytest.raises(ValueError, match="reach byte 56, past the end "
                                             r"of buf \(55 bytes\)"):
            world.context(0).isend(src[:55], dt, 4, dest=1)

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_comm_not_a_communicator(self, call):
        """``isend(..., comm=3)`` used to raise ``AttributeError: 'int'
        object has no attribute 'comm_id'``."""
        world = MpiWorld(Cluster(1, 2), [(0, 0), (0, 1)])
        mpi = world.context(0)
        buf = mpi.device_alloc(8)
        with pytest.raises(TypeError, match=f"{call}: comm=3 "):
            getattr(mpi, call)(buf, contiguous(8, BYTE).commit(), 1, 1,
                               comm=3)
        assert world.sim.events_processed == 0

    @pytest.mark.parametrize("shape, arg", [
        ((0, 1), "n_nodes=0 "), ((-1, 1), "n_nodes=-1 "),
        ((2, -1), "gpus_per_node=-1 "),
    ])
    def test_cluster_shape(self, shape, arg):
        """An empty cluster was built, and its ``repr`` raised
        ``IndexError``; a negative GPU count built GPU-less nodes."""
        with pytest.raises(ValueError, match=f"Cluster: {arg}"):
            Cluster(*shape)

    @pytest.mark.parametrize("call, tag", [
        ("isend", -1), ("isend", -7), ("irecv", -2),
    ])
    def test_negative_tag(self, call, tag):
        """``send(tag=-1)`` used to post a message no receive for a real
        tag matches (-1 is ``ANY_TAG``), ending in a bare deadlock."""
        world = self.world3()
        mpi = world.context(0)
        with pytest.raises(ValueError, match=f"{call}: tag={tag} "):
            getattr(mpi, call)(mpi.host_alloc(8), contiguous(1, BYTE).commit(),
                               8, 1, tag)

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    def test_none_datatype(self, call):
        """``datatype=None`` used to raise ``AttributeError: 'NoneType'
        object has no attribute 'size'``."""
        world = self.world3()
        mpi = world.context(0)
        with pytest.raises(TypeError, match=f"{call}: datatype=None "):
            getattr(mpi, call)(mpi.host_alloc(8), None, 8, 1)
        assert world.procs[0].matching.posted_count == 0

    @pytest.mark.parametrize("call, arg, value", [
        ("isend", "count", 2.5),
        ("isend", "count", None),
        ("isend", "dest", None),
        ("isend", "tag", None),
        ("irecv", "count", 1.0),
        ("irecv", "source", 1.0),
        ("irecv", "tag", None),
    ])
    def test_non_integer_argument(self, call, arg, value):
        """``isend(count=2.5)`` used to fail inside NumPy, a ``None``
        count, dest or tag as a bare "'<' not supported", and
        ``irecv(count=1.0)`` was accepted."""
        world = self.world3()
        mpi = world.context(0)
        peer = "dest" if call == "isend" else "source"
        args = {"count": 8, peer: 1, "tag": 0, arg: value}
        want = f"{call}: {arg}={value!r} is a {type(value).__name__}, "
        with pytest.raises(TypeError, match=re.escape(want)):
            getattr(mpi, call)(
                mpi.host_alloc(8), contiguous(1, BYTE).commit(), **args
            )
        assert world.procs[0].matching.posted_count == 0
        world.sim.run()
        assert world.sim.events_processed == 0

    def test_numpy_integers_accepted_floats_rejected(self):
        """NumPy integers are integers; a float that happens to be whole
        is not (``irecv(count=1.0)`` used to be accepted)."""
        world = make_world("cpu")
        dt = contiguous(64, BYTE).commit()
        src = world.context(0).host_alloc(64)
        dst = world.context(1).host_alloc(64)
        src.fill(3)
        one, seven = np.int64(1), np.int32(7)

        def rank0(mpi):
            yield mpi.send(src, dt, one, dest=one, tag=seven)

        def rank1(mpi):
            yield mpi.recv(dst, dt, one, source=np.int64(0), tag=seven)

        world.run([rank0, rank1])
        assert np.array_equal(dst.bytes, src.bytes)
        with pytest.raises(TypeError, match="irecv: count=1.0 "):
            world.context(1).irecv(dst, dt, 1.0, source=0)

    def test_edge_ranks_and_any_source_still_deliver(self):
        world = self.world3()
        dt = contiguous(1, BYTE).commit()
        bufs = [world.context(r).host_alloc(16) for r in range(3)]
        bufs[0].write(np.arange(16, dtype=np.uint8))

        def r0(mpi):
            yield mpi.wait_all(mpi.isend(bufs[0], dt, 16, dest=2, tag=1),
                               mpi.isend(bufs[0], dt, 0, dest=0, tag=2))
            yield mpi.recv(bufs[0], dt, 0, source=0, tag=2)

        def r1(mpi):
            return
            yield  # pragma: no cover

        def r2(mpi):
            st = yield mpi.recv(bufs[2], dt, 16, tag=1)  # ANY_SOURCE
            assert (st.source, st.count_bytes) == (0, 16)

        world.run([r0, r1, r2])
        assert np.array_equal(bufs[2].bytes, bufs[0].bytes)


class TestPlainDeadlock:
    """Without the verifier, a stuck run still names what each rank's
    matching engine holds (it used to end in a bare "deadlock: 'world.run'
    never completed")."""

    @pytest.mark.parametrize("nbytes, kind", [
        (64, "eager"), (64 * 1024, "rendezvous"),
    ])
    def test_wrong_tag_names_posted_and_unmatched(self, nbytes, kind):
        world = make_world("sm-2gpu")
        dt = contiguous(nbytes, BYTE).commit()
        src, dst = alloc(world, 0, nbytes), alloc(world, 1, nbytes)

        def rank0(mpi):
            yield mpi.send(src, dt, 1, dest=1, tag=8)

        def rank1(mpi):
            yield mpi.recv(dst, dt, 1, source=0, tag=7)

        with pytest.raises(SimulationError, match="deadlock") as exc:
            world.run([rank0, rank1])
        msg = str(exc.value)
        assert "rank 1 posted receive (source=0, tag=7, comm=0)" in msg
        assert (
            f"rank 1 holds an unexpected {kind} message from r0 "
            f"(tag=8, comm=0, {nbytes}B, pair_seq=0)"
        ) in msg
        assert "rank 0" not in msg

    def test_held_out_of_order_arrival_named(self):
        """A message parked behind a missing pair_seq is named with the
        gap it waits for."""
        world = make_world("cpu")
        dt = contiguous(8, BYTE).commit()
        buf = alloc(world, 1, 8)
        eng = world.procs[1].matching
        # pair_seq 1 arrives while 0 never will
        world.procs[0].next_send_seq(1, 0)

        def rank0(mpi):
            yield mpi.send(alloc(world, 0, 8), dt, 1, dest=1, tag=3)

        def rank1(mpi):
            yield mpi.recv(buf, dt, 1, source=0, tag=3)

        with pytest.raises(SimulationError, match="deadlock") as exc:
            world.run([rank0, rank1])
        assert eng._held
        assert (
            "rank 1 held out-of-order arrivals from r0 (comm=0): have "
            "pair_seq [1], the gap at 0 never closed"
        ) in str(exc.value)


class TestBarrier:
    def test_barrier_synchronizes(self):
        world = make_world("cpu")
        order = []

        def a(mpi):
            order.append("a-before")
            yield mpi.barrier()
            order.append("a-after")

        def b(mpi):
            yield mpi.sim.timeout(1e-3)
            order.append("b-before")
            yield mpi.barrier()
            order.append("b-after")

        world.run([a, b])
        assert order[:2] == ["a-before", "b-before"]


class TestSteadyStateReuse:
    def test_pingpong_many_iterations_stable(self, rng):
        """Registration/caching makes iteration 3 as fast as iteration 2."""
        world = make_world("sm-2gpu")
        V = submatrix_type(128, 256)
        b0 = world.procs[0].ctx.malloc(256 * 256 * 8)
        b0.write(rng.random(256 * 256))
        b1 = world.procs[1].ctx.malloc(256 * 256 * 8)

        times = []
        for _ in range(4):
            def s(mpi):
                yield mpi.send(b0, V, 1, dest=1, tag=1)
                yield mpi.recv(b0, V, 1, source=1, tag=2)

            def r(mpi):
                yield mpi.recv(b1, V, 1, source=0, tag=1)
                yield mpi.send(b1, V, 1, dest=0, tag=2)

            times.append(world.run([s, r]))
        # iteration 1 pays IPC registration; later iterations identical
        assert times[0] > times[1]
        assert times[1] == pytest.approx(times[2]) == pytest.approx(times[3])

    def test_heap_does_not_grow_with_new_peers(self):
        """Seeded ring shifts keep reaching new rank pairs; nothing the
        message path keeps may grow with them (no per-pair tables)."""
        n, nb = 64, 64
        world = MpiWorld(
            Cluster(4, 0), [(r // 16, None) for r in range(n)],
            MpiConfig(transfer_log=False),
        )
        dt = contiguous(nb, BYTE).commit()
        sbufs = [alloc(world, r, nb) for r in range(n)]
        rbufs = [alloc(world, r, nb) for r in range(n)]
        shifts = np.random.default_rng(7).integers(1, n, size=(30, 2)).tolist()

        def program(mpi):
            r = mpi.rank
            for k, s in enumerate(shifts[rnd]):
                sreq = mpi.isend(sbufs[r], dt, 1, dest=(r + s) % n, tag=k)
                rreq = mpi.irecv(rbufs[r], dt, 1, source=(r - s) % n, tag=k)
                yield mpi.wait_all(sreq, rreq)

        tracked = {}
        for rnd in range(30):
            world.run([program] * n)
            if rnd + 1 in (10, 30):
                gc.collect()
                tracked[rnd + 1] = len(gc.get_objects())
        # a per-pair endpoint table grows by ~1200 objects over these rounds
        assert tracked[30] - tracked[10] < 64

    @pytest.mark.parametrize("case", [
        "host-eager", "device-eager", "ipc_rdma", "copyinout", "host",
        "bcast", "allgather", "alltoall", "alltoallv",
    ])
    def test_message_path_leaves_no_cyclic_garbage(self, case, rng):
        """Every per-message object dies by reference counting: a round
        run with the collector off leaves no repro cycle for it.

        ``Simulator.run`` pauses the collector on that promise.  The
        cases cover every protocol and the collective rungs ``auto``
        picks in the ``coll_mix`` benchmark.
        """
        build = _p2p_round if case in _P2P_CASES else _collective_round
        world, programs, check = build(case, rng)
        leaked = cyclic_garbage_of_a_round(world, programs)
        check()
        assert not leaked


#: point-to-point guard cases: env, doubles per message, protocol
_P2P_CASES = {
    "host-eager": ("cpu", 64, "eager"),
    "device-eager": ("sm-2gpu", 64, "eager"),
    "ipc_rdma": ("sm-2gpu", 16384, "ipc_rdma"),
    "copyinout": ("ib", 16384, "copyinout"),
    "host": ("cpu", 16384, "host"),
}


def _p2p_round(case, rng):
    """One contiguous and one strided message (the convertor or GPU
    engine path) over the case's protocol."""
    kind, n, protocol = _P2P_CASES[case]
    world = make_world(kind)
    C = contiguous(n, DOUBLE).commit()
    V = vector(n // 2, 1, 2, DOUBLE).commit()
    b0 = alloc(world, 0, C.size)
    b0.write(rng.random(n))
    b1 = alloc(world, 1, C.size)
    b2 = alloc(world, 1, C.size)

    def s(mpi):
        yield mpi.wait_all(mpi.isend(b0, C, 1, dest=1, tag=1),
                           mpi.isend(b0, V, 1, dest=1, tag=2))

    def r(mpi):
        yield mpi.wait_all(mpi.irecv(b1, C, 1, source=0, tag=1),
                           mpi.irecv(b2, V, 1, source=0, tag=2))

    def check():
        assert world.stats().by_protocol.get(protocol) == 4
        assert np.array_equal(b1.bytes, b0.bytes)

    return world, [s, r], check


def _collective_round(case, rng):
    """One collective on a 2x2 device world, at the size and rung of
    ``coll_mix``: binomial bcast, ring allgather and staged alltoall of
    4 KB blocks, nonblocking alltoallv of ragged 64-byte records around
    256 KB per peer."""
    from repro.mpi.collectives import allgather, alltoall, alltoallv, bcast

    size = 4
    world = MpiWorld(Cluster(2, 2), [(nd, g) for nd in range(2) for g in range(2)])
    rec = contiguous(64, BYTE).commit()
    nb = (256 << 10) if case == "alltoallv" else (4 << 10)
    blk = contiguous(nb, BYTE).commit()
    counts = np.stack([
        rng.permutation(np.linspace(nb // 128, 3 * nb // 128, size).astype(int))
        for _r in range(size)
    ])
    cap = max(nb, int(counts.max()) * 64)
    send = [[alloc(world, r, cap) for _d in range(size)] for r in range(size)]
    recv = [[alloc(world, r, cap) for _s in range(size)] for r in range(size)]
    for row in send:
        for b in row:
            b.write(rng.integers(0, 256, cap, dtype=np.uint8))

    def program(mpi):
        r = mpi.rank
        if case == "bcast":
            yield from bcast(mpi, send[1][0] if r == 1 else recv[r][0], blk, 1, root=1)
        elif case == "allgather":
            yield from allgather(mpi, send[r][0], blk, 1, recv[r], blk, 1)
        elif case == "alltoall":
            yield from alltoall(mpi, send[r], blk, 1, recv[r], blk, 1)
        else:
            yield from alltoallv(mpi, send[r], rec, counts[r].tolist(),
                                 recv[r], rec, counts[:, r].tolist())

    def check():
        rung = {"bcast": "pairwise", "allgather": "pairwise",
                "alltoall": "staged", "alltoallv": "nonblocking"}[case]
        assert world.stats().coll_ops.get(f"{case}.{rung}") == size
        for r in range(size):
            for s in range(size):
                if case == "bcast":  # recv[r][0] holds the root's block
                    src, dst, k = send[1][0], recv[r][0], nb
                    if r == 1:
                        continue
                elif case == "allgather":
                    src, dst, k = send[s][0], recv[r][s], nb
                else:
                    k = nb if case == "alltoall" else int(counts[s, r]) * 64
                    src, dst = send[s][r], recv[r][s]
                assert np.array_equal(dst.bytes[:k], src.bytes[:k]), (r, s)

    return world, [program] * size, check


def cyclic_garbage_of_a_round(world, programs) -> list[str]:
    """Run a warm-up round, then one round with the collector off; the
    repro objects that round left for ``gc.collect()`` as cycles: every
    ``Process``, ``Convertor``, ``Btl``, ``TransferState`` and closure
    defined in ``repro``, by name."""
    world.run(programs)  # warm-up: ranks, engines, IPC registrations
    world.reset_stats()
    gc.collect()
    gc.disable()
    try:
        world.run(programs)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({
            type(o).__qualname__ if not isinstance(o, types.FunctionType)
            else o.__qualname__
            for o in gc.garbage
            if isinstance(o, (Process, Convertor, Btl, TransferState))
            or (isinstance(o, types.FunctionType) and o.__closure__
                and (o.__module__ or "").startswith("repro"))
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestWorldScaleObservability:
    """The simulator-core counters WorldStats reports per stats window."""

    def test_stats_carries_event_loop_counters(self):
        world = make_world("cpu")
        C = contiguous(256, DOUBLE).commit()
        b0 = alloc(world, 0, C.size)
        b1 = alloc(world, 1, C.size)
        one_way(world, b0, C, 1, b1, C, 1)
        ws = world.stats()
        assert ws.events_processed > 0
        assert ws.peak_queue_depth >= 1
        assert ws.timers_cancelled >= 0
        assert ws.run_wall_s > 0.0
        assert ws.sim_elapsed_s > 0.0
        assert ws.events_per_wall_s == pytest.approx(
            ws.events_processed / ws.run_wall_s
        )
        d = ws.to_dict()
        for key in (
            "events_processed",
            "timers_cancelled",
            "peak_queue_depth",
            "run_wall_s",
            "sim_elapsed_s",
            "events_per_wall_s",
        ):
            assert key in d
        assert "events:" in ws.summary()

    def test_reset_stats_restarts_the_window(self):
        world = make_world("cpu")
        C = contiguous(256, DOUBLE).commit()
        b0 = alloc(world, 0, C.size)
        b1 = alloc(world, 1, C.size)
        one_way(world, b0, C, 1, b1, C, 1)
        assert world.stats().events_processed > 0
        world.reset_stats()
        ws = world.stats()
        assert ws.events_processed == 0
        assert ws.run_wall_s == 0.0
        assert ws.sim_elapsed_s == 0.0
        assert not ws.by_protocol
        # a fresh run after the reset is counted again
        one_way(world, b0, C, 1, b1, C, 1, tag=6)
        ws2 = world.stats()
        assert ws2.events_processed > 0
        assert ws2.by_protocol  # counters-fallback or transfer log

    def test_by_protocol_fallback_without_transfer_log(self):
        world = make_world("cpu", MpiConfig(transfer_log=False))
        C = contiguous(256, DOUBLE).commit()
        b0 = alloc(world, 0, C.size)
        b1 = alloc(world, 1, C.size)
        one_way(world, b0, C, 1, b1, C, 1)
        ws = world.stats()
        assert not ws.transfers  # log off: no per-transfer records
        # ... but the protocol mix is rebuilt from the metric counters
        assert ws.by_protocol.get("eager") == 2  # one send + one recv

    def test_stats_count_gc_collections_per_window(self):
        world = make_world("cpu")
        C = contiguous(256, DOUBLE).commit()
        b0 = alloc(world, 0, C.size)
        b1 = alloc(world, 1, C.size)

        def s(mpi):
            gc.collect()  # one full collection inside the window
            yield mpi.send(b0, C, 1, dest=1, tag=5)

        def r(mpi):
            yield mpi.recv(b1, C, 1, source=0, tag=5)

        gc.collect()  # between runs: not counted
        gc.disable()  # no automatic collection may land in the window
        try:
            world.run([s, r])
        finally:
            gc.enable()
        ws = world.stats()
        gens = len(gc.get_stats())
        assert ws.gc_collections == (0,) * (gens - 1) + (1,)
        assert ws.to_dict()["gc_collections"] == list(ws.gc_collections)
        events = [ln for ln in ws.summary().splitlines()
                  if ln.startswith("events:")]
        assert "gc collections by generation" in events[0]
        world.reset_stats()
        assert world.stats().gc_collections == (0,) * gens

    def test_collector_paused_from_the_first_spawn(self):
        """``world.run`` pauses automatic collection across its spawns
        and its loop: a 512-rank world's spawns alone would otherwise
        start young collections inside the window."""
        n = 512
        world = MpiWorld(Cluster(1, 0), [(0, None)] * n)

        def program(mpi):
            yield None

        gc.collect()
        world.run([program] * n)
        assert world.stats().gc_collections == (0,) * len(gc.get_stats())
        assert gc.isenabled()

        def failing(mpi):
            raise RuntimeError("program failed")
            yield  # pragma: no cover - makes this a generator

        with pytest.raises(RuntimeError, match="program failed"):
            world.run([failing] * 2)
        assert gc.isenabled()

    def test_world_builds_lazily(self):
        world = make_world("cpu")
        assert sum(1 for _ in world.procs.materialized()) == 0
        assert len(world.procs) == 2
        _ = world.procs[1]
        assert sum(1 for _ in world.procs.materialized()) == 1
        assert [p.rank for p in world.procs] == [0, 1]  # full iteration
        assert world.procs[-1].rank == 1


class TestWorldClose:
    """``MpiWorld.close`` frees what a world holds outside itself, so a
    sweep's dropped world goes by reference counting, not at the next
    full collection."""

    def test_close_frees_pools_caches_and_registrations(self, rng):
        world = make_world("sm-2gpu")
        C = contiguous(4096, BYTE).commit()  # device eager: zero-copy bounce
        T = lower_triangular_type(128)  # ipc_rdma: device ring, DevCache, IPC
        user = {r: [alloc(world, r, C.size), alloc(world, r, 128 * 128 * 8)]
                for r in (0, 1)}
        user[0][0].write(rng.integers(0, 255, C.size, dtype=np.uint8))
        user[0][1].write(rng.random(128 * 128))
        one_way(world, user[0][0], C, 1, user[1][0], C, 1)
        one_way(world, user[0][1], T, 1, user[1][1], T, 1)
        procs = list(world.procs)
        assert procs[1].ipc_cache
        assert all(p.engine.cache.bytes_cached for p in procs)
        (ring,) = [pool[0][0] for (_kind, _n, mapped), pool
                   in procs[0]._staging_pool.items() if mapped and pool]
        assert is_mapped_host(ring)

        world.close()
        assert not is_mapped_host(ring) and ring.allocation.freed
        for p in procs:
            assert not (p._staging_pool or p.ipc_cache or p.transfer_log)
            assert p.engine.cache.bytes_cached == 0
            # only the user's own buffers remain on the GPU
            assert p.gpu.memory.bytes_in_use == sum(b.nbytes for b in user[p.rank])
        assert world.size == 0 and not list(world.procs.materialized())

    def test_closed_dropped_world_frees_its_ring_without_the_collector(self):
        world = make_world("sm-2gpu")
        C = contiguous(4096, BYTE).commit()
        b0, b1 = alloc(world, 0, C.size), alloc(world, 1, C.size)
        one_way(world, b0, C, 1, b1, C, 1)
        (pool,) = [pool for (_kind, _n, mapped), pool
                   in world.procs[0]._staging_pool.items() if mapped]
        ring = weakref.ref(pool[0][0].allocation.data)
        del pool
        gc.collect()
        gc.disable()
        try:
            world.close()
            del world
            assert ring() is None
        finally:
            gc.enable()

    def test_closed_process_frees_staging_returned_late(self, monkeypatch):
        """A GET receiver whose sender raised ``TransferTimeout`` (every
        fragment notification dropped) is still parked, holding its
        local stage, when its world closes.  The collector finalizes it
        later, and the stage it returns is freed, not put back into the
        pools ``close()`` cleared (which raised ``KeyError`` in the
        finalizer)."""
        config = MpiConfig(
            frag_bytes=8192, pipeline_depth=3,
            faults=FaultSpec(seed=1, am_drop=1.0, targets=("frag",)),
        )
        world = make_world("sm-2gpu", config)
        V = vector(64, 32, 48, DOUBLE).commit()
        b0, b1 = alloc(world, 0, V.extent), alloc(world, 1, V.extent)
        gpu = world.procs[1].gpu
        in_use = gpu.memory.bytes_in_use
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(TransferTimeout):
            one_way(world, b0, V, 1, b1, V, 1)
        world.close()
        del world
        gc.collect()
        assert [u.exc_value for u in unraisable] == []
        assert gpu.memory.bytes_in_use == in_use

    def test_closed_dropped_world_and_cluster_die_without_the_collector(self):
        """Neither the process table nor ``COMM_WORLD`` keeps a closed
        world alive, so it and its cluster (simulator, GPUs and their
        memory) go by reference counting."""
        world = make_world("sm-2gpu")
        T = lower_triangular_type(64)  # ipc_rdma: rings, DevCache, IPC
        b0, b1 = alloc(world, 0, 64 * 64 * 8), alloc(world, 1, 64 * 64 * 8)
        one_way(world, b0, T, 1, b1, T, 1)
        refs = weakref.ref(world), weakref.ref(world.cluster)
        del b0, b1
        gc.collect()
        gc.disable()
        try:
            world.close()
            del world
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
