"""Regression tests for two latent eager-path bugs.

* A receive posted *larger* than the eager send must unpack only the
  sent prefix.  Pre-fix, the device path handed the short contiguous
  stage to ``GpuSideJob.process_all``, which raised
  ``ValueError("contiguous buffer smaller than the message")``.
* Zero-byte transfers must complete without shipping a ghost ``(0, 0)``
  fragment or touching the GPU datatype engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import DOUBLE, INT
from repro.mpi.config import MpiConfig
from repro.mpi.protocols.common import TransferState, byte_ranges
from tests.mpi.test_property_end_to_end import build_world

#: a committed 8-byte element (primitives cannot be posted directly)
D8 = contiguous(1, DOUBLE).commit()


def _bufs(world, size):
    bufs = []
    for rank in range(2):
        proc = world.procs[rank]
        if proc.gpu is not None:
            buf = proc.ctx.malloc(size)
        else:
            buf = proc.node.host_memory.alloc(size)
        bufs.append(buf)
    return bufs


@pytest.mark.parametrize("kind", ["cpu", "sm-2gpu"])
def test_eager_recv_posted_larger_unpacks_prefix(kind):
    """recv posts 8 DOUBLEs, send ships 3: exactly 24 bytes move."""
    world = build_world(kind, MpiConfig())
    send_buf, recv_buf = _bufs(world, 8 * DOUBLE.size)
    send_buf.bytes[:] = np.arange(8 * DOUBLE.size, dtype=np.uint8)
    recv_buf.bytes[:] = 0xAB
    got_status = []

    def s(mpi):
        yield mpi.send(send_buf, D8, 3, dest=1, tag=4)

    def r(mpi):
        status = yield mpi.recv(recv_buf, D8, 8, source=0, tag=4)
        got_status.append(status)

    world.run([s, r])
    assert got_status[0].count_bytes == 3 * DOUBLE.size
    assert np.array_equal(
        recv_buf.bytes[: 3 * DOUBLE.size], send_buf.bytes[: 3 * DOUBLE.size]
    )
    # the unposted tail is never written
    assert np.all(recv_buf.bytes[3 * DOUBLE.size:] == 0xAB)
    assert world.stats().by_protocol == {"eager": 2}


@pytest.mark.parametrize("kind", ["cpu", "sm-2gpu"])
def test_eager_prefix_with_noncontig_type(kind):
    """Same prefix rule when the posted datatype is strided."""
    dt = vector(4, 2, 3, DOUBLE).commit()  # 64 packed bytes per element
    world = build_world(kind, MpiConfig())
    size = dt.spans_for_count(4).true_ub
    send_buf, recv_buf = _bufs(world, size)
    rng = np.random.default_rng(7)
    send_buf.bytes[:] = rng.integers(0, 255, size, dtype=np.uint8)
    recv_buf.bytes[:] = 0xAB

    def s(mpi):
        yield mpi.send(send_buf, dt, 1, dest=1, tag=4)

    def r(mpi):
        status = yield mpi.recv(recv_buf, dt, 4, source=0, tag=4)
        assert status.count_bytes == dt.size

    world.run([s, r])
    # first element's strided blocks landed; later elements untouched
    for blk in range(4):
        lo = blk * 3 * DOUBLE.size
        assert np.array_equal(
            recv_buf.bytes[lo: lo + 2 * DOUBLE.size],
            send_buf.bytes[lo: lo + 2 * DOUBLE.size],
        )
    assert np.all(recv_buf.bytes[dt.extent:] == 0xAB)


def test_byte_ranges_zero():
    assert byte_ranges(0, 4096) == []
    assert byte_ranges(1, 4096) == [(0, 1)]


@pytest.mark.parametrize("kind", ["cpu", "sm-2gpu", "ib"])
def test_zero_count_send_completes_without_engines(kind):
    """count=0: no payload moves, no GPU engine is ever instantiated."""
    world = build_world(kind, MpiConfig())
    send_buf, recv_buf = _bufs(world, 64)
    recv_buf.bytes[:] = 0xCD

    def s(mpi):
        yield mpi.send(send_buf, D8, 0, dest=1, tag=5)

    def r(mpi):
        status = yield mpi.recv(recv_buf, D8, 0, source=0, tag=5)
        assert status.count_bytes == 0

    world.run([s, r])
    assert np.all(recv_buf.bytes == 0xCD)
    ws = world.stats()
    assert ws.is_complete()
    assert ws.by_protocol == {"eager": 2}
    assert ws.engine.jobs == 0
    # lazily-created engines were never needed
    assert all(p._engine is None for p in world.procs)


def test_zero_count_into_larger_posted_recv():
    """count=0 send against a count>0 recv is a plain zero-byte message."""
    world = build_world("sm-2gpu", MpiConfig())
    send_buf, recv_buf = _bufs(world, 64)
    recv_buf.bytes[:] = 0xCD

    def s(mpi):
        yield mpi.send(send_buf, D8, 0, dest=1, tag=5)

    def r(mpi):
        status = yield mpi.recv(recv_buf, D8, 4, source=0, tag=5)
        assert status.count_bytes == 0

    world.run([s, r])
    assert np.all(recv_buf.bytes == 0xCD)
    assert all(p._engine is None for p in world.procs)


@pytest.mark.parametrize("kind", ["cpu", "sm-2gpu"])
def test_zero_count_send_fits_any_receive_type(kind):
    """Zero elements have the empty signature: a count=0 DOUBLE send
    into an INT receive is no type mismatch."""
    world = build_world(kind, MpiConfig())
    send_buf, recv_buf = _bufs(world, 64)
    int4 = contiguous(4, INT).commit()
    statuses = []

    def s(mpi):
        yield mpi.send(send_buf, D8, 0, dest=1, tag=5)

    def r(mpi):
        statuses.append((yield mpi.irecv(recv_buf, int4, 2, source=0, tag=5)))

    world.run([s, r])
    assert statuses[0].count_bytes == 0


def test_zero_fragment_transfer_state_completes_immediately():
    """expect_acks(0) resolves without any wire traffic."""
    world = build_world("cpu", MpiConfig())
    proc = world.procs[0]
    state = TransferState(
        proc=proc, btl=None, tid="t0", dt=D8, count=0,
        buf=None, total=0, frag_bytes=1024, depth=4,
    )
    fut = state.expect_acks(0)
    assert fut.done
    state.close()
