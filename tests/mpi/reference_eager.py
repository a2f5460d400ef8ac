"""Frozen coroutine eager path — the reference the eager callback chain matches.

This is a verbatim copy of the coroutine eager path of ``repro.mpi.pml``
as it stood before the callback chain became the only eager
implementation: ``_eager_pack_coro``/``_eager_unpack_coro``, the eager
branch of ``isend_coro``, ``irecv_coro``, and the eager branch of
``_matched_recv_coro``.  Each operation runs as one ``Process``, like
every eager message once did outside the host-contiguous fast path.
``tests/mpi/test_eager_equivalence.py`` drives the same seeded traffic
through ``RankContext.isend``/``irecv`` and through these coroutines and
requires every observable to match bit for bit.

Do **not** "improve" this file — its value is that it does not change.

The only edits are the cuts: the rendezvous halves of ``isend_coro`` and
``_matched_recv_coro`` are gone (they raise instead), because the twin
sends eager messages only and the rendezvous coroutines still live in
:mod:`repro.mpi.pml`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.datatype.ddt import Datatype
from repro.hw.memory import Buffer
from repro.mpi.bml import btl_for
from repro.mpi.matching import PostedRecv
from repro.mpi.message import Envelope
from repro.mpi.pml import _signature_check, _times
from repro.mpi.protocols.common import CpuSideJob
from repro.mpi.requests import Status
from repro.obs.stats import TransferStats
from repro.sanitize import runtime as _san
from repro.sim.core import Future

if TYPE_CHECKING:
    from repro.mpi.proc import MpiProcess
    from repro.mpi.world import MpiWorld

__all__ = ["isend_coro", "irecv_coro"]

_tids = itertools.count()


def _eager_pack_coro(
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    gpudirect: bool = False,
):
    """Produce the message's bytes for an eager send.

    Host buffers CPU-pack into a bounce array; device buffers GPU-pack
    into a zero-copy host bounce — or, with GPUDirect RDMA, into a
    *device* bounce that the NIC reads directly (no host transit; the
    PCIe D2H leg disappears, which is why GPUDirect wins for small
    messages).
    """
    total = dt.size * count
    if total == 0:
        # zero-byte send: the envelope still travels, the engines don't
        return np.empty(0, dtype=np.uint8)
    if buf.is_host:
        if (
            dt.is_contiguous
            and (count == 1 or dt.extent == dt.size)
            and _san.MEM is None
            and _san.RACE is None
        ):
            # contiguous host fast path: same memcpy-engine charge as
            # CpuSideJob's contiguous branch, minus the convertor and
            # closure machinery (sanitized runs keep the checked path).
            # count > 1 needs extent == size too — a resized contiguous
            # type strides elements apart, which only the convertor walks.
            stage = np.empty(total, dtype=np.uint8)
            src = buf.bytes
            fut = proc.node.cpu_memcpy_engine.transfer(total, label="cpu-pack")
            fut.add_callback(lambda _f: stage.__setitem__(slice(0, total), src[:total]))
            yield fut
            return stage
        job = CpuSideJob(proc, dt, count, buf, "pack")
        stage = np.empty(total, dtype=np.uint8)
        yield job.process_range(0, total, stage)
        return stage
    job = proc.engine.pack_job(dt, count, buf, proc.config.engine)
    if gpudirect:
        dstage = proc.acquire_staging("device", max(total, 256))
        yield from job.process_all(dstage[:total])
        data = dstage.bytes[:total].copy()
        proc.release_staging("device", dstage)
        return data
    # pack via the GPU engine into a zero-copy host bounce buffer
    hstage = proc.acquire_staging("host", max(total, 256), zero_copy_map=True)
    yield from job.process_all(hstage[:total])
    data = hstage.bytes[:total].copy()
    proc.release_staging("host", hstage, zero_copy_map=True)
    return data


def _eager_unpack_coro(
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    data: np.ndarray,
    gpudirect: bool = False,
):
    # a receive may be posted larger than the message actually sent:
    # unpack only the prefix that arrived, leave trailing elements alone
    total = min(dt.size * count, len(data))
    if total == 0:
        return 0
    if buf.is_host:
        if (
            dt.is_contiguous
            and (count == 1 or dt.extent == dt.size)
            and _san.MEM is None
            and _san.RACE is None
        ):
            # contiguous host fast path — mirror of _eager_pack_coro's
            dst = buf.bytes
            fut = proc.node.cpu_memcpy_engine.transfer(total, label="cpu-unpack")
            fut.add_callback(lambda _f: dst.__setitem__(slice(0, total), data[:total]))
            yield fut
            return total
        job = CpuSideJob(proc, dt, count, buf, "unpack")
        yield job.process_range(0, total, data)
        return total
    job = proc.engine.unpack_job(dt, count, buf, proc.config.engine)
    # a prefix fragment (not process_all, which demands the full posted
    # count's bytes and would reject — or overrun — a short message)
    frag = job.range_fragment(0, 0, total)
    if gpudirect:
        # the NIC deposited the message straight into device memory
        dstage = proc.acquire_staging("device", max(total, 256))
        dstage.bytes[:total] = data[:total]
        yield from job.process_fragment(frag, dstage[:total])
        proc.release_staging("device", dstage)
        return total
    hstage = proc.acquire_staging("host", max(total, 256), zero_copy_map=True)
    hstage.bytes[:total] = data[:total]
    yield from job.process_fragment(frag, hstage[:total])
    proc.release_staging("host", hstage, zero_copy_map=True)
    return total


def isend_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int = 0,
):
    """Sender-side PML coroutine, eager branch."""
    dt.commit()
    total = dt.size * count
    dst_proc = world.procs[dest]
    btl = btl_for(proc, dst_proc)
    env = Envelope(
        source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
        pair_seq=proc.next_send_seq(dest, comm_id),
    )
    cfg = proc.config

    if total <= cfg.eager_limit:
        gdr = (
            buf.is_device
            and getattr(btl, "supports_gpudirect", False)
            and dst_proc.gpu is not None
        )
        t0 = proc.sim.now
        data = yield from _eager_pack_coro(proc, buf, dt, count, gpudirect=gdr)
        header = {
            "eager": True,
            "total": total,
            "signature": _times(dt.signature, count),
            "gpudirect": gdr,
        }
        # the NIC reads device memory directly under GPUDirect (degraded
        # rate beyond the ~30 KB crossover, at wire speed below it)
        yield btl.am_send(
            "pml.rts", header, payload=data, envelope=env, gpudirect=gdr
        )
        mode = "gpudirect" if gdr else ""
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="send", peer=dest,
                protocol="eager", mode=mode,
                total_bytes=total, frag_bytes=total, fragments=1,
                max_in_flight=1, start_s=t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("send", "eager", mode, total)
        return total
    raise NotImplementedError("the reference keeps the eager branch only")


def irecv_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    source: int,
    tag: int,
    comm_id: int = 0,
):
    """Receiver-side PML coroutine: match, choose protocol, run it."""
    dt.commit()
    on_match = Future(proc.sim, label=proc._match_label)
    proc.matching.post(
        PostedRecv(source=source, tag=tag, comm_id=comm_id, on_match=on_match)
    )
    _ver = _san.VERIFY
    _vtok = None
    if _ver is not None:
        # the wait spans post -> completion: an unmatched post *and* a
        # protocol stalled mid-transfer both surface as this receive
        _vtok = _ver.wait_begin(
            "recv", proc.rank, proc.sim,
            peer=None if source < 0 else source,
            tag=None if tag < 0 else tag,
            comm_id=comm_id, world=world,
        )
    try:
        env, header, payload, sender_rank = yield on_match
        status = yield from _matched_recv_coro(
            world, proc, buf, dt, count, env, header, payload, sender_rank
        )
    finally:
        if _ver is not None:
            _ver.wait_end(_vtok)
    return status


def _matched_recv_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    env,
    header,
    payload,
    sender_rank: int,
):
    """Everything after the match: check, then unpack the eager bytes."""
    _signature_check(header["signature"], _times(dt.signature, count))

    if header["eager"]:
        t0 = proc.sim.now
        gdr = header.get("gpudirect", False)
        got = yield from _eager_unpack_coro(
            proc, buf, dt, count, payload, gpudirect=gdr,
        )
        mode = "gpudirect" if gdr else ""
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="recv",
                peer=env.source, protocol="eager", mode=mode,
                total_bytes=got, frag_bytes=got, fragments=1,
                max_in_flight=1, start_s=t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("recv", "eager", mode, got)
        return Status(source=env.source, tag=env.tag, count_bytes=got)
    raise NotImplementedError("the reference keeps the eager branch only")
