"""PML: point-to-point management layer.

"At the top level, the PML realizes the MPI matching, fragments, and
reassembles the message data ... Different protocols based on the message
size (short, eager, and rendezvous) and network properties are available,
and the PML is designed to pick the best combination" (Section 4).

Send path: eager for small messages (data rides the RTS Active Message);
rendezvous otherwise — the RTS advertises the sender's buffer placement,
contiguity and, when CUDA IPC applies, an IPC handle (of the user buffer
for contiguous sends, of the device fragment ring otherwise).  The
receiver matches, chooses the protocol (receiver-driven GET handshake),
answers with a CTS, and both sides run the chosen pipeline from
:mod:`repro.mpi.protocols`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cuda.ipc import IpcMemHandle
from repro.datatype.ddt import Datatype
from repro.hw.memory import Buffer
from repro.mpi.bml import btl_for
from repro.mpi.matching import PostedRecv
from repro.mpi.message import Envelope
from repro.mpi.requests import Status
from repro.mpi.protocols import RECEIVERS, SENDERS, choose_protocol
from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    describe_side,
)
from repro.obs.stats import TransferStats
from repro.sanitize import runtime as _san
from repro.sim.core import Future
from repro.sim.resources import Mailbox

if TYPE_CHECKING:
    from repro.mpi.proc import MpiProcess
    from repro.mpi.world import MpiWorld

__all__ = ["isend_coro", "irecv_coro"]

_tids = itertools.count()


def _times(sig, count: int):
    """A datatype signature repeated ``count`` times.

    Single-run signatures scale in place; multi-run ones concatenate
    (seams stay un-coalesced — the prefix walk below tolerates adjacent
    runs of the same name).  Zero elements have the empty signature,
    which fits any receive.
    """
    if count == 1:
        return sig
    if count == 0 or not sig:
        return ()
    if len(sig) == 1:
        name, c = sig[0]
        return ((name, c * count),)
    return sig * count


def _signature_check(send_sig, recv_sig) -> None:
    """MPI demands the send signature be a prefix of the receive's.

    Both sides pass their *full* signature (datatype signature scaled by
    the call's count) — the standard's rule is about the whole message,
    so a packed ``contiguous(c * n, BYTE)``-style wire type sent with
    count 1 lands legally in ``c`` elements of the original type.
    """
    if send_sig == recv_sig:
        return  # identical tuples — the overwhelmingly common case
    flat_s = [(n, c) for n, c in send_sig]
    flat_r = [(n, c) for n, c in recv_sig]
    si = ri = 0
    s_rem = r_rem = 0
    s_name = r_name = None
    while True:
        if s_rem == 0:
            if si == len(flat_s):
                return  # send exhausted: OK
            s_name, s_rem = flat_s[si]
            si += 1
        if r_rem == 0:
            if ri == len(flat_r):
                raise ValueError("type signature mismatch: receive too short")
            r_name, r_rem = flat_r[ri]
            ri += 1
        if s_name != r_name:
            raise ValueError(
                f"type signature mismatch: {s_name} sent into {r_name}"
            )
        take = min(s_rem, r_rem)
        s_rem -= take
        r_rem -= take


# ---------------------------------------------------------------------------
# eager protocol
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# send / recv coroutines
# ---------------------------------------------------------------------------


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
    """Sender-side PML coroutine: eager or rendezvous per DESIGN/PROTOCOLS."""
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

    tid = f"{proc.rank}.{next(_tids)}"
    s_info = describe_side(proc, buf, dt, count)
    frag_bytes = cfg.frag_bytes
    depth = cfg.pipeline_depth
    s_info.frag_bytes = frag_bytes
    s_info.ring_segments = depth

    state = TransferState(
        proc=proc,
        btl=btl,
        tid=tid,
        dt=dt,
        count=count,
        buf=buf,
        total=total,
        frag_bytes=frag_bytes,
        depth=depth,
        role="s",
    )
    state.stats.peer = dest
    # RDMA resources are advertised in the RTS (Fig 4: the connection
    # request carries the memory handle and the local datatype's shape)
    ring_key = None
    if s_info.loc == "device" and btl.supports_cuda_ipc:
        if s_info.contiguous:
            s_info.handle = IpcMemHandle.get(buf)
        else:
            nbytes = frag_bytes * depth
            state.ring = proc.acquire_staging("device", nbytes)
            ring_key = nbytes
            s_info.handle = IpcMemHandle.get(state.ring)

    cts_box = Mailbox(proc.sim, name=f"{tid}.cts")
    proc.register_handler(f"x{tid}.s.cts", lambda pkt, _b: cts_box.put(pkt))
    state.bind_inbox("done")
    _ver = _san.VERIFY
    _vtok = None
    try:
        btl.am_send(
            "pml.rts",
            {
                "eager": False,
                "tid": tid,
                "total": total,
                "side": s_info,
                "signature": _times(dt.signature, count),
            },
            envelope=env,
        )
        if _ver is not None:
            # the classic rendezvous hang: RTS out, no matching receive
            # ever posts, the CTS never comes — register the wait so a
            # drained event loop can name this exact send
            _vtok = _ver.wait_begin(
                "cts", proc.rank, proc.sim, peer=dest, tag=tag,
                comm_id=comm_id, detail=f"rendezvous send {total}B",
                world=world,
            )
        cts_pkt = yield cts_box.get()
        if _ver is not None:
            _ver.wait_end(_vtok)
        protocol = cts_pkt.header["protocol"]
        state.stats.protocol = protocol
        r_info: SideInfo = cts_pkt.header["side"]
        result = yield from SENDERS[protocol](state, s_info, r_info, cts_pkt.header)
        state.stats.end_s = proc.sim.now
        if state.stats.fragments == 0:
            state.stats.fragments = 1
        proc.record_transfer(state.stats)
    finally:
        if _ver is not None:
            _ver.wait_end(_vtok)  # idempotent (exception paths)
        state.close()  # cancel any outstanding retransmit watchdogs
        proc.unregister_handler(f"x{tid}.s.cts")
        state.unbind_all("done")
        # swallow duplicated/delayed ACKs that surface after completion
        state.seal()
        if state.ring is not None:
            proc.release_staging("device", state.ring)
    return result


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
    """Everything after the match: check, choose protocol, run it.

    Shared by :func:`irecv_coro` and the rendezvous fallback of the
    callback-chained :func:`eager_irecv_fast` path.
    """
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

    tid = header["tid"]
    s_info: SideInfo = header["side"]
    src_proc = world.procs[sender_rank]
    btl_back = btl_for(proc, src_proc)
    r_info = describe_side(proc, buf, dt, count)
    protocol = choose_protocol(s_info, r_info, btl_back)

    state = TransferState(
        proc=proc,
        btl=btl_back,
        tid=tid,
        dt=dt,
        count=count,
        buf=buf,
        total=min(s_info.total, dt.size * count),
        # the sender dictates the fragmentation (its ring is sized for it)
        frag_bytes=s_info.frag_bytes,
        depth=s_info.ring_segments,
        role="r",
    )
    state.stats.peer = env.source
    state.stats.protocol = protocol
    state.bind_inbox("frag")
    state.bind_inbox("done")
    try:
        if protocol == "ipc_rdma":
            # the ipc_rdma receiver sends its own CTS (after mapping)
            result = yield from RECEIVERS[protocol](state, s_info, r_info)
        else:
            btl_back.am_send(
                state.peer("cts"), {"protocol": protocol, "side": r_info}
            )
            result = yield from RECEIVERS[protocol](state, s_info, r_info)
        state.stats.end_s = proc.sim.now
        if state.stats.fragments == 0:
            state.stats.fragments = 1
        proc.record_transfer(state.stats)
    finally:
        state.unbind_all("frag", "done")
        # answer retransmissions of fragments whose final ACK was lost
        state.seal()
    return Status(source=env.source, tag=env.tag, count_bytes=result)


def rts_handler(world: "MpiWorld", proc: "MpiProcess"):
    """The PML's match handler, registered once per rank."""

    def handle(pkt, _btl) -> None:
        env = pkt.envelope
        arrival = (env, pkt.header, pkt.payload, env.source)
        proc.matching.arrive(env, arrival)

    return handle


# ---------------------------------------------------------------------------
# callback-chained fast paths (host-contiguous eager, unsanitized)
# ---------------------------------------------------------------------------
#
# The coroutine PML above is the source of truth: it handles every
# placement, protocol, sanitizer, and fault combination.  The two
# functions below are a hand-scheduled rendering of exactly one slice of
# it — host buffer, flat-contiguous datatype, eager size, no faults, no
# sanitizers — chaining future callbacks on one slotted state object per
# operation instead of spawning a Process per operation.  They issue the
# *same* engine transfers in the same order at the same simulated times,
# so modeled results are bit-identical to the coroutine path
# (tests/mpi/test_eager_equivalence.py); only the Python-side overhead
# (two Process allocations and ~6 generator resumptions per message)
# disappears.  Anything they cannot prove safe falls back to the
# coroutines, which therefore remain the behavioural reference.


def eager_fast_ok(proc: "MpiProcess", buf: Buffer, dt: Datatype, count: int) -> bool:
    """Is the hand-scheduled eager path valid for this operation?"""
    if proc.faults is not None or _san.RACE is not None or _san.MEM is not None:
        return False
    if not buf.is_host:
        return False
    dt.commit()
    return dt.is_contiguous and (count == 1 or dt.extent == dt.size)


def _eager_header(proc: "MpiProcess", dt: Datatype, count: int, total: int) -> dict:
    """The (immutable, shareable) eager RTS header for (dt, count).

    Receivers only ever read headers, so repeated same-shape sends reuse
    one dict; the cache holds a strong dt ref to keep ``id(dt)`` valid
    and hits verify identity.
    """
    cache = proc._eager_hdr_cache
    key = (id(dt), count)
    hit = cache.get(key)
    if hit is not None and hit[0] is dt:
        return hit[1]
    if len(cache) >= 256:
        cache.clear()
    header = {
        "eager": True,
        "total": total,
        "signature": _times(dt.signature, count),
        "gpudirect": False,
    }
    cache[key] = (dt, header)
    return header


class _EagerSend:
    """One host-contiguous eager send, advanced by future callbacks.

    The operation's state lives in this one slotted object and its steps
    are bound methods, so a send allocates no closures and, once its
    futures resolve, dies by reference counting.
    """

    __slots__ = ("proc", "btl", "env", "header", "src", "stage", "t0", "done")

    def packed(self, _f: Optional[Future]) -> None:
        total = len(self.stage)
        if total:
            self.stage[0:total] = self.src[:total]
        wire = self.btl.am_send("pml.rts", self.header, payload=self.stage,
                                envelope=self.env)
        wire.add_callback(self.sent)

    def sent(self, _f: Future) -> None:
        proc = self.proc
        total = len(self.stage)
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="send",
                peer=self.env.dest, protocol="eager", mode="",
                total_bytes=total, frag_bytes=total, fragments=1,
                max_in_flight=1, start_s=self.t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("send", "eager", "", total)
        self.done.resolve(total)


def eager_isend_fast(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """Host-contiguous eager send as a callback chain (no Process).

    Returns a future resolving with the byte count at wire delivery — the
    same completion point and value as the :func:`isend_coro` eager branch.
    """
    total = dt.size * count
    op = _EagerSend()
    op.proc = proc
    op.btl = btl_for(proc, world.procs[dest])
    op.env = Envelope(
        source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
        pair_seq=proc.next_send_seq(dest, comm_id),
    )
    op.header = _eager_header(proc, dt, count, total)
    op.stage = np.empty(total, dtype=np.uint8)
    sim = proc.sim
    op.t0 = sim.now if proc.log_transfers else 0.0
    op.done = done = Future(sim, label="eager-send")
    if total == 0:
        # zero-byte send: the envelope still travels, the engines don't
        op.packed(None)
    else:
        op.src = buf.bytes
        proc.node.cpu_memcpy_engine.transfer(
            total, label="cpu-pack"
        ).add_callback(op.packed)
    return done


class _EagerRecv:
    """One host-contiguous receive, advanced by future callbacks.

    Slotted state with bound-method steps, like :class:`_EagerSend`.
    """

    __slots__ = ("world", "proc", "buf", "dt", "count", "result", "env",
                 "dst", "payload", "total", "t0")

    def matched(self, mf: Future) -> None:
        env, header, payload, sender_rank = mf._value
        proc = self.proc
        if not header["eager"] or header.get("gpudirect", False):
            # rendezvous (or a gpudirect eager pack): run the coroutine
            # continuation and mirror its outcome onto ``result``
            proc.sim.spawn(
                _matched_recv_coro(
                    self.world, proc, self.buf, self.dt, self.count,
                    env, header, payload, sender_rank,
                ),
                label="irecv-rest",
                eager_start=True,
            ).add_callback(self.finish)
            return
        try:
            _signature_check(header["signature"],
                             _times(self.dt.signature, self.count))
        except BaseException as err:
            self.result.fail(err)
            return
        self.env = env
        self.t0 = proc.sim.now
        total = self.total = min(self.dt.size * self.count, len(payload))
        if total == 0:
            self.unpacked(None)
            return
        self.payload = payload
        proc.node.cpu_memcpy_engine.transfer(
            total, label="cpu-unpack"
        ).add_callback(self.unpacked)
        self.dst = self.buf.bytes

    def unpacked(self, _f: Optional[Future]) -> None:
        proc = self.proc
        env = self.env
        total = self.total
        if total:
            self.dst[0:total] = self.payload[:total]
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="recv",
                peer=env.source, protocol="eager", mode="",
                total_bytes=total, frag_bytes=total, fragments=1,
                max_in_flight=1, start_s=self.t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("recv", "eager", "", total)
        self.result.resolve(Status(source=env.source, tag=env.tag,
                                   count_bytes=total))

    def finish(self, f: Future) -> None:
        if f._exception is not None:
            self.result.fail(f._exception)
        else:
            self.result.resolve(f._value)


def eager_irecv_fast(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    source: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """Host-contiguous receive as a callback chain (no Process).

    Eager arrivals unpack inline; a rendezvous RTS falls back to the
    coroutine continuation (:func:`_matched_recv_coro`), so the fast
    path never has to understand the pipelined protocols.  Resolves
    with the :class:`Status`, like :func:`irecv_coro`.
    """
    sim = proc.sim
    op = _EagerRecv()
    op.world = world
    op.proc = proc
    op.buf = buf
    op.dt = dt
    op.count = count
    op.result = result = Future(sim, label="eager-recv")
    on_match = Future(sim, label=proc._match_label)
    on_match.add_callback(op.matched)
    proc.matching.post(
        PostedRecv(source=source, tag=tag, comm_id=comm_id, on_match=on_match)
    )
    _ver = _san.VERIFY
    if _ver is not None:
        _vtok = _ver.wait_begin(
            "recv", proc.rank, sim,
            peer=None if source < 0 else source,
            tag=None if tag < 0 else tag,
            comm_id=comm_id, world=world,
        )
        result.add_callback(lambda _f: _ver.wait_end(_vtok))
    return result
