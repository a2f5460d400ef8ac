"""PML: point-to-point management layer.

"At the top level, the PML realizes the MPI matching, fragments, and
reassembles the message data ... Different protocols based on the message
size (short, eager, and rendezvous) and network properties are available,
and the PML is designed to pick the best combination" (Section 4).

:func:`isend` and :func:`irecv` are the layer's two entry points.  A send
at or under the eager limit packs its bytes into the RTS Active Message;
it runs as one callback chain (:class:`_EagerSend`), as does every
receive up to its match (:class:`_EagerRecv`).  A larger send runs the
rendezvous coroutine: the RTS advertises the sender's buffer placement,
contiguity and, when CUDA IPC applies, an IPC handle (of the user buffer
for contiguous sends, of the device fragment ring otherwise).  The
receiver matches, chooses the protocol (receiver-driven GET handshake),
answers with a CTS, and both sides run the chosen pipeline from
:mod:`repro.mpi.protocols`.
"""

from __future__ import annotations

import functools
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
from repro.mpi.protocols import choose_protocol, receiver, sender
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

__all__ = ["isend", "irecv", "rts_handler"]

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
# entry points
# ---------------------------------------------------------------------------


def isend(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """Post a send; the returned future resolves with the byte count.

    Eager sends complete at the RTS's delivery, rendezvous sends after
    the chosen pipeline's last acknowledgement.  ``dt`` is committed:
    :meth:`RankContext.isend` checked it and built its stream plan.
    """
    total = dt.size * count
    if total > proc.config.eager_limit:
        return proc.sim.spawn(
            _rndv_send(world, proc, buf, dt, count, dest, tag, comm_id),
            label=f"isend r{proc.rank}->r{dest}",
            eager_start=True,
        )
    op = _EagerSend()
    op.proc = proc
    op.btl = btl_for(proc, world.procs[dest])
    op.env = Envelope(
        source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
        pair_seq=proc.next_send_seq(dest, comm_id),
    )
    op.total = total
    sim = proc.sim
    op.t0 = sim.now if proc.log_transfers else 0.0
    op.done = done = Future(sim, label="eager-send")
    if _san.RACE is not None:
        # the operation is its own race actor, ordered after its caller
        op.actor = _san.RACE.on_spawn(f"isend r{proc.rank}->r{dest}")
    op.start(buf, dt, count)
    return done


def irecv(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    source: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """Post a receive; the returned future resolves with its :class:`Status`.

    An eager arrival unpacks in the chain; a rendezvous RTS hands the
    rest of the receive to the rendezvous coroutine.  ``dt`` is
    committed, as in :func:`isend`.
    """
    op = _EagerRecv()
    op.world = world
    op.proc = proc
    op.buf = buf
    op.dt = dt
    op.count = count
    op.result = result = Future(proc.sim, label="eager-recv")
    if _san.RACE is not None:
        op.actor = _san.RACE.on_spawn(f"irecv r{proc.rank}<-r{source}")
    op.start(source, tag, comm_id)
    return result


# ---------------------------------------------------------------------------
# eager protocol: one callback chain per operation
# ---------------------------------------------------------------------------
#
# Each operation is one slotted object whose steps are its methods, chained
# on the futures the engines return: no Process, no generator and no
# closure per message, and a finished operation dies by reference
# counting.  The first step tests the placement once (docs/PROTOCOLS.md):
# zero bytes, a host memcpy, the CPU convertor, or the GPU engine through
# one pooled bounce.  Under the race detector each operation is its own
# actor; _bind_steps swaps in step forms that run as it, once per
# sanitizer install (as repro.sim.core does for Future.resolve), so an
# uninstrumented step carries no sanitizer test.


def _eager_header(
    proc: "MpiProcess", dt: Datatype, count: int, total: int, gdr: bool
) -> dict:
    """The (immutable, shareable) eager RTS header for (dt, count, gdr).

    Receivers only ever read headers, so repeated same-shape sends reuse
    one dict; the cache holds a strong dt ref to keep ``id(dt)`` valid
    and hits verify identity.
    """
    cache = proc._eager_hdr_cache
    key = (id(dt), count, gdr)
    hit = cache.get(key)
    if hit is not None and hit[0] is dt:
        return hit[1]
    if len(cache) >= 256:
        cache.clear()
    header = {
        "eager": True,
        "total": total,
        "signature": _times(dt.signature, count),
        "gpudirect": gdr,
    }
    cache[key] = (dt, header)
    return header


class _EagerOp:
    """State and GPU steps shared by an eager send and an eager receive."""

    __slots__ = ("proc", "total", "t0", "gdr", "job", "frag", "bounce",
                 "actor")

    def run_device(self, job, frag, payload: Optional[np.ndarray]) -> None:
        """Start the GPU leg: one pooled bounce, the fragment's prep, its kernel.

        A receive first copies the arrived ``payload`` into the bounce.
        """
        total = self.total
        self.job = job
        self.frag = frag
        gdr = self.gdr
        self.bounce = bounce = self.proc.acquire_staging(
            "device" if gdr else "host", max(total, 256), zero_copy_map=not gdr
        )
        if payload is not None:
            bounce.bytes[:total] = payload[:total]
        prep = job.prepare_for(frag)
        if prep is None:
            self.prepped(None)
        else:
            prep.add_callback(self.prepped)

    def prepped(self, _f: Optional[Future]) -> None:
        self.job.run_kernel(
            self.frag, self.bounce[: self.total]
        ).add_callback(self.moved)

    def release_bounce(self) -> None:
        gdr = self.gdr
        self.proc.release_staging(
            "device" if gdr else "host", self.bounce, zero_copy_map=not gdr
        )


class _EagerSend(_EagerOp):
    """One eager send: pack, ship the RTS with the bytes, resolve on delivery."""

    __slots__ = ("btl", "env", "header", "done", "src", "stage")

    def start(self, buf: Buffer, dt: Datatype, count: int) -> None:
        proc = self.proc
        total = self.total
        host = buf.is_host
        btl = self.btl
        gdr = self.gdr = (
            not host
            and buf.is_device
            and getattr(btl, "supports_gpudirect", False)
            and btl.dst.gpu is not None
        )
        self.header = _eager_header(proc, dt, count, total, gdr)
        self.stage = stage = np.empty(total, dtype=np.uint8)
        self.src = None
        if total == 0:
            self.packed(None)
        elif not host:
            job = proc.engine.pack_job(dt, count, buf, proc.config.engine)
            self.run_device(job, job.single_fragment(), None)
        elif dt.is_contiguous and (count == 1 or dt.extent == dt.size):
            # the packed stream is the buffer's first bytes (count > 1
            # needs extent == size: a resized contiguous type strides its
            # elements apart, which only the convertor walks)
            if _san.RACE is not None:
                _san.RACE.record(buf, 0, buf.nbytes, False,
                                 label=f"cpu-pack[0:{total}]")
            self.src = buf.bytes
            proc.node.cpu_memcpy_engine.transfer(
                total, label="cpu-pack"
            ).add_callback(self.packed)
        else:
            CpuSideJob(proc, dt, count, buf, "pack").process_range(
                0, total, stage
            ).add_callback(self.packed)

    def moved(self, _f: Future) -> None:
        self.stage[:] = self.bounce.bytes[: self.total]
        self.release_bounce()
        self.packed(None)

    def packed(self, _f: Optional[Future]) -> None:
        src = self.src
        if src is not None:
            total = self.total
            self.stage[0:total] = src[:total]
        # the NIC reads device memory directly under GPUDirect (degraded
        # rate beyond the ~30 KB crossover, at wire speed below it)
        self.btl.am_send(
            "pml.rts", self.header, payload=self.stage, envelope=self.env,
            gpudirect=self.gdr,
        ).add_callback(self.sent)

    def sent(self, _f: Future) -> None:
        proc = self.proc
        total = self.total
        mode = "gpudirect" if self.gdr else ""
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="send",
                peer=self.env.dest, protocol="eager", mode=mode,
                total_bytes=total, frag_bytes=total, fragments=1,
                max_in_flight=1, start_s=self.t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("send", "eager", mode, total)
        self.done.resolve(total)


class _EagerRecv(_EagerOp):
    """One receive: match, then unpack an eager arrival or hand off a rendezvous."""

    __slots__ = ("world", "buf", "dt", "count", "result", "env", "dst",
                 "payload")

    def start(self, source: int, tag: int, comm_id: int) -> None:
        proc = self.proc
        on_match = Future(proc.sim, label=proc._match_label)
        proc.matching.post(
            PostedRecv(source=source, tag=tag, comm_id=comm_id,
                       on_match=on_match)
        )
        _ver = _san.VERIFY
        if _ver is not None:
            # the wait spans post -> completion: an unmatched post *and* a
            # protocol stalled mid-transfer both surface as this receive
            _vtok = _ver.wait_begin(
                "recv", proc.rank, proc.sim,
                peer=None if source < 0 else source,
                tag=None if tag < 0 else tag,
                comm_id=comm_id, world=self.world,
            )
            self.result.add_callback(lambda _f: _ver.wait_end(_vtok))
        on_match.add_callback(self.matched)

    def matched(self, mf: Future) -> None:
        env, header, payload, sender_rank = mf._value
        proc = self.proc
        dt = self.dt
        count = self.count
        try:
            _signature_check(header["signature"], _times(dt.signature, count))
        except ValueError as err:
            self.result.fail(err)
            return
        if not header["eager"]:
            proc.sim.spawn(
                _rndv_recv(self.world, proc, self.buf, dt, count, env,
                           header, sender_rank),
                label="irecv-rest",
                eager_start=True,
            ).add_callback(self.finish)
            return
        self.env = env
        self.t0 = proc.sim.now
        self.gdr = header["gpudirect"]
        self.dst = None
        # a receive may be posted larger than the message actually sent:
        # unpack only the prefix that arrived, leave trailing elements alone
        total = self.total = min(dt.size * count, len(payload))
        buf = self.buf
        if total == 0:
            self.unpacked(None)
        elif buf.is_host:
            if dt.is_contiguous and (count == 1 or dt.extent == dt.size):
                if _san.RACE is not None:
                    _san.RACE.record(buf, 0, buf.nbytes, True,
                                     label=f"cpu-unpack[0:{total}]")
                self.payload = payload
                proc.node.cpu_memcpy_engine.transfer(
                    total, label="cpu-unpack"
                ).add_callback(self.unpacked)
                self.dst = buf.bytes
            else:
                CpuSideJob(proc, dt, count, buf, "unpack").process_range(
                    0, total, payload
                ).add_callback(self.unpacked)
        else:
            job = proc.engine.unpack_job(dt, count, buf, proc.config.engine)
            # a prefix fragment: a short message covers only part of the
            # posted count
            self.run_device(job, job.range_fragment(0, 0, total), payload)

    def moved(self, f: Future) -> None:
        self.release_bounce()
        self.unpacked(f)

    def unpacked(self, _f: Optional[Future]) -> None:
        total = self.total
        dst = self.dst
        if dst is not None:
            dst[0:total] = self.payload[:total]
        proc = self.proc
        env = self.env
        mode = "gpudirect" if self.gdr else ""
        if proc.log_transfers:
            proc.record_transfer(TransferStats(
                tid=f"{proc.rank}.eager.{next(_tids)}", role="recv",
                peer=env.source, protocol="eager", mode=mode,
                total_bytes=total, frag_bytes=total, fragments=1,
                max_in_flight=1, start_s=self.t0, end_s=proc.sim.now,
            ))
        else:
            proc.count_transfer("recv", "eager", mode, total)
        self.result.resolve(Status(source=env.source, tag=env.tag,
                                   count_bytes=total))

    def finish(self, f: Future) -> None:
        """Mirror the rendezvous coroutine's outcome onto the result."""
        if f._exception is not None:
            self.result.fail(f._exception)
        else:
            self.result.resolve(f._value)


def _as_actor(step):
    """``step`` run as its operation's race actor, joined with the clock
    of the future that woke it (the form bound while RACE is installed)."""

    @functools.wraps(step)
    def tracked(self, *args) -> None:
        race = _san.RACE
        actor = getattr(self, "actor", None)
        if race is None or actor is None:
            step(self, *args)
            return
        # args[0] is the waking future; start's first argument carries no
        # clock (start runs in its caller's turn, after on_spawn)
        race.on_resume(actor, getattr(args[0], "_san_snap", None))
        race.enter(actor)
        try:
            step(self, *args)
        finally:
            race.exit()

    return tracked


#: (class, step) -> (plain form, actor-tracked form)
_STEP_FORMS = {
    (cls, name): (cls.__dict__[name], _as_actor(cls.__dict__[name]))
    for cls, names in (
        (_EagerOp, ("prepped",)),
        (_EagerSend, ("start", "moved", "packed", "sent")),
        (_EagerRecv, ("start", "matched", "moved", "unpacked", "finish")),
    )
    for name in names
}


def _bind_steps(instrumented: bool) -> None:
    """Swap every chain step between its plain and actor-tracked form."""
    for (cls, name), forms in _STEP_FORMS.items():
        setattr(cls, name, forms[instrumented])


_san.subscribe(_bind_steps)


# ---------------------------------------------------------------------------
# rendezvous protocol
# ---------------------------------------------------------------------------


def _rndv_send(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int,
):
    """Sender-side rendezvous: RTS, wait for the CTS, run the chosen pipeline."""
    total = dt.size * count
    btl = btl_for(proc, world.procs[dest])
    env = Envelope(
        source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
        pair_seq=proc.next_send_seq(dest, comm_id),
    )
    cfg = proc.config
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
    if s_info.loc == "device" and btl.supports_cuda_ipc:
        if s_info.contiguous:
            s_info.handle = IpcMemHandle.get(buf)
        else:
            nbytes = frag_bytes * depth
            state.ring = proc.acquire_staging("device", nbytes)
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
        state.stats.protocol = cts_pkt.header["protocol"]
        r_info: SideInfo = cts_pkt.header["side"]
        result = yield from sender(state, s_info, r_info, cts_pkt.header)
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


def _rndv_recv(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    env,
    header,
    sender_rank: int,
):
    """Receiver-side rendezvous after the match: choose the protocol, run it."""
    tid = header["tid"]
    s_info: SideInfo = header["side"]
    src_proc = world.procs[sender_rank]
    btl_back = btl_for(proc, src_proc)
    r_info = describe_side(proc, buf, dt, count)

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
    state.stats.protocol = choose_protocol(s_info, r_info, btl_back)
    state.bind_inbox("frag")
    state.bind_inbox("done")
    try:
        # the receiver sends the CTS (an ipc_rdma one after mapping)
        result = yield from receiver(state, s_info, r_info)
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
