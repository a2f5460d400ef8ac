"""The rendezvous fragment pipeline: one sender loop, one receiver loop.

Every rendezvous protocol moves the packed stream as fragments through
the same per-fragment stages, and differs only in which stages run and
which side drives them (Section 4.1's Fig 4 ring and its contiguous
shortcuts, Section 4.2's copy-in/out):

* ``host`` — both buffers in host memory: the CPU packs fragments into
  a pooled host ring (a contiguous send ships views of its buffer), and
  the receiver unpacks straight out of the sender's slot;
* ``copyinout`` — GPU data staged through host memory (inter-node,
  IPC disabled, or a host/device pair): pack kernel, D2H (or, with UMA
  *zero copy*, the kernel writes the mapped host ring itself), the
  wire's deposit into the receiver's ring, H2D, unpack kernel;
* ``ipc_rdma`` — intra-node GPU RDMA over CUDA IPC, in the mode the
  receiver picks from both sides' contiguity: ``general`` (the sender
  packs into its device ring, the receiver syncs on a CUDA IPC event,
  optionally copies into a local stage — the 10-15 % of Section 5.2.1 —
  and unpacks), ``general_put`` (the receiver exposes the ring and the
  sender's kernels pack into it), ``send_contig`` (the receiver pulls
  ranges of the sender's buffer under the credit window),
  ``recv_contig`` (the sender packs straight into the receiver's
  buffer) and ``both_contig`` (one whole-message GET inside the
  handshake).

Each side describes its part as one :class:`Leg`, built once per
transfer; :func:`sender` and :func:`receiver` run every leg and own the
credit window, the ring-slot gates, retransmission, duplicate
suppression and ACKs (:class:`TransferState`).

Robustness (docs/ROBUSTNESS.md): a receiver whose
``cudaIpcOpenMemHandle`` fails steers the still-open handshake down to
copy-in/out; a receiver that cannot allocate its optional local stage
unpacks straight from the remote memory; sender-side opens (which have
no renegotiation path) get bounded retry.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.cuda.ipc import IpcMemHandle
from repro.faults.plan import IpcOpenError
from repro.hw.memory import Buffer
from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    deposit,
    open_with_retry,
)
from repro.sim.core import all_of

__all__ = ["Leg", "sender", "receiver", "transfer_mode"]


def transfer_mode(s_info: SideInfo, r_info: SideInfo) -> str:
    """Pick the Fig-4 mode from the two sides' contiguity."""
    if s_info.contiguous and r_info.contiguous:
        return "both_contig"
    if s_info.contiguous:
        return "send_contig"
    if r_info.contiguous:
        return "recv_contig"
    return "general"


class Leg:
    """One side of one transfer: the per-fragment stages it runs.

    ``job`` packs or unpacks — a GPU :class:`PackJob` or, when ``cpu``,
    a :class:`CpuSideJob`; None ships the user buffer as it is.
    ``ring`` is where a fragment sits on the wire side: slot ``i % depth``
    of a host or device ring or, when ``linear``, bytes ``[lo:hi]`` of a
    (mapped) user buffer.  ``work`` is the slot the job uses instead
    when ``copy(dst, src)`` moves the fragment between it and ``ring``.
    ``sync`` is the link a CUDA IPC event wait serializes on, and
    ``staging`` the pooled ``(kind, buffer, zero_copy)`` triples
    returned when the transfer ends.
    """

    # class-level defaults: building a leg runs no Python-level __init__
    job = None
    cpu = False
    ring: Optional[Buffer] = None
    linear = False
    work: Optional[Buffer] = None
    copy = None
    sync = None
    staging: tuple = ()

    def stage(
        self, state: TransferState, kind: str, zero_copy: bool = False,
        optional: bool = False,
    ) -> Optional[Buffer]:
        """A pooled ``kind`` ring of ``depth`` fragment slots, returned at the end.

        Fragment ``i`` lives in slot ``i % depth``, at byte offset
        ``(i % depth) * frag_bytes``.  A host-ring slot holds a sent
        fragment until that fragment's ACK returns its credit, since the
        receiver reads it in place (see ``Btl.am_send``); ``zero_copy``
        UMA-maps a host ring for the GPU.  An ``optional`` ring is None
        under allocation pressure (``MpiProcess.acquire_staging``).
        """
        buf = state.proc.acquire_staging(
            kind, state.frag_bytes * state.depth, zero_copy_map=zero_copy,
            optional=optional,
        )
        if buf is not None:
            self.staging += ((kind, buf, zero_copy),)
        return buf

    def bind_job(self, state: TransferState, loc: str, direction: str) -> None:
        """Build the pack/unpack job for a buffer in ``loc`` memory."""
        proc = state.proc
        if loc == "device":
            make = proc.engine.pack_job if direction == "pack" else proc.engine.unpack_job
            self.job = make(state.dt, state.count, state.buf, proc.config.engine)
        else:
            self.cpu = True
            self.job = CpuSideJob(proc, state.dt, state.count, state.buf, direction)


def _ipc_link(proc, peer_gpu):
    """The engine a CUDA IPC event wait against ``peer_gpu``'s memory uses."""
    if peer_gpu is proc.gpu:
        return proc.gpu.copy_engine
    return proc.gpu.p2p_links[peer_gpu.name]


# ---------------------------------------------------------------------------
# sender
# ---------------------------------------------------------------------------


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side of every protocol, after the CTS.

    Per fragment: credit -> slot gate (device rings) -> [IPC sync] ->
    pack into ``work`` -> [copy to ``ring``] -> ``frag`` notification
    ``{i, lo, hi}``, carrying the fragment itself only when it sits in
    host memory.  ``recv_contig`` packs straight into the receiver's
    buffer: no credits, one ``done`` at the end.  Notifications ride the
    reliability layer (retransmit until ACKed, duplicate ACKs dropped).
    """
    proc = state.proc
    protocol = cts["protocol"]
    mode = cts.get("mode", "")
    mapped = None
    if mode:
        state.stats.mode = mode
        if mode == "send_contig" or mode == "both_contig":
            # the receiver pulls the message itself; wait for its "done"
            done = yield state.inbox.get()
            assert done.header.get("done")
            return state.total
        if mode != "general":
            # general_put / recv_contig: map the receiver's exposed memory
            mapped = yield from open_with_retry(state, cts["handle"])
    ranges = state.ranges()
    pushed = mode != "recv_contig"
    if pushed:
        all_acked = state.expect_acks(len(ranges))
        state.bind("ack", state.on_ack)
    leg = Leg()
    try:
        if protocol == "host":
            # built even for a contiguous send, which never packs: binding
            # the convertor reads the buffer, and memsan takes that read
            # as the buffer's initialization
            leg.bind_job(state, "host", "pack")
            if s_info.contiguous:
                leg.job = None
                leg.ring, leg.linear = state.buf, True
            elif ranges:
                leg.ring = leg.stage(state, "host")
        elif protocol == "copyinout":
            if not ranges:
                return state.total  # zero bytes: nothing to stage
            zero_copy = s_info.loc == "device" and proc.config.zero_copy
            leg.ring = leg.stage(state, "host", zero_copy)
            if s_info.loc == "device" and not zero_copy:
                leg.work = leg.stage(state, "device")
                leg.copy = proc.gpu.memcpy_d2h
            leg.bind_job(state, s_info.loc, "pack")
        else:
            if mode == "general":
                leg.ring = state.ring  # ours, allocated by the PML pre-RTS
            else:
                leg.ring, leg.linear = mapped, mode == "recv_contig"
                if not leg.linear:
                    # cross-process write fence before reusing a remote slot
                    leg.sync = _ipc_link(proc, cts["handle"].source_gpu)
            leg.bind_job(state, "device", "pack")
        ring, work, job = leg.ring, leg.work, leg.job
        wire = protocol != "ipc_rdma"  # the fragment sits in host memory
        # a device ring is the data path: never repack a slot whose
        # previous fragment is still unACKed (lost-notification case)
        gated = pushed and not wire and not leg.linear
        depth, frag_bytes = state.depth, state.frag_bytes
        for i, (lo, hi) in enumerate(ranges):
            if pushed:
                yield state.acquire_credit()
            if gated:
                yield state.slot_free(i)
            at = lo if leg.linear else i % depth * frag_bytes
            seg = ring[at : at + hi - lo]
            if leg.sync is not None:
                yield leg.sync.transfer(
                    0, extra_overhead=proc.node.params.ipc_frag_sync_cost,
                    label="ipc-sync",
                )
            if job is not None:
                dst = seg
                if work is not None:
                    at = i % depth * frag_bytes
                    dst = work[at : at + hi - lo]
                if leg.cpu:
                    yield job.process_range(lo, hi, dst)
                else:
                    yield from job.process_fragment(
                        job.range_fragment(i, lo, hi), dst
                    )
                if work is not None:
                    yield leg.copy(seg, dst)
            if pushed:
                state.send_frag(
                    {"i": i, "lo": lo, "hi": hi}, payload=seg if wire else None
                )
        if pushed:
            yield all_acked
        else:
            state.btl.am_send(state.peer("done"), {"done": True})
    finally:
        for kind, buf, zero_copy in leg.staging:
            proc.release_staging(kind, buf, zero_copy_map=zero_copy)
        if pushed:
            state.unbind_all("ack")
    return state.total


# ---------------------------------------------------------------------------
# receiver
# ---------------------------------------------------------------------------


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side of every protocol: answer the RTS, run the leg.

    The receiver sends every CTS.  For ``ipc_rdma`` it first maps the
    sender's memory; a failed ``cudaIpcOpenMemHandle`` answers
    ``copyinout`` instead, since the handshake is still open.  Host and
    copy-in/out receive one fragment at a time, in order (ACK order is
    what frees the sender's host-ring slots); the RDMA modes spawn one
    chain per fragment, so the copy of fragment i+1 overlaps the unpack
    of fragment i.  Duplicate notifications are suppressed (re-ACKed
    once processed), so a lossy transport unpacks each fragment once.
    """
    proc, btl = state.proc, state.btl
    cfg = proc.config
    protocol = state.stats.protocol
    cts = {"protocol": protocol, "side": r_info}
    leg = Leg()
    mode = ""
    if protocol == "ipc_rdma":
        mode = transfer_mode(s_info, r_info)
        if mode == "general" and cfg.rdma_mode == "put":
            mode = "general_put"
        state.stats.mode = mode
        if mode != "general_put" and mode != "recv_contig":
            # map the sender's ring or buffer (registration cached)
            try:
                leg.ring = yield s_info.handle.open(
                    proc.gpu, proc.ipc_cache, faults=proc.faults
                )
            except IpcOpenError:
                # no CTS has gone out: steer the handshake to copy-in/out
                proc.metrics.counter("pml.fallback.copyinout").inc()
                protocol = cts["protocol"] = state.stats.protocol = "copyinout"
                mode = state.stats.mode = ""
                state.stats.fallback = "copyinout"
    if mode:
        cts["mode"] = mode
    if mode == "general_put":
        leg.ring = leg.stage(state, "device")
        cts["handle"] = IpcMemHandle.get(leg.ring)
    elif mode == "recv_contig":
        r_info.handle = cts["handle"] = IpcMemHandle.get(state.buf)
    elif mode == "general" or mode == "send_contig":
        sender_gpu = s_info.handle.source_gpu
        leg.linear = mode == "send_contig"
        # CUDA IPC event wait before touching the remote-owned memory
        leg.sync = _ipc_link(proc, sender_gpu)
        if cfg.receiver_local_staging and sender_gpu is not proc.gpu:
            leg.work = leg.stage(state, "device", optional=True)
            leg.copy = partial(proc.gpu.memcpy_peer, peer=sender_gpu)
            if leg.work is None:
                # unpack straight from the remote memory: correct, just
                # without the Section 5.2.1 grouping win
                state.stats.fallback = "direct_unpack"
                proc.metrics.counter("pml.fallback.direct_unpack").inc()
    btl.am_send(state.peer("cts"), cts)
    if mode == "recv_contig":
        # the sender packs straight into our buffer
        done = yield state.inbox.get()
        assert done.header.get("done")
        return state.total
    if mode == "both_contig":
        # one one-sided GET of the whole message
        mapped, sender_gpu = leg.ring, s_info.handle.source_gpu
        if sender_gpu is proc.gpu:
            yield proc.gpu.memcpy_d2d(state.buf, mapped[: state.total])
        else:
            # pipelined GET: fragments hide per-op overhead behind the wire
            futs = []
            for lo, hi in state.ranges():
                futs.append(proc.gpu.memcpy_peer(
                    state.buf[lo:hi], mapped[lo:hi], sender_gpu
                ))
            for f in futs:
                yield f
        btl.am_send(state.peer("done"), {"done": True})
        return state.total
    ranges = state.ranges()
    in_order = protocol != "ipc_rdma"
    if in_order and not ranges:
        return state.total  # zero bytes: nothing to stage
    try:
        if protocol == "copyinout":
            zero_copy = r_info.loc == "device" and cfg.zero_copy
            leg.ring = leg.stage(state, "host", zero_copy)
            if r_info.loc == "device" and not zero_copy:
                leg.work = leg.stage(state, "device")
                leg.copy = proc.gpu.memcpy_h2d
        leg.bind_job(state, r_info.loc, "unpack")
        if mode == "send_contig":
            # pull each range; the credit window bounds the stage slots
            # in flight, and a pulled chain returns its credit
            chains = []
            for i, (lo, hi) in enumerate(ranges):
                yield state.acquire_credit()
                chains.append(proc.sim.spawn(
                    _receive(state, leg, i, lo, hi, None, True),
                    label="get-unpack",
                ))
        else:
            chains = None if in_order else []
            fresh = 0
            while fresh < len(ranges):
                pkt = yield state.inbox.get()
                if state.frag_is_dup(pkt):
                    continue
                fresh += 1
                h = pkt.header
                chain = _receive(
                    state, leg, h["i"], h["lo"], h["hi"], pkt.payload, False
                )
                if chains is None:
                    yield from chain
                else:
                    chains.append(proc.sim.spawn(chain, label="rdma-unpack"))
        if chains is not None:
            yield all_of(proc.sim, chains)
    finally:
        for kind, buf, zero_copy in leg.staging:
            proc.release_staging(kind, buf, zero_copy_map=zero_copy)
    if mode == "send_contig":
        btl.am_send(state.peer("done"), {"done": True})
    return state.total


def _receive(
    state: TransferState, leg: Leg, i: int, lo: int, hi: int, payload,
    pulled: bool,
):
    """One fragment's receive chain.

    [deposit] -> [IPC sync] -> [copy to ``work``] -> unpack -> ACK.  The
    host protocol unpacks straight out of the sender's slot (the
    payload); a pulled chain returns its credit instead of ACKing.
    """
    if not pulled:
        state.frag_begin()
    ring = leg.ring
    if ring is None:
        src = payload
    else:
        at = lo if leg.linear else i % state.depth * state.frag_bytes
        src = ring[at : at + hi - lo]
        if payload is not None:
            # the wire deposits the fragment into our posted ring
            deposit(payload, src)
    if leg.sync is not None:
        yield leg.sync.transfer(
            0, extra_overhead=state.proc.node.params.ipc_frag_sync_cost,
            label="ipc-sync",
        )
    job = leg.job
    if leg.cpu:
        # the sender's slot is read in place as a Buffer (the wire's
        # read); a slot of our own ring is unpacked as plain bytes
        yield job.process_range(lo, hi, src if ring is None else src.bytes)
    else:
        if leg.work is not None:
            at = i % state.depth * state.frag_bytes
            dst = leg.work[at : at + hi - lo]
            yield leg.copy(dst, src)
            src = dst
        yield from job.process_fragment(job.range_fragment(i, lo, hi), src)
    if pulled:
        state.release_credit()
        return
    state.frag_end()
    state.btl.am_send(state.peer("ack"), {"i": i})
    state.frag_done(i)

