"""Host-memory rendezvous pipeline (the traditional Open MPI path).

"Open MPI handles non-contiguous datatypes on the CPU by packing them
into a temporary CPU buffer prior to communication" (Section 4.2).  The
sender CPU-packs fragments into a pooled host ring, ships each slot as
an Active Message payload, and the receiver CPU-unpacks straight out of
it; acknowledgements implement the flow-control window and free the
slots.  A contiguous send ships views of the user buffer instead.  This
is also the paper's ``CPU`` comparison configuration.
"""

from __future__ import annotations

from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    host_ring,
)

__all__ = ["sender", "receiver"]


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side: pack fragments, send, respect the credit window.

    A strided send packs fragment ``i`` into ring slot ``i % depth``; the
    credit window leaves the slot alone until fragment ``i``'s ACK,
    because the receiver unpacks out of the slot itself.

    Fragment notifications ride the reliability layer: unACKed fragments
    are retransmitted with backoff, duplicate ACKs are suppressed, and a
    zero-fragment (empty) message completes immediately.
    """
    proc = state.proc
    ranges = state.ranges()
    all_acked = state.expect_acks(len(ranges))
    state.bind("ack", state.on_ack)
    job = CpuSideJob(proc, state.dt, state.count, state.buf, "pack")
    ring = None
    if ranges and not s_info.contiguous:
        ring = host_ring(state)
    try:
        for i, (lo, hi) in enumerate(ranges):
            yield state.acquire_credit()
            if ring is None:
                payload = state.buf[lo:hi]
            else:
                at = i % state.depth * state.frag_bytes
                payload = ring[at : at + hi - lo]
                yield job.process_range(lo, hi, payload)
            state.send_frag({"i": i, "lo": lo, "hi": hi}, payload=payload)
        yield all_acked
    finally:
        if ring is not None:
            proc.release_staging("host", ring)
        state.unbind_all("ack")
    return state.total


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side: unpack each fragment out of the sender's segment
    (the wire's one copy), then acknowledge it, which frees the slot.

    Retransmitted duplicates are suppressed (re-ACKed when already
    processed), so a lossy transport converges on exactly-once unpack.
    """
    proc, btl = state.proc, state.btl
    n_frags = len(state.ranges())
    if n_frags == 0:
        return state.total
    job = CpuSideJob(proc, state.dt, state.count, state.buf, "unpack")
    fresh = 0
    try:
        while fresh < n_frags:
            pkt = yield state.inbox.get()
            if state.frag_is_dup(pkt):
                continue
            fresh += 1
            state.frag_begin()
            i, lo, hi = pkt.header["i"], pkt.header["lo"], pkt.header["hi"]
            yield job.process_range(lo, hi, pkt.payload)
            state.frag_end()
            btl.am_send(state.peer("ack"), {"i": i})
            state.frag_done(i)
    finally:
        state.unbind_all("frag")
    return state.total
