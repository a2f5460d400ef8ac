"""Copy-in/copy-out protocol: GPU data staged through host memory.

"In some cases, due to hardware limitations or system level security
restrictions, the IPC is disabled and GPU RDMA transfers are not
available ... we provide a copy in/copy out protocol, where all data
transfers go through host memory" (Section 4.2).  This is also the path
the paper uses for **inter-node** transfers: staging through host with
the pipeline beats GPUDirect RDMA beyond ~30 KB.

Pipelining overlaps, per fragment: GPU pack kernel, device-to-host
movement (explicit memcpy or — with UMA *zero copy* — implicitly inside
the kernel), wire transfer, host-to-device movement, and GPU unpack.
Either endpoint may instead be a host buffer, in which case its side
degenerates to the CPU convertor ("extremely similar to the case when
one process uses device memory while the other only uses host memory").
"""

from __future__ import annotations

from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    deposit,
    host_ring,
)

__all__ = ["sender", "receiver"]


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side of the copy-in/out pipeline (pack -> stage -> wire)."""
    proc = state.proc
    cfg = proc.config
    ranges = state.ranges()
    all_acked = state.expect_acks(len(ranges))
    state.bind("ack", state.on_ack)
    if not ranges:
        # zero-byte message: nothing to stage, nothing to pipeline
        state.unbind_all("ack")
        return state.total

    on_device = s_info.loc == "device"
    zero_copy = on_device and cfg.zero_copy
    ring = host_ring(state, zero_copy)
    dev_stage = None
    if on_device and not zero_copy:
        dev_stage = proc.acquire_staging(
            "device", state.frag_bytes * state.depth
        )
    try:
        if on_device:
            job = proc.engine.pack_job(state.dt, state.count, state.buf, cfg.engine)
        else:
            job = CpuSideJob(proc, state.dt, state.count, state.buf, "pack")
        for i, (lo, hi) in enumerate(ranges):
            yield state.acquire_credit()
            # fragment i's slot in the host ring and the device stage
            at = i % state.depth * state.frag_bytes
            seg = ring[at : at + hi - lo]
            if on_device:
                frag = job.range_fragment(i, lo, hi)
                if zero_copy:
                    # the pack kernel streams straight into the mapped
                    # host segment, PCIe co-occupied (Fig 7's "cpy")
                    yield from job.process_fragment(frag, seg)
                else:
                    dseg = dev_stage[at : at + hi - lo]
                    yield from job.process_fragment(frag, dseg)
                    yield proc.gpu.memcpy_d2h(seg, dseg)
            else:
                yield job.process_range(lo, hi, seg)
            state.send_frag({"i": i, "lo": lo, "hi": hi}, payload=seg)
        yield all_acked
    finally:
        state.proc.release_staging("host", ring, zero_copy_map=zero_copy)
        if dev_stage is not None:
            proc.release_staging("device", dev_stage)
        state.unbind_all("ack")
    return state.total


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side of the copy-in/out pipeline (deposit -> unpack).

    Duplicate fragment notifications (retransmissions whose original made
    it through) are suppressed and re-ACKed, so a lossy transport still
    unpacks each fragment exactly once.
    """
    proc, btl = state.proc, state.btl
    cfg = proc.config
    n_frags = len(state.ranges())
    if n_frags == 0:
        state.unbind_all("frag")
        return state.total
    on_device = r_info.loc == "device"
    zero_copy = on_device and cfg.zero_copy
    ring = host_ring(state, zero_copy)
    dev_stage = None
    if on_device and not zero_copy:
        dev_stage = proc.acquire_staging("device", state.frag_bytes * state.depth)
    try:
        if on_device:
            job = proc.engine.unpack_job(state.dt, state.count, state.buf, cfg.engine)
        else:
            job = CpuSideJob(proc, state.dt, state.count, state.buf, "unpack")
        fresh = 0
        while fresh < n_frags:
            pkt = yield state.inbox.get()
            if state.frag_is_dup(pkt):
                continue
            fresh += 1
            state.frag_begin()
            i, lo, hi = pkt.header["i"], pkt.header["lo"], pkt.header["hi"]
            at = i % state.depth * state.frag_bytes
            seg = ring[at : at + hi - lo]
            # the wire deposits the fragment into our posted staging
            deposit(pkt.payload, seg)
            if on_device:
                frag = job.range_fragment(i, lo, hi)
                if zero_copy:
                    yield from job.process_fragment(frag, seg)
                else:
                    dseg = dev_stage[at : at + hi - lo]
                    yield proc.gpu.memcpy_h2d(dseg, seg)
                    yield from job.process_fragment(frag, dseg)
            else:
                yield job.process_range(lo, hi, seg.bytes)
            state.frag_end()
            btl.am_send(state.peer("ack"), {"i": i})
            state.frag_done(i)
    finally:
        proc.release_staging("host", ring, zero_copy_map=zero_copy)
        if dev_stage is not None:
            proc.release_staging("device", dev_stage)
        state.unbind_all("frag")
    return state.total
