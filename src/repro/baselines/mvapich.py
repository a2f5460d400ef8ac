"""MVAPICH2-GDR-style comparator: the vectorization approach.

Reimplements the structure the paper attributes to Wang et al. [1, 16]:
"a vectorization algorithm to convert any type of datatype into a set of
vector datatypes ... each contiguous block in such an indexed datatype is
considered as a single vector type and packed/unpacked separately from
other vectors by its own call to cudaMemcpy2D, increasing the number of
synchronizations ... Moreover, no pipelining or overlap between the
different stages of the datatype conversion is provided" (Section 2.2).

Consequences reproduced here:

* a true ``vector`` datatype → a single ``cudaMemcpy2D`` (decent);
* an ``indexed`` triangular matrix → one ``cudaMemcpy2D`` *per column*
  (driver-call bound — the curves that leave the chart in Fig 10);
* a transpose type → one ``cudaMemcpy2D`` per output column, each with
  thousands of 8-byte rows (row-descriptor bound, Fig 12);
* pack → transfer → unpack strictly serialized (no pipeline);
* data always transits host memory on the inter-node path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datatype.convertor import strided_view
from repro.datatype.ddt import Datatype
from repro.datatype.typemap import Spans
from repro.mpi.proc import MpiProcess

__all__ = ["VectorRun", "vectorize_spans", "MvapichLikeTransfer"]


@dataclass(frozen=True)
class VectorRun:
    """One vector produced by the vectorization algorithm."""

    first_disp: int
    blocklength: int
    stride: int
    count: int

    @property
    def nbytes(self) -> int:
        return self.blocklength * self.count


def vectorize_spans(spans: Spans) -> list[VectorRun]:
    """Greedy conversion of a span list into maximal vector runs.

    Runs break wherever the block length changes or the displacement
    stops advancing arithmetically — so equal-length evenly-spaced blocks
    fuse into one vector and everything else degenerates to per-block
    vectors, exactly the behaviour the paper criticizes.
    """
    n = spans.count
    if n == 0:
        return []
    d, l = spans.disps, spans.lens
    if n == 1:
        return [VectorRun(int(d[0]), int(l[0]), int(l[0]), 1)]
    d1 = np.diff(d)
    breaks = np.zeros(n, dtype=bool)
    breaks[0] = True
    breaks[1:] |= l[1:] != l[:-1]
    if n > 2:
        breaks[2:] |= d1[1:] != d1[:-1]
    starts = np.flatnonzero(breaks)
    ends = np.append(starts[1:], n)
    runs: list[VectorRun] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        cnt = e - s
        stride = int(d1[s]) if cnt > 1 else int(l[s])
        runs.append(VectorRun(int(d[s]), int(l[s]), stride, cnt))
    return _merge_runs(runs)


def _merge_runs(runs: list[VectorRun]) -> list[VectorRun]:
    """Fold boundary singletons into the arithmetic run they start.

    The vectorized break detection flags both the first element of a new
    run *and* the element after it (the stride only stabilizes at the
    second gap), leaving a spurious singleton at each run boundary.
    """
    merged: list[VectorRun] = []
    for r in runs:
        if merged:
            p = merged[-1]
            if p.blocklength == r.blocklength:
                gap = r.first_disp - (p.first_disp + (p.count - 1) * p.stride)
                if gap < p.blocklength:
                    merged.append(r)  # would overlap: not a legal pitch
                    continue
                if p.count == 1 and (r.count == 1 or gap == r.stride):
                    stride = r.stride if r.count > 1 else gap
                    merged[-1] = VectorRun(
                        p.first_disp, p.blocklength, stride, r.count + 1
                    )
                    continue
                if p.count > 1 and r.count == 1 and gap == p.stride:
                    merged[-1] = VectorRun(
                        p.first_disp, p.blocklength, p.stride, p.count + 1
                    )
                    continue
        merged.append(r)
    return merged


class MvapichLikeTransfer:
    """One-way non-contiguous GPU transfer, MVAPICH-style.

    A single coordinator coroutine drives sender pack, wire transfer and
    receiver unpack *sequentially* — faithful to the no-overlap design.
    """

    #: beyond this many cudaMemcpy2D calls the remainder is one batched
    #: operation, each call still priced on its own run plus one sync
    #: (bounded Python overhead, identical simulated time)
    MAX_MODELED_CALLS = 8192

    def __init__(self, sender: MpiProcess, receiver: MpiProcess) -> None:
        if sender.gpu is None or receiver.gpu is None:
            raise ValueError("MVAPICH baseline models GPU-GPU transfers")
        self.s = sender
        self.r = receiver
        self.same_node = sender.node is receiver.node

    # -- the per-run cudaMemcpy2D stage ---------------------------------------
    def _memcpy2d_stage(
        self,
        proc: MpiProcess,
        runs: list[VectorRun],
        user: np.ndarray,
        stage,
        direction: str,  # "pack": user -> stage, "unpack": stage -> user
        over_pcie: bool,
    ):
        """One synchronous cudaMemcpy2D per vector run (plus sync cost)."""
        gpu = proc.gpu
        stream = gpu.stream("mvapich")
        sync_oh = gpu.params.memcpy_call_overhead  # cudaStreamSynchronize
        link = gpu.copy_engine  # memcpy2d_time uses link bandwidth over PCIe
        if over_pcie:
            link = gpu.d2h_link if direction == "pack" else gpu.h2d_link
        cap = self.MAX_MODELED_CALLS
        calls = [runs[j : j + 1] for j in range(min(len(runs), cap))]
        if len(runs) > cap:
            calls[-1] = runs[cap - 1 :]
        pos = 0
        for call in calls:
            duration = sum(
                gpu.memcpy2d_time(r.blocklength, r.count, over_pcie, link.bandwidth)
                + sync_oh
                for r in call
            )
            nbytes = sum(r.nbytes for r in call)

            def move(call=call, pos=pos) -> None:
                self._move_runs(call, user, stage, pos, direction)

            yield stream.enqueue(
                duration,
                fn=move,
                label="mvapich-memcpy2d" + ("-batch" if len(call) > 1 else ""),
                co_links=(link,),
                nbytes=nbytes,
            )
            pos += nbytes

    @staticmethod
    def _move_runs(runs, user, stage, pos, direction: str) -> None:
        """Move each run with one strided view of ``user``, bounds-checked
        as the convertor's strided executor is."""
        sv = stage.bytes if hasattr(stage, "bytes") else stage
        for run in runs:
            bl = run.blocklength
            u = math.gcd(bl, run.stride, run.first_disp, 8)
            rows = strided_view(
                user, run.first_disp, (run.count, bl // u), (run.stride, u), u
            )
            data = sv[pos : pos + run.nbytes].view(rows.dtype).reshape(rows.shape)
            if direction == "pack":
                data[:] = rows
            elif run.stride >= bl:
                rows[:] = data
            else:  # overlapping rows: one at a time, so later rows win
                for i in range(run.count):
                    rows[i] = data[i]
            pos += run.nbytes

    # -- one-way transfers -------------------------------------------------------
    def transfer(
        self,
        src_buf,
        src_dt: Datatype,
        src_count: int,
        dst_buf,
        dst_dt: Datatype,
        dst_count: int,
    ):
        """Coroutine: move one message sender->receiver, MVAPICH-style."""
        s_spans = src_dt.spans_for_count(src_count)
        r_spans = dst_dt.spans_for_count(dst_count)
        total = s_spans.size
        s_runs = vectorize_spans(s_spans)
        r_runs = vectorize_spans(r_spans)
        if self.same_node:
            yield from self._intra_node(src_buf, s_runs, dst_buf, r_runs, total)
        else:
            yield from self._inter_node(src_buf, s_runs, dst_buf, r_runs, total)
        return total

    def _intra_node(self, src_buf, s_runs, dst_buf, r_runs, total):
        """Pack D2H into a shared host region, unpack H2D — serialized.

        "Both Wang and Jenkins's work require transitioning the packed
        GPU data through host memory, increasing the load on the memory
        bus and imposing a significant sequential overhead on the
        communications" (Section 2.2) — so even intra-node the baseline
        crosses PCIe twice, with no overlap between the stages.
        """
        host_stage = self.s.acquire_staging("host", max(total, 256))
        try:
            yield from self._memcpy2d_stage(
                self.s, s_runs, src_buf.bytes, host_stage, "pack", over_pcie=True
            )
            # handoff through the shared-memory segment (control only; the
            # staging region itself is shared between the processes)
            yield self.s.node.shmem_link.transfer(
                self.s.node.params.am_header_bytes, label="mvapich-handoff"
            )
            yield from self._memcpy2d_stage(
                self.r, r_runs, dst_buf.bytes, host_stage, "unpack", over_pcie=True
            )
        finally:
            self.s.release_staging("host", host_stage)

    def _inter_node(self, src_buf, s_runs, dst_buf, r_runs, total):
        """Pack D2H, send over the wire, unpack H2D — serialized."""
        host_s = self.s.acquire_staging("host", max(total, 256))
        host_r = self.r.acquire_staging("host", max(total, 256))
        try:
            yield from self._memcpy2d_stage(
                self.s, s_runs, src_buf.bytes, host_s, "pack", over_pcie=True
            )
            nic = self.s.node.nic
            yield nic.send(self.r.node.name, total, label="mvapich-wire")
            host_r.bytes[:total] = host_s.bytes[:total]
            yield from self._memcpy2d_stage(
                self.r, r_runs, dst_buf.bytes, host_r, "unpack", over_pcie=True
            )
        finally:
            self.s.release_staging("host", host_s)
            self.r.release_staging("host", host_r)
