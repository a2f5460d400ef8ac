"""Shared protocol plumbing: side descriptions, jobs, fragment plans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cuda.ipc import IpcMemHandle
from repro.datatype.convertor import Convertor
from repro.datatype.ddt import Datatype
from repro.faults.plan import IpcOpenError, TransferTimeout
from repro.gpu_engine.engine import PackJob
from repro.hw.memory import Buffer
from repro.obs.stats import TransferStats
from repro.sanitize import runtime as _san
from repro.sim.core import Future, TimerHandle
from repro.sim.resources import Mailbox, Semaphore

if TYPE_CHECKING:
    from repro.mpi.btl.base import Btl
    from repro.mpi.proc import MpiProcess

__all__ = [
    "SideInfo",
    "TransferState",
    "CpuSideJob",
    "byte_ranges",
    "deposit",
    "describe_side",
    "choose_protocol",
    "open_with_retry",
]


# Retry policy of the reliability layer (docs/ROBUSTNESS.md).  A sender
# arms one retransmit timer per unACKed ``frag`` notification, backing off
# as ``RTO * BACKOFF**attempt``; the transfer fails with
# TransferTimeout once MAX_RETRIES retransmissions go unanswered.  Timers
# are armed only when a fault plan is active, so fault-free timelines
# are untouched.
#: base retransmit timeout, seconds (generous: fragments are ~100 us)
RTO = 2e-3
#: exponential backoff factor between retransmissions and IPC re-opens
BACKOFF = 2.0
#: retransmissions per fragment before the transfer fails
MAX_RETRIES = 8
#: sender-side CUDA IPC open attempts beyond the first
IPC_OPEN_RETRIES = 4


def open_with_retry(state: "TransferState", handle: IpcMemHandle):
    """Coroutine: CUDA IPC open with bounded retry and backoff.

    Used on the *sender* side (and anywhere no renegotiation is
    possible): a failed ``cudaIpcOpenMemHandle`` is retried up to
    ``IPC_OPEN_RETRIES`` times before the error propagates.
    Receivers instead fall back to the copy-in/out protocol after a
    single failed attempt (they can still steer the handshake).
    """
    proc = state.proc
    attempt = 0
    while True:
        try:
            mapped = yield handle.open(proc.gpu, proc.ipc_cache, faults=proc.faults)
            return mapped
        except IpcOpenError:
            if attempt >= IPC_OPEN_RETRIES:
                raise
            proc.metrics.counter("pml.ipc_open_retries").inc()
            yield proc.sim.timeout(RTO * BACKOFF**attempt)
            attempt += 1


@dataclass
class SideInfo:
    """What one peer reveals about its buffer during the handshake."""

    loc: str  # "host" | "device"
    gpu_name: Optional[str]
    contiguous: bool
    total: int
    #: IPC handle of the user buffer (contiguous-device fast paths) or of
    #: the sender's fragment ring (general RDMA path)
    handle: Optional[IpcMemHandle] = None
    ring_segments: int = 0
    frag_bytes: int = 0


def describe_side(
    proc: "MpiProcess", buf: Buffer, dt: Datatype, count: int
) -> SideInfo:
    """Build the handshake description of one endpoint's buffer.

    ``contiguous`` means the packed stream *is* the buffer's first
    ``total`` bytes, which the contiguous fast paths read or write in
    place.  Past one element that also needs ``extent == size``: a
    resized contiguous type strides its elements apart.
    """
    return SideInfo(
        loc="device" if buf.is_device else "host",
        gpu_name=buf.device.name if buf.is_device else None,
        contiguous=dt.is_contiguous and (count == 1 or dt.extent == dt.size),
        total=dt.size * count,
    )


def choose_protocol(s: SideInfo, r: SideInfo, btl: "Btl") -> str:
    """The receiver-side handshake decision (Section 4.1).

    Host pairs take the host pipeline, device pairs over a CUDA-IPC BTL
    the RDMA pipeline, and everything else (mixed placement, no IPC)
    stages through the host with copy-in/out.  Device pairs still reach
    copy-in/out through ``use_cuda_ipc=False`` and the fault fallback
    ladder.
    """
    if s.loc == "host" and r.loc == "host":
        return "host"
    if btl.supports_cuda_ipc and s.loc == "device" and r.loc == "device":
        return "ipc_rdma"
    return "copyinout"


def byte_ranges(total: int, frag: int) -> list[tuple[int, int]]:
    """The packed stream cut into pipeline fragments.

    A zero-byte message has *no* fragments — a ghost ``(0, 0)`` fragment
    would ship a pointless notification through the ring and touch the
    GPU engine for nothing.
    """
    if total == 0:
        return []
    return [(lo, min(lo + frag, total)) for lo in range(0, total, frag)]


def deposit(payload, seg: Buffer) -> None:
    """The wire's one copy of a fragment: into the receiver's posted ``seg``.

    A :class:`Buffer` payload is the sender's ring slot, read in place
    through ``Buffer.bytes`` (a freed slot is a use-after-free); the race
    detector records that read and the write into ``seg``, so a slot the
    sender reused before this deposit is an unordered access.  An array
    payload is a retransmission snapshot.
    """
    n = seg.nbytes
    wire = isinstance(payload, Buffer)
    if _san.RACE is not None:
        if wire:
            _san.RACE.record(payload, 0, n, False, label="wire-read")
        _san.RACE.record(seg, 0, n, True, label="wire-deposit")
    seg.bytes[:] = (payload.bytes if wire else payload)[:n]


@dataclass
class TransferState:
    """Per-transfer state shared by a protocol coroutine and its handlers."""

    proc: "MpiProcess"
    btl: "Btl"
    tid: str
    dt: Datatype
    count: int
    buf: Buffer
    total: int
    frag_bytes: int
    depth: int
    #: inbound protocol messages (frag-ready / acks / done)
    inbox: Mailbox = None  # type: ignore[assignment]
    credits: Semaphore = None  # type: ignore[assignment]
    #: sender-side device fragment ring (ipc_rdma general mode)
    ring: Optional[Buffer] = None
    #: which side of the transfer this state belongs to ("s" or "r") —
    #: qualifies AM handler names so a rank sending to *itself* (e.g. a
    #: collective's self-contribution) binds both sides without collision
    role: str = "s"
    #: structured per-transfer record, published to the rank's
    #: ``transfer_log`` by the PML when the protocol finishes
    stats: TransferStats = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        sim = self.proc.sim
        self.inbox = Mailbox(sim, name=f"{self.tid}.inbox")
        self.credits = Semaphore(sim, value=self.depth, name=f"{self.tid}.credits")
        self.stats = TransferStats(
            tid=self.tid,
            role="send" if self.role == "s" else "recv",
            rank=self.proc.rank,
            total_bytes=self.total,
            frag_bytes=self.frag_bytes,
            start_s=sim.now,
        )
        self._in_flight = 0
        # -- reliability layer (docs/ROBUSTNESS.md) ------------------------
        #: retransmit timers armed only under an active fault plan;
        #: fault-free timelines stay untouched
        self.reliable = self.proc.faults is not None and self.proc.faults.active
        #: sender side: fragment ids whose ACK has arrived
        self.acked: set[int] = set()
        #: sanitizer: clock snapshot at each ACK's arrival; a slot_free
        #: gate that finds its ACK already arrived inherits this stamp
        self._ack_snaps: dict[int, dict] = {}
        self._retrans_timers: dict[int, TimerHandle] = {}
        self._all_acked: Optional[Future] = None
        self._acks_needed = 0
        #: receiver side: fragment ids seen / fully processed (dedupe)
        self._frags_seen: set[int] = set()
        self._frags_done: set[int] = set()
        #: sanitizer: vector-clock snapshot at frag_done time, replayed on
        #: re-ACKs so the unpack -> re-ACK happens-before edge is visible
        self._done_snaps: dict[int, dict] = {}
        #: ring-slot reuse gates (see :meth:`slot_free`)
        self._slot_waiters: dict[int, list[Future]] = {}
        #: waits that must fail if the transfer times out (see _abort)
        self._waits: list[Future] = []
        self._closed = False

    # -- sender reliability: ACK tracking + retransmit -----------------------
    def expect_acks(self, n: int) -> Future:
        """Future resolving once ``n`` distinct fragment ACKs arrive.

        Pair with ``bind("ack", state.on_ack)``.  Fails with
        :class:`TransferTimeout` if any fragment exhausts its retries.
        """
        fut = Future(self.proc.sim, label=f"{self.tid}.all-acked")
        self._all_acked = fut
        self._acks_needed = n
        if n == 0:
            fut.resolve(None)
        return fut

    def on_ack(self, pkt, _btl) -> None:
        """AM handler: dedupe, cancel the retransmit timer, free a credit."""
        i = int(pkt.header["i"])
        if i in self.acked:
            # a retransmitted fragment was re-ACKed; drop the duplicate
            self.stats.dup_acks_dropped += 1
            self.proc.metrics.counter("pml.dup_acks_dropped").inc()
            return
        self.acked.add(i)
        if _san.RACE is not None:
            # delivery-actor clock: includes the receiver's unpack chain
            # (the ACK was sent after the fragment was fully retired)
            self._ack_snaps[i] = _san.RACE.snapshot()
        timer = self._retrans_timers.pop(i, None)
        if timer is not None:
            timer.cancel()
        for fut in self._slot_waiters.pop(i, []):
            if not fut.done:
                fut.resolve(None)
        self.release_credit()
        self._acks_needed -= 1
        if self._acks_needed == 0 and self._all_acked is not None:
            if not self._all_acked.done:
                self._all_acked.resolve(None)

    def slot_free(self, i: int) -> Future:
        """Future: ring slot ``i % depth`` is safe to overwrite.

        In the RDMA modes the ring *is* the data path, and credits are a
        counting window, not slot-specific: ACKs for fragments i+1..i+k
        can hand the sender enough credits to reach fragment ``i + depth``
        while fragment ``i`` — lost on the wire and awaiting
        retransmission — still lives in its slot.  Repacking the slot
        then corrupts the retransmitted fragment.  This gate waits for
        the ACK of fragment ``i - depth`` specifically; on the
        non-reliable path in-order delivery makes the credit window
        sufficient and the gate resolves immediately.
        """
        fut = Future(self.proc.sim, label=f"{self.tid}.slot[{i}]")
        j = i - self.depth
        if not self.reliable or j < 0 or j in self.acked:
            if _san.RACE is not None and j in self._ack_snaps:
                # the gate is a no-op only because ACK(j) already landed;
                # inherit that arrival's clock so slot reuse stays ordered
                # after the receiver's unpack of fragment j
                fut._san_snap = self._ack_snaps[j]
            fut.resolve(None)
            return fut
        self._slot_waiters.setdefault(j, []).append(fut)
        self._waits.append(fut)
        return fut

    def _guard(self, fut: Future) -> Future:
        """Make a wait abortable by a transfer-level timeout failure.

        A sender that exhausts retries may be blocked on a *credit*, not
        on the all-ACKed future — the timeout must reach it there too.
        """
        if not self.reliable:
            return fut
        outer = Future(self.proc.sim, label=f"{self.tid}.guarded")

        def forward(f: Future) -> None:
            if outer.done:
                return
            if f.failed:
                outer.fail(f.exception)
            else:
                outer.resolve(f._value)

        fut.add_callback(forward)
        self._waits.append(outer)
        return outer

    def _abort(self, exc: Exception) -> None:
        """Fail every outstanding guarded wait (retries exhausted)."""
        waits, self._waits = self._waits, []
        for w in waits:
            if not w.done:
                w.fail(exc)

    def send_frag(self, header: dict, payload: Optional[Buffer] = None) -> None:
        """Send a ``frag`` notification, retransmitting until ACKed.

        ``payload`` is the sender's segment holding the fragment; the
        receiver reads it in place.  Without the reliability layer this
        is a plain fire-and-forget ``am_send``; with it, an
        exponential-backoff watchdog re-sends the notification while the
        fragment id stays unACKed, and fails the transfer after
        ``MAX_RETRIES`` attempts.
        """
        if self.reliable and payload is not None:
            # own snapshot: a retransmission must resend the *original*
            # bytes even after the segment has been reused for a later
            # fragment (the credit window orders reuse after the ACK only
            # when nothing is lost, duplicated or late)
            payload = payload.bytes.copy()
        # vector-clock snapshot of the sending context: a retransmission
        # fires from a bare timer (no actor), but it still happens-after
        # everything the original send did (the pack of this fragment)
        snap = None if _san.RACE is None else _san.RACE.snapshot()
        self._transmit(int(header["i"]), header, payload, attempt=0, snap=snap)

    def _transmit(
        self, i: int, header: dict, payload, attempt: int, snap=None
    ) -> None:
        if attempt:
            self.stats.retransmits += 1
            self.proc.metrics.counter("pml.retransmits").inc()
        self.btl.am_send(self.peer("frag"), header, payload=payload, clock=snap)
        if not self.reliable:
            return
        delay = RTO * BACKOFF**attempt

        def fire() -> None:
            self._retrans_timers.pop(i, None)
            if self._closed or i in self.acked:
                return
            if attempt >= MAX_RETRIES:
                exc = TransferTimeout(
                    f"{self.tid}: fragment {i} unACKed after "
                    f"{MAX_RETRIES} retransmissions"
                )
                if self._all_acked is not None and not self._all_acked.done:
                    self._all_acked.fail(exc)
                self._abort(exc)
                return
            self._transmit(i, header, payload, attempt + 1, snap=snap)

        self._retrans_timers[i] = self.proc.sim.call_after(delay, fire)

    # -- receiver reliability: duplicate suppression --------------------------
    def frag_is_dup(self, pkt) -> bool:
        """True when this ``frag`` notification was already seen.

        Duplicates of *completed* fragments are re-ACKed (the original
        ACK may have been the loss); duplicates of in-flight fragments
        are silently dropped — their ACK is already on the way.
        """
        i = int(pkt.header["i"])
        if i not in self._frags_seen:
            self._frags_seen.add(i)
            return False
        self.stats.dup_frags_dropped += 1
        self.proc.metrics.counter("pml.dup_frags_dropped").inc()
        if i in self._frags_done:
            self._reack(i)
        return True

    def frag_done(self, i: int) -> None:
        """Mark a fragment fully processed (its ACK has been sent)."""
        self._frags_done.add(int(i))
        if _san.RACE is not None:
            self._done_snaps[int(i)] = _san.RACE.snapshot()

    def _reack(self, i: int) -> None:
        """Re-ACK a completed fragment (the original ACK may be lost).

        The re-ACK is gated on ``_frags_done`` membership, which is only
        set after the unpack chain retired the fragment — so it carries
        the ``frag_done``-time clock snapshot to keep that ordering
        visible to the race detector even though the sending context is
        the dispatcher loop, not the unpack chain.
        """
        i = int(i)
        self.btl.am_send(self.peer("ack"), {"i": i}, clock=self._done_snaps.get(i))

    def seal(self) -> None:
        """Keep answering late retransmissions after the transfer ends.

        Receiver side: a dropped final ACK makes the sender retransmit a
        fragment the receiver has already retired and unbound; the
        tombstone handler re-ACKs anything that still arrives so the
        sender can finish.  Sender side: a duplicated or delayed ACK can
        surface after the transfer completed and the ``ack`` handler was
        unbound; the tombstone swallows it.
        """
        if not self.reliable:
            return
        if self.role == "r":
            name = f"x{self.tid}.{self.role}.frag"

            def tombstone(pkt, _btl) -> None:
                self.proc.metrics.counter("pml.late_retransmits").inc()
                self._reack(pkt.header["i"])

        else:
            name = f"x{self.tid}.{self.role}.ack"

            def tombstone(pkt, _btl) -> None:
                self.stats.dup_acks_dropped += 1
                self.proc.metrics.counter("pml.dup_acks_dropped").inc()

        self.proc.unregister_handler(name)
        self.proc.register_handler(name, tombstone)

    def close(self) -> None:
        """Cancel every outstanding retransmit timer (transfer is over)."""
        self._closed = True
        for timer in self._retrans_timers.values():
            timer.cancel()
        self._retrans_timers.clear()

    # -- observability helpers ----------------------------------------------
    def ranges(self) -> list[tuple[int, int]]:
        """The transfer's fragment plan, recorded into the stats record."""
        r = byte_ranges(self.total, self.frag_bytes)
        self.stats.fragments = len(r)
        return r

    def frag_begin(self) -> None:
        """One more fragment in flight (tracks the high-water mark)."""
        self._in_flight += 1
        if self._in_flight > self.stats.max_in_flight:
            self.stats.max_in_flight = self._in_flight

    def frag_end(self) -> None:
        """One fragment retired."""
        self._in_flight = max(0, self._in_flight - 1)

    def acquire_credit(self) -> Future:
        """``credits.acquire()`` that accounts blocked time and in-flight."""
        t0 = self.proc.sim.now
        fut = self.credits.acquire()

        def granted(_fut: Future) -> None:
            self.stats.credit_wait_s += self.proc.sim.now - t0
            self.frag_begin()

        fut.add_callback(granted)
        return self._guard(fut)

    def release_credit(self) -> None:
        """``credits.release()`` that retires one in-flight fragment."""
        self.frag_end()
        self.credits.release()

    # -- handler helpers -----------------------------------------------------
    def bind(self, suffix: str, fn) -> str:
        """Register a role-qualified AM handler for this transfer."""
        name = f"x{self.tid}.{self.role}.{suffix}"
        self.proc.register_handler(name, fn)
        return name

    def bind_inbox(self, suffix: str) -> str:
        """Route an AM handler's packets into this transfer's inbox."""
        return self.bind(suffix, lambda pkt, _btl: self.inbox.put(pkt))

    def unbind_all(self, *suffixes: str) -> None:
        """Remove this side's handlers for the given suffixes."""
        for s in suffixes:
            self.proc.unregister_handler(f"x{self.tid}.{self.role}.{s}")

    def peer(self, suffix: str) -> str:
        """Handler name on the peer side of the same transfer."""
        other = "r" if self.role == "s" else "s"
        return f"x{self.tid}.{other}.{suffix}"


class CpuSideJob:
    """Host-side pack/unpack charged to the node's CPU pack engine.

    The symmetric counterpart of :class:`repro.gpu_engine.engine.PackJob`
    for buffers living in host memory (the traditional datatype engine).
    """

    def __init__(
        self,
        proc: "MpiProcess",
        dt: Datatype,
        count: int,
        buf: Buffer,
        direction: str,
    ) -> None:
        self.proc = proc
        self.node = proc.node
        self.direction = direction
        if _san.MEM is not None:
            _san.MEM.check_cpu_path(buf, what=f"CpuSideJob({direction})")
        # binds the datatype's cached stream plan to this buffer
        self.convertor = Convertor(dt, count, buf.bytes, direction)
        self.contiguous = dt.is_contiguous
        self.buf = buf
        self.total = dt.size * count

    def process_range(self, lo: int, hi: int, stage) -> Future:
        """Pack [lo, hi) into ``stage`` / unpack ``stage`` into [lo, hi).

        ``stage`` may be a :class:`Buffer` or a raw ``uint8`` view (e.g. an
        Active Message payload).
        """
        n = hi - lo
        if isinstance(stage, Buffer):
            if self.direction != "pack" and _san.MEM is not None:
                # unpack reads the staging segment; flag slots nothing
                # filled (before .bytes conservatively marks them valid)
                _san.MEM.check_read(stage, 0, n, what=f"cpu-unpack[{lo}:{hi}]")
            view = stage.bytes
        else:
            view = stage
        if _san.RACE is not None:
            packing = self.direction == "pack"
            _san.RACE.record(
                self.buf, 0, self.buf.nbytes, not packing,
                label=f"cpu-{self.direction}[{lo}:{hi}]",
            )
            if isinstance(stage, Buffer):
                _san.RACE.record(
                    stage, 0, n, packing,
                    label=f"cpu-{self.direction}-stage[{lo}:{hi}]",
                )
        if self.direction == "pack":
            def move() -> None:
                self.convertor.pack_range(view, lo, hi)
        else:
            def move() -> None:
                self.convertor.unpack_range(view, lo, hi)
        if self.contiguous:
            # no transformation needed — a straight memcpy
            return self.node.cpu_memcpy_op(n, fn=move, label=f"cpu-{self.direction}")
        return self.node.cpu_pack_op(n, fn=move, label=f"cpu-{self.direction}")
