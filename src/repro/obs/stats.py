"""Structured stats records: the uniform objects benchmarks consume.

Each layer fills its own record:

* :class:`TransferStats` — one point-to-point transfer (either side),
  appended to ``MpiProcess.transfer_log`` by the PML when the protocol
  coroutine finishes;
* :class:`CacheStats` — a :class:`repro.gpu_engine.cache.DevCache`
  snapshot with *consistent* hit/byte accounting;
* :class:`EngineStats` — a GPU datatype engine's prep/kernel/byte totals;
* :class:`WorldStats` — the roll-up ``MpiWorld.stats()`` returns: every
  transfer record, aggregated cache/engine numbers, per-resource busy
  time and the pack/wire overlap read off the cluster tracer.

Nothing here imports the MPI stack — records are plain data, assembled
by the layer that owns the underlying objects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = [
    "TransferStats",
    "CacheStats",
    "EngineStats",
    "WorldStats",
    "classify_resource",
]


@dataclass
class TransferStats:
    """One side of one point-to-point transfer, as the PML saw it."""

    tid: str
    role: str  # "send" | "recv"
    rank: int = -1
    peer: int = -1
    protocol: str = ""  # "eager" | "host" | "ipc_rdma" | "copyinout"
    mode: str = ""  # ipc_rdma mode: general/send_contig/recv_contig/...
    total_bytes: int = 0
    frag_bytes: int = 0
    fragments: int = 0
    #: time this side spent blocked waiting for a pipeline credit
    credit_wait_s: float = 0.0
    #: peak number of fragments simultaneously in flight on this side
    max_in_flight: int = 0
    #: fragment notifications re-sent because no ACK arrived in time
    retransmits: int = 0
    #: duplicate fragment notifications suppressed by the receiver
    dup_frags_dropped: int = 0
    #: duplicate ACKs suppressed by the sender
    dup_acks_dropped: int = 0
    #: degradation taken, if any ("copyinout", "direct_unpack", ...)
    fallback: str = ""
    start_s: float = -1.0
    end_s: float = -1.0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def bandwidth(self) -> float:
        """Effective bytes/second over the transfer's lifetime."""
        d = self.duration_s
        return self.total_bytes / d if d > 0 else 0.0

    def is_complete(self) -> bool:
        """True when every field a finished transfer must report is set."""
        return (
            bool(self.protocol)
            and self.role in ("send", "recv")
            and self.rank >= 0
            and self.peer >= 0
            and self.total_bytes >= 0  # zero-byte transfers are legal
            and self.fragments >= 1
            and 0.0 <= self.start_s <= self.end_s
        )

    def to_dict(self) -> dict:
        """The record as a JSON-friendly dict."""
        return asdict(self)


@dataclass
class CacheStats:
    """DevCache accounting snapshot (hit/miss/eviction/bytes)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: ``put`` calls that found their key already resident — kept apart
    #: from ``hits`` so pre-population cannot inflate the hit rate
    put_resident: int = 0
    rejected_oversized: int = 0
    entries: int = 0
    bytes_cached: int = 0
    bytes_evicted: int = 0
    budget_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Lookup-path consultations only (``get``); excludes pre-populates."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 when the cache was never consulted."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (budget summed too: total reserved memory)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            insertions=self.insertions + other.insertions,
            evictions=self.evictions + other.evictions,
            put_resident=self.put_resident + other.put_resident,
            rejected_oversized=self.rejected_oversized + other.rejected_oversized,
            entries=self.entries + other.entries,
            bytes_cached=self.bytes_cached + other.bytes_cached,
            bytes_evicted=self.bytes_evicted + other.bytes_evicted,
            budget_bytes=self.budget_bytes + other.budget_bytes,
        )

    def to_dict(self) -> dict:
        """The record plus the derived hit rate, JSON-friendly."""
        d = asdict(self)
        d["hit_rate"] = self.hit_rate
        return d


@dataclass
class EngineStats:
    """GPU datatype engine totals: the two pipeline stages plus the cache."""

    jobs: int = 0
    fragments: int = 0
    prep_s: float = 0.0
    kernel_s: float = 0.0
    bytes_packed: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: jobs per selected pack plan (memcpy / vector_kernel / gather)
    plans: dict = field(default_factory=dict)

    def merged(self, other: "EngineStats") -> "EngineStats":
        """Element-wise sum of two engines' totals (caches included)."""
        plans = dict(self.plans)
        for name, n in other.plans.items():
            plans[name] = plans.get(name, 0) + n
        return EngineStats(
            jobs=self.jobs + other.jobs,
            fragments=self.fragments + other.fragments,
            prep_s=self.prep_s + other.prep_s,
            kernel_s=self.kernel_s + other.kernel_s,
            bytes_packed=self.bytes_packed + other.bytes_packed,
            cache=self.cache.merged(other.cache),
            plans=plans,
        )

    def to_dict(self) -> dict:
        """The record (cache expanded) as a JSON-friendly dict."""
        d = asdict(self)
        d["cache"] = self.cache.to_dict()
        return d


def classify_resource(name: str) -> str:
    """Bucket a tracer resource name into a pipeline stage.

    * ``pack`` — GPU datatype-engine streams and the host CPU pack engine;
    * ``wire`` — the links a message rides between ranks: InfiniBand,
      PCIe peer-to-peer, the shared-memory segment;
    * ``pcie`` — host/device staging directions (H2D / D2H);
    * ``prep`` — the CPU CUDA_DEV preparation engine;
    * ``other`` — everything else (copy engines, memcpy queues...).
    """
    if ".dtengine" in name or name.endswith(".cpu_pack"):
        return "pack"
    if name.startswith("ib.") or ".pcie.p2p." in name or name.endswith(".shmem"):
        return "wire"
    if ".pcie.h2d." in name or ".pcie.d2h." in name:
        return "pcie"
    if name.endswith(".cpu_prep"):
        return "prep"
    return "other"


@dataclass
class WorldStats:
    """Everything ``MpiWorld.stats()`` rolls up for one run window."""

    transfers: list[TransferStats] = field(default_factory=list)
    by_protocol: dict = field(default_factory=dict)
    by_mode: dict = field(default_factory=dict)
    engine: EngineStats = field(default_factory=EngineStats)
    #: tracer-derived busy time per resource name (empty without tracing)
    resource_busy_s: dict = field(default_factory=dict)
    pack_busy_s: float = 0.0
    wire_busy_s: float = 0.0
    pcie_busy_s: float = 0.0
    pack_wire_overlap_s: float = 0.0
    #: simulator-core counters for the stats window (between resets):
    #: events executed, timers cancelled before firing, and the event
    #: queue's high-water mark
    events_processed: int = 0
    timers_cancelled: int = 0
    peak_queue_depth: int = 0
    #: wall-clock seconds spent inside ``world.run`` for the window
    run_wall_s: float = 0.0
    #: simulated seconds elapsed across the window's ``run`` calls
    sim_elapsed_s: float = 0.0
    #: Python garbage collections per generation (youngest first) during
    #: the window's ``run`` calls.  ``world.run`` pauses automatic
    #: collection, so this counts only collections a program triggers
    #: itself (``gc.collect()``); no gate reads it
    gc_collections: tuple = ()
    #: flat snapshot of the world's metrics registry
    metrics: dict = field(default_factory=dict)

    @property
    def events_per_wall_s(self) -> float:
        """Simulator events executed per wall-clock second (0 if unrun)."""
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.events_processed / self.run_wall_s

    @property
    def cache(self) -> CacheStats:
        return self.engine.cache

    @property
    def cache_hit_rate(self) -> float:
        return self.engine.cache.hit_rate

    @property
    def pack_wire_overlap_fraction(self) -> float:
        """How much of the pack time hid under the wire time (0..1)."""
        if self.pack_busy_s <= 0.0:
            return 0.0
        return min(1.0, self.pack_wire_overlap_s / self.pack_busy_s)

    @property
    def total_bytes(self) -> int:
        return sum(t.total_bytes for t in self.transfers if t.role == "send")

    @property
    def credit_wait_s(self) -> float:
        return sum(t.credit_wait_s for t in self.transfers)

    @property
    def retransmits(self) -> int:
        """Total fragment retransmissions across every transfer."""
        return sum(t.retransmits for t in self.transfers)

    @property
    def dup_drops(self) -> int:
        """Duplicate frags + ACKs suppressed across every transfer."""
        return sum(
            t.dup_frags_dropped + t.dup_acks_dropped for t in self.transfers
        )

    @property
    def fallbacks(self) -> dict:
        """Count of transfers per degradation taken (empty = none)."""
        out: dict[str, int] = {}
        for t in self.transfers:
            if t.fallback:
                out[t.fallback] = out.get(t.fallback, 0) + 1
        return out

    @property
    def faults_injected(self) -> dict:
        """Injected-fault counters from the metrics snapshot."""
        return {
            k[len("faults."):]: v
            for k, v in self.metrics.items()
            if k.startswith("faults.")
        }

    @property
    def coll_ops(self) -> dict:
        """Collective calls per ``<op>.<algorithm>``, summed over ranks.

        Aggregates the per-rank ``r<k>.coll.<op>.<algo>`` counters the
        collectives module bumps on every call (byte totals appear as
        ``<op>.bytes``); empty when no collectives ran.
        """
        out: dict[str, int] = {}
        for k, v in self.metrics.items():
            _rank, dot, rest = k.partition(".")
            if dot and rest.startswith("coll.") and _rank.startswith("r"):
                name = rest[len("coll."):]
                out[name] = out.get(name, 0) + v
        return out

    def busy_by_stage(self) -> dict:
        """Busy time aggregated by :func:`classify_resource` stage."""
        out: dict[str, float] = {}
        for name, busy in self.resource_busy_s.items():
            out[classify_resource(name)] = out.get(
                classify_resource(name), 0.0
            ) + busy
        return out

    def is_complete(self) -> bool:
        """True when every transfer record is fully populated."""
        return bool(self.transfers) and all(
            t.is_complete() for t in self.transfers
        )

    def to_dict(self) -> dict:
        """The whole roll-up, derived ratios included, JSON-friendly."""
        return {
            "transfers": [t.to_dict() for t in self.transfers],
            "by_protocol": dict(self.by_protocol),
            "by_mode": dict(self.by_mode),
            "engine": self.engine.to_dict(),
            "cache_hit_rate": self.cache_hit_rate,
            "resource_busy_s": dict(self.resource_busy_s),
            "pack_busy_s": self.pack_busy_s,
            "wire_busy_s": self.wire_busy_s,
            "pcie_busy_s": self.pcie_busy_s,
            "pack_wire_overlap_s": self.pack_wire_overlap_s,
            "pack_wire_overlap_fraction": self.pack_wire_overlap_fraction,
            "events_processed": self.events_processed,
            "timers_cancelled": self.timers_cancelled,
            "peak_queue_depth": self.peak_queue_depth,
            "run_wall_s": self.run_wall_s,
            "sim_elapsed_s": self.sim_elapsed_s,
            "events_per_wall_s": self.events_per_wall_s,
            "gc_collections": list(self.gc_collections),
            "credit_wait_s": self.credit_wait_s,
            "retransmits": self.retransmits,
            "dup_drops": self.dup_drops,
            "fallbacks": self.fallbacks,
            "faults_injected": self.faults_injected,
            "coll_ops": self.coll_ops,
            "metrics": dict(self.metrics),
        }

    def summary(self) -> str:
        """A compact human-readable report (used by ``--smoke``)."""
        lines = [
            f"transfers: {len(self.transfers)} "
            f"({sum(1 for t in self.transfers if t.role == 'send')} sends, "
            f"{self.total_bytes} bytes)",
            f"protocols: {dict(sorted(self.by_protocol.items()))}",
            f"cache: {self.engine.cache.hits} hits / "
            f"{self.engine.cache.lookups} lookups "
            f"(rate {self.cache_hit_rate:.2f})",
            f"pack busy {self.pack_busy_s * 1e6:.1f}us, "
            f"wire busy {self.wire_busy_s * 1e6:.1f}us, "
            f"overlap {self.pack_wire_overlap_fraction:.2f}",
            f"credit wait {self.credit_wait_s * 1e6:.1f}us",
        ]
        if self.events_processed:
            line = (
                f"events: {self.events_processed} "
                f"(peak queue {self.peak_queue_depth}, "
                f"{self.timers_cancelled} timers cancelled)"
            )
            if self.run_wall_s > 0.0:
                line += f", {self.events_per_wall_s:,.0f} events/s wall"
            if self.gc_collections:
                gens = "/".join(str(n) for n in self.gc_collections)
                line += f", gc collections by generation {gens}"
            lines.append(line)
        colls = self.coll_ops
        if colls:
            lines.append(f"collectives: {dict(sorted(colls.items()))}")
        faults = self.faults_injected
        if faults or self.retransmits or self.dup_drops or self.fallbacks:
            lines.append(
                f"faults: {sum(faults.values())} injected {dict(sorted(faults.items()))}, "
                f"{self.retransmits} retransmits, "
                f"{self.dup_drops} dups dropped, "
                f"fallbacks {dict(sorted(self.fallbacks.items()))}"
            )
        return "\n".join(lines)
