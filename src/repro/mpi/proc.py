"""Per-rank process state: the endpoint everything else hangs off."""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional

from repro.cuda.runtime import CudaContext
from repro.cuda.uma import map_host_buffer, unmap_host_buffer
from repro.faults.plan import FaultPlan
from repro.gpu_engine.engine import GpuDatatypeEngine
from repro.mpi.config import MpiConfig
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AmPacket
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import TransferStats
from repro.sanitize import runtime as _san
from repro.sim.core import Simulator

if TYPE_CHECKING:
    from repro.hw.gpu import Gpu
    from repro.hw.node import Node
    from repro.mpi.btl.base import Btl

__all__ = ["MpiProcess", "STAGING_IDLE_CAP"]

#: idle staging bytes one rank keeps pooled per kind ("host", "device")
STAGING_IDLE_CAP = 64 << 20


class MpiProcess:
    """One MPI rank: placement, GPU context, matching, AM dispatch."""

    def __init__(
        self,
        rank: int,
        node: "Node",
        gpu: Optional["Gpu"],
        config: MpiConfig,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.rank = rank
        self.node = node
        self.gpu = gpu
        self.config = config
        #: world-shared fault injector (None = fault-free); standalone
        #: processes build their own plan when the config asks for one
        self.faults = faults
        if self.faults is None and config.faults is not None:
            self.faults = FaultPlan(config.faults)
        self.sim: Simulator = node.sim
        self.matching = MatchingEngine()
        #: per-(dest, comm) send counters backing the envelope pair_seq
        #: stamp (the receiver re-sequences arrivals by it)
        self._send_seq: dict[tuple[int, int], int] = {}
        #: rank-scoped view of the world's registry (own registry standalone)
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry().scoped(f"r{rank}.")
        )
        #: one :class:`TransferStats` per completed transfer on this rank
        #: (config.transfer_log=False keeps only the counters — scale runs)
        self.transfer_log: list[TransferStats] = []
        self.log_transfers: bool = config.transfer_log
        #: cached counter objects keyed (role, protocol, mode) so the
        #: per-transfer hot path skips the f-string + registry lookups
        self._rt_counters: dict = {}
        #: pre-rendered label for matching futures (one irecv per message)
        self._match_label: str = f"r{rank}.match"
        #: reusable eager RTS headers keyed (id(dt), count, gpudirect) —
        #: read-only downstream, so same-shape sends share one dict
        self._eager_hdr_cache: dict = {}
        self.ctx: Optional[CudaContext] = CudaContext(gpu) if gpu else None
        self._engine: Optional[GpuDatatypeEngine] = None
        self._handlers: dict[str, Callable[[AmPacket, "Btl"], None]] = {}
        #: CUDA IPC registration cache — "a single one-time establishment
        #: of the RDMA connection (and then caching the registration)"
        self.ipc_cache: dict = {}
        self.am_received = 0
        # staging-buffer free lists, keyed (kind, nbytes, mapped), each in
        # release order
        self._staging_pool: dict = {}
        #: per kind: idle pooled buffers in release order (buffer -> pool
        #: key) and their total bytes, bounded by STAGING_IDLE_CAP
        self._staging_lru: dict[str, OrderedDict] = {}
        self.staging_idle_bytes: dict[str, int] = {}

    # -- staging buffer pool ------------------------------------------------
    def acquire_staging(
        self,
        kind: str,
        nbytes: int,
        zero_copy_map: bool = False,
        optional: bool = False,
    ):
        """Reusable staging buffer ('host' or 'device'), pooled per rank.

        Pooling mirrors the registration/allocation caching real
        implementations do: a ping-pong reuses the same ring every
        iteration, so IPC handles stay cached on the peer.

        ``optional=True`` marks an allocation the caller can live
        without (e.g. the receiver's local staging optimization); under
        fault-injected memory pressure it returns ``None`` instead of a
        buffer, and the caller degrades gracefully.  Required
        allocations are never refused.
        """
        if optional and self.faults is not None and self.faults.fail_staging(kind):
            return None
        key = (kind, nbytes, zero_copy_map)
        pool = self._staging_pool.setdefault(key, [])
        if pool:
            buf, snap = pool.pop()
            del self._staging_lru[kind][buf]
            self.staging_idle_bytes[kind] -= nbytes
            if _san.MEM is not None:
                # pooled reuse is logically a fresh allocation: stale
                # contents from the previous transfer must read as
                # uninitialized, not as valid data
                _san.MEM.repoison(buf)
            if _san.RACE is not None and snap is not None:
                # allocator-recycling edge: the releaser's clock orders
                # the previous user's accesses before ours (the moral
                # equivalent of malloc/free happens-before in TSan)
                _san.RACE.join_actor(_san.RACE.current, snap)
            return buf
        if kind == "device":
            if self.gpu is None:
                raise RuntimeError(f"rank {self.rank} has no GPU for staging")
            return self.gpu.memory.alloc(nbytes, label="staging", sparse=True)
        buf = self.node.host_memory.alloc(nbytes, label="staging", sparse=True)
        if zero_copy_map:
            if self.gpu is None:
                raise RuntimeError("zero-copy staging needs a GPU")
            map_host_buffer(buf, self.gpu)
        return buf

    def release_staging(self, kind: str, buf, zero_copy_map: bool = False) -> None:
        """Return a staging buffer to its pool.

        Pools are keyed by exact size, so traffic whose sizes change from
        call to call would grow them without bound; past
        :data:`STAGING_IDLE_CAP` idle bytes of this kind, the
        least-recently-released buffers are freed.  The buffer just
        released always stays: a transfer that keeps reusing one ring
        larger than the cap must not pay a fresh allocation (and its
        peer a fresh IPC registration) every time.
        """
        snap = None if _san.RACE is None else _san.RACE.snapshot()
        key = (kind, buf.nbytes, zero_copy_map)
        self._staging_pool[key].append((buf, snap))
        lru = self._staging_lru.setdefault(kind, OrderedDict())
        lru[buf] = key
        idle = self.staging_idle_bytes.get(kind, 0) + buf.nbytes
        while idle > STAGING_IDLE_CAP and len(lru) > 1:
            old, old_key = lru.popitem(last=False)
            # the oldest release of its size sits first in its free list
            pool = self._staging_pool[old_key]
            assert pool[0][0] is old
            del pool[0]
            idle -= old.nbytes
            if old_key[2]:
                unmap_host_buffer(old)
            old.free()
        self.staging_idle_bytes[kind] = idle

    def close(self) -> None:
        """Free what this rank holds and break its cycles.

        Pooled staging is freed (zero-copy rings unmapped first), the
        engine's DevCache gives back its device memory, and the IPC
        registrations, transfer log and Active Message handlers are
        dropped: the ``pml.rts`` handler closes over this process.
        """
        for (_kind, _nbytes, mapped), pool in self._staging_pool.items():
            for buf, _snap in pool:
                if mapped:
                    unmap_host_buffer(buf)
                buf.free()
        self._staging_pool.clear()
        self._staging_lru.clear()
        self.staging_idle_bytes.clear()
        if self._engine is not None:
            self._engine.cache.clear()
        self.ipc_cache.clear()
        self.transfer_log.clear()
        self._handlers.clear()

    @property
    def engine(self) -> GpuDatatypeEngine:
        """The rank's GPU datatype engine (created on first GPU use)."""
        if self._engine is None:
            if self.gpu is None:
                raise RuntimeError(f"rank {self.rank} has no GPU")
            # per-process stream: ranks sharing a GPU still get their own
            # CUDA streams, so sender pack and receiver unpack overlap
            self._engine = GpuDatatypeEngine(
                self.gpu,
                stream_name=f"dtengine.r{self.rank}",
                metrics=self.metrics.scoped("engine."),
            )
        return self._engine

    def next_send_seq(self, dest: int, comm_id: int = 0) -> int:
        """The next contiguous pair_seq for a send to ``dest``.

        Stamped on the envelope at post time; the receiver's matching
        engine re-sequences arrivals by it (non-overtaking)."""
        key = (dest, comm_id)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        return seq

    def record_transfer(self, stats: TransferStats) -> None:
        """Log a finished transfer and bump the per-protocol counters."""
        stats.rank = self.rank
        if self.log_transfers:
            self.transfer_log.append(stats)
        self.count_transfer(
            stats.role, stats.protocol, stats.mode, stats.total_bytes
        )

    def count_transfer(
        self, role: str, protocol: str, mode: str, nbytes: int
    ) -> None:
        """Bump the per-protocol counters without building a TransferStats.

        The counters-only path used at scale (``config.transfer_log``
        off); counter objects are created once per (role, protocol, mode)
        and cached, and bumped with direct ``value`` writes (``nbytes``
        is validated non-negative upstream).
        """
        key = (role, protocol, mode)
        counters = self._rt_counters.get(key)
        if counters is None:
            m = self.metrics
            counters = (
                m.counter(f"pml.{role}s"),
                m.counter(f"pml.{role}_bytes"),
                m.counter(f"protocol.{protocol or 'unknown'}"),
                m.counter(f"protocol.{protocol}.{mode}") if mode else None,
            )
            self._rt_counters[key] = counters
        c_ops, c_bytes, c_proto, c_mode = counters
        c_ops.value += 1
        c_bytes.value += nbytes
        c_proto.value += 1
        if c_mode is not None:
            c_mode.value += 1

    # -- Active Message dispatch -----------------------------------------
    def register_handler(
        self, name: str, fn: Callable[[AmPacket, "Btl"], None]
    ) -> None:
        """Bind an Active Message handler name (must be unused)."""
        if name in self._handlers:
            raise ValueError(f"rank {self.rank}: handler {name!r} already bound")
        self._handlers[name] = fn

    def unregister_handler(self, name: str) -> None:
        """Remove an Active Message handler binding, if present."""
        self._handlers.pop(name, None)

    def dispatch(self, packet: AmPacket, btl: "Btl") -> None:
        """Deliver an arriving Active Message to its handler."""
        self.am_received += 1
        fn = self._handlers.get(packet.handler)
        if fn is None:
            raise RuntimeError(
                f"rank {self.rank}: no handler for AM {packet.handler!r}"
            )
        fn(packet, btl)

    def __repr__(self) -> str:
        where = self.gpu.name if self.gpu else self.node.name
        return f"MpiProcess(rank={self.rank} @ {where})"
