"""Caching of CUDA_DEV work-unit arrays.

"As the CUDA_DEV is tied to the data representation and is independent of
the location of the source and destination buffers, it can be cached,
either in the main or GPU memory, thereby minimizing the overheads of
future pack/unpack operations ... by spending a few MBs of GPU memory to
cache the CUDA_DEVs, the packing/unpacking performance could be
significantly improved when using the same data type repetitively"
(Sections 3.2 and 5.1 — the ``cached`` curves of Fig 7).

The cache charges real simulated GPU memory for the descriptor arrays and
evicts LRU when its budget is exhausted.  Accounting is strict: every
resident entry is charged exactly its ``descriptor_bytes``, oversized
descriptors are refused outright (they would otherwise be inserted
uncharged and drive ``bytes_cached`` negative on eviction), and the
invariant ``0 <= bytes_cached <= budget_bytes`` is checked after every
mutation.

Entries are keyed on the **canonical key** of ``(datatype, count, S)``
(:func:`repro.datatype.canonical.canonical_key`), not on object identity:
the CUDA_DEV work list depends only on the type's flattened span layout,
so two structurally identical datatypes built separately — two tenants,
the same workload re-run, a ``vector`` vs an equivalent ``hindexed`` —
share one resident descriptor array instead of silently re-paying the
first-iteration preparation cost per construction.

Counter semantics: ``hits``/``misses`` are **lookup-only** (``get``, and
the lookup half of ``put``'s miss path).  ``put`` finding its key already
resident records ``put_resident`` instead of a hit, so pre-populating via
:meth:`put`/``warm_cache`` can never inflate the observed hit rate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.datatype.canonical import canonical_key
from repro.datatype.ddt import Datatype
from repro.gpu_engine.dev import to_devs
from repro.gpu_engine.work_units import WorkUnits, split_units
from repro.hw.gpu import Gpu
from repro.hw.memory import Buffer
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import CacheStats

__all__ = ["DevCache", "CacheInvariantError"]


class CacheInvariantError(AssertionError):
    """The cache's byte accounting went inconsistent (a bug, not a state)."""


class DevCache:
    """Per-GPU LRU cache of work-unit arrays, resident in device memory."""

    def __init__(
        self,
        gpu: Gpu,
        budget_bytes: int = 64 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.gpu = gpu
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[tuple, tuple[WorkUnits, Optional[Buffer]]] = (
            OrderedDict()
        )
        self.bytes_cached = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.bytes_evicted = 0
        #: ``put`` calls that found their key already resident (distinct
        #: from ``hits`` so pre-population cannot inflate the hit rate)
        self.put_resident = 0
        #: descriptors larger than the whole budget, refused (never resident)
        self.rejected_oversized = 0
        m = metrics if metrics is not None else MetricsRegistry().scoped("cache.")
        self._m_hits = m.counter("hits")
        self._m_misses = m.counter("misses")
        self._m_evictions = m.counter("evictions")
        self._m_put_resident = m.counter("put_resident")
        self._m_rejected = m.counter("rejected_oversized")
        self._m_bytes = m.gauge("bytes_cached")

    def _key(self, dt: Datatype, count: int, unit_size: int) -> tuple:
        """Structural cache key: canonical form + S, not object identity."""
        return canonical_key(dt, count, unit_size)

    # -- unified hit/miss accounting (the only place counters move) --------
    def _record_hit(self, key: tuple) -> WorkUnits:
        self._entries.move_to_end(key)
        self.hits += 1
        self._m_hits.inc()
        return self._entries[key][0]

    def _record_miss(self) -> None:
        self.misses += 1
        self._m_misses.inc()

    def _check_invariant(self) -> None:
        if not (0 <= self.bytes_cached <= self.budget_bytes):
            raise CacheInvariantError(
                f"DevCache accounting broken: bytes_cached={self.bytes_cached} "
                f"outside [0, {self.budget_bytes}]"
            )

    def get(self, dt: Datatype, count: int, unit_size: int) -> Optional[WorkUnits]:
        """Cached unit array for (datatype, count, S), or None on miss."""
        key = self._key(dt, count, unit_size)
        if key in self._entries:
            return self._record_hit(key)
        self._record_miss()
        return None

    def put(
        self,
        dt: Datatype,
        count: int,
        unit_size: int,
        units: Optional[WorkUnits] = None,
    ) -> WorkUnits:
        """Cache (charging GPU memory) and return the unit array.

        ``units`` may be passed when the caller already computed the split.
        A key already resident is recorded under ``put_resident`` — *not*
        as a hit: ``hits``/``misses`` count lookups only, so callers that
        pre-populate (``warm_cache``, double inserts) cannot inflate the
        observed hit rate.  The entry is still refreshed in LRU order.
        Descriptors larger than the whole budget are refused (returned
        uncached) rather than inserted uncharged.
        """
        key = self._key(dt, count, unit_size)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.put_resident += 1
            self._m_put_resident.inc()
            return self._entries[key][0]
        if units is None:
            units = split_units(to_devs(dt, count), unit_size)
        need = units.descriptor_bytes
        if need > self.budget_bytes:
            # refusing beats the alternative: an uncharged resident entry
            # whose eviction would subtract bytes it never added
            self.rejected_oversized += 1
            self._m_rejected.inc()
            return units
        self._evict_until_fits(need)
        dev_buf: Optional[Buffer] = None
        if need > 0:
            dev_buf = self.gpu.memory.alloc(need, label="dev-cache")
        self._entries[key] = (units, dev_buf)
        self.bytes_cached += need
        self.insertions += 1
        self._m_bytes.set(self.bytes_cached)
        self._check_invariant()
        return units

    def _evict_until_fits(self, need: int) -> None:
        """LRU-evict (charging symmetrically) until ``need`` bytes fit."""
        while self.bytes_cached + need > self.budget_bytes and self._entries:
            _, (old, buf) = self._entries.popitem(last=False)
            self.bytes_cached -= old.descriptor_bytes
            self.bytes_evicted += old.descriptor_bytes
            self.evictions += 1
            self._m_evictions.inc()
            if buf is not None:
                buf.free()
        self._m_bytes.set(self.bytes_cached)
        self._check_invariant()

    def clear(self) -> None:
        """Drop every entry, freeing its device memory (counters kept)."""
        while self._entries:
            _, (old, buf) = self._entries.popitem(last=False)
            self.bytes_cached -= old.descriptor_bytes
            if buf is not None:
                buf.free()
        self._m_bytes.set(self.bytes_cached)
        self._check_invariant()

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters (entries stay resident)."""
        self.hits = self.misses = 0
        self.insertions = self.evictions = 0
        self.bytes_evicted = 0
        self.put_resident = 0
        self.rejected_oversized = 0

    @property
    def resident_bytes(self) -> int:
        """Ground truth: sum of resident entries' descriptor bytes."""
        return sum(u.descriptor_bytes for u, _ in self._entries.values())

    def stats(self) -> CacheStats:
        """Structured accounting snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            insertions=self.insertions,
            evictions=self.evictions,
            put_resident=self.put_resident,
            rejected_oversized=self.rejected_oversized,
            entries=len(self._entries),
            bytes_cached=self.bytes_cached,
            bytes_evicted=self.bytes_evicted,
            budget_bytes=self.budget_bytes,
        )

    def __len__(self) -> int:
        return len(self._entries)
