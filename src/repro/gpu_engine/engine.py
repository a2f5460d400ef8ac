"""The GPU datatype engine driver.

:class:`GpuDatatypeEngine` turns (datatype, count, user buffer) into a
:class:`PackJob`: a fragment plan plus the machinery to pack or unpack
each fragment with the right kernel, pipelined with the CPU preparation
stage and optionally fed from the CUDA_DEV cache.

Fragment processing is the engine's contract with the communication
protocols (Section 4): the pipelined RDMA and copy-in/out protocols call
``process_fragment`` per ring-buffer segment, so pack, wire transfer and
unpack genuinely overlap on the simulated clock.

Zero-copy targets (UMA-mapped host memory) are handled here too: the
kernel's effective duration is clamped by PCIe and the PCIe direction is
co-occupied for the fragment, reproducing the "implicitly handled by
hardware, able to overlap with pack/unpack" behaviour of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cuda.uma import is_mapped_host
from repro.datatype.canonical import (
    GPU_PLANS,
    PLAN_GATHER,
    PLAN_MEMCPY,
    PLAN_VECTOR_KERNEL,
)
from repro.datatype.convertor import Convertor
from repro.datatype.ddt import Datatype, VectorShape
from repro.gpu_engine.cache import DevCache
from repro.gpu_engine.dev import to_devs
from repro.gpu_engine.dev_kernel import dev_kernel_stats
from repro.gpu_engine.vector_kernel import is_aligned
from repro.gpu_engine.work_units import WorkUnits, split_units
from repro.hw.gpu import Gpu, KernelStats, Stream
from repro.hw.memory import Buffer
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import EngineStats
from repro.sanitize import runtime as _san
from repro.sim.core import Future, all_of

__all__ = ["EngineOptions", "Fragment", "PackJob", "GpuDatatypeEngine"]


@dataclass(frozen=True)
class EngineOptions:
    """Knobs the paper evaluates."""

    #: CUDA_DEV size S (1/2/4 KB in the paper; 4 KB default)
    unit_size: Optional[int] = None
    #: overlap CPU DEV preparation with kernel execution (Fig 7 "pipeline")
    pipeline_prep: bool = True
    #: reuse cached CUDA_DEV arrays (Fig 7 "cached")
    use_cache: bool = True
    #: CUDA blocks granted to pack kernels (Section 5.3); None = default grid
    grid_blocks: Optional[int] = None
    #: force the generic DEV path even for vector-describable types
    force_dev_path: bool = False

    def __post_init__(self) -> None:
        for name in ("unit_size", "grid_blocks"):
            value = getattr(self, name)
            if value is not None and value < 1:
                # grid_blocks=0 divides by zero inside a launch, a negative
                # grid prices a negative kernel bandwidth, and unit_size=0
                # would silently fall back to the default unit
                raise ValueError(
                    f"EngineOptions.{name} must be None or >= 1, got {value}"
                )


@dataclass(frozen=True)
class Fragment:
    """One pipeline fragment: packed-stream bytes [lo, hi)."""

    index: int
    lo: int
    hi: int
    unit_lo: int  # unit range (DEV path) or row range (vector path)
    unit_hi: int

    @property
    def nbytes(self) -> int:
        return self.hi - self.lo


class PackJob:
    """Pack or unpack of one (datatype, count, user buffer) triple."""

    def __init__(
        self,
        engine: "GpuDatatypeEngine",
        dt: Datatype,
        count: int,
        user_buf: Buffer,
        direction: str,
        options: EngineOptions,
    ) -> None:
        if direction not in ("pack", "unpack"):
            raise ValueError("direction must be 'pack' or 'unpack'")
        self.engine = engine
        self.gpu = engine.gpu
        self.dt = dt
        self.count = count
        self.user_buf = user_buf
        self.direction = direction
        self.options = options
        self.total_bytes = dt.size * count
        p = self.gpu.params
        self.unit_size = options.unit_size or p.dev_unit_size
        self.convertor = Convertor(dt, count, user_buf.bytes, direction)
        #: the compiled (datatype, count) plan, shared with the convertor
        sp = self.stream_plan = self.convertor.stream_plan
        self.form = sp.form
        self.plan = PLAN_GATHER if options.force_dev_path else sp.gpu_plan
        shape = (
            sp.vector_shape
            if self.plan in (PLAN_MEMCPY, PLAN_VECTOR_KERNEL)
            else None
        )
        if shape is None:
            # the empty form has no vector view; it rides the (trivially
            # empty) DEV path like any other non-vector layout
            self.plan = PLAN_GATHER
        self.vector_shape: Optional[VectorShape] = shape
        #: vector/memcpy kernel (no DEV preparation) vs the DEV path
        self.uses_vector_kernel = shape is not None
        #: every row 8-byte aligned (no prologue/epilogue); vector path only
        self.aligned = shape is not None and is_aligned(shape)
        engine._m_plans[self.plan].inc()
        self.units: Optional[WorkUnits] = None
        self._prepped_units = 0
        self._prep_charged = False
        #: in-flight preparation (see :meth:`prepare_for`): fragments whose
        #: units were claimed by an earlier, still-running prep must wait
        #: for it — launching their kernel early would consume DEV
        #: descriptors the CPU has not finished building
        self._prep_fut: Optional[Future] = None
        if shape is None:
            cached = None
            if options.use_cache:
                cached = engine.cache.get(dt, count, self.unit_size)
            if cached is not None:
                self.units = cached
                self._prepped_units = cached.count
                self._prep_charged = True
            else:
                self.units = split_units(to_devs(dt, count), self.unit_size)
                if options.use_cache:
                    # future jobs on this type skip preparation entirely;
                    # this job still pays it (first use warms the cache)
                    engine.cache.put(dt, count, self.unit_size, units=self.units)
        self.stream = engine.stream
        if _san.MEM is not None:
            _san.MEM.check_gpu_path(
                user_buf,
                mapped=not user_buf.is_host or is_mapped_host(user_buf),
                what=f"PackJob({direction}, {dt.kind}x{count})",
            )
        if _san.DEV is not None and self.units is not None:
            _san.DEV.check_job(
                dt, count, self.unit_size, self.units, cache_hit=self._prep_charged
            )

    # -- planning ------------------------------------------------------------
    def fragments(self, frag_bytes: int) -> list[Fragment]:
        """Split the packed stream into pipeline fragments.

        DEV-path fragments align to work-unit boundaries; vector-path
        fragments align to whole rows.  Either way fragment boundaries are
        granularity-aligned so the convertor fast path applies.
        """
        if frag_bytes <= 0:
            raise ValueError("frag_bytes must be positive")
        frags: list[Fragment] = []
        if self.total_bytes == 0:
            return frags
        if self.uses_vector_kernel:
            shape = self.vector_shape
            assert shape is not None
            rows_per_frag = max(1, frag_bytes // max(1, shape.blocklength))
            i = 0
            for row_lo in range(0, shape.count, rows_per_frag):
                row_hi = min(shape.count, row_lo + rows_per_frag)
                frags.append(
                    Fragment(
                        i,
                        row_lo * shape.blocklength,
                        row_hi * shape.blocklength,
                        row_lo,
                        row_hi,
                    )
                )
                i += 1
            return frags
        units = self.units
        assert units is not None
        # a fragment ends before the first unit starting frag_bytes past it
        starts = units.dst_disps
        i = 0
        unit_lo = 0
        while unit_lo < units.count:
            target = starts[unit_lo] + frag_bytes
            unit_hi = int(np.searchsorted(starts, target, side="left"))
            lo, hi = units.packed_range(unit_lo, unit_hi)
            frags.append(Fragment(i, lo, hi, unit_lo, unit_hi))
            unit_lo = unit_hi
            i += 1
        return frags

    def range_fragment(self, index: int, lo: int, hi: int) -> Fragment:
        """Fragment for an externally chosen packed byte range [lo, hi).

        Used when the *peer* dictates fragment boundaries (the receiver-
        driven protocols): the unit range is the units overlapping the
        byte range, so edge units may be counted fully — a conservative
        sliver of extra kernel time.
        """
        if not (0 <= lo <= hi <= self.total_bytes):
            raise ValueError(f"range [{lo}, {hi}) outside packed stream")
        if self.uses_vector_kernel:
            bl = max(1, self.vector_shape.blocklength)
            return Fragment(index, lo, hi, lo // bl, -(-hi // bl))
        units = self.units
        assert units is not None
        if lo == hi:
            return Fragment(index, lo, hi, 0, 0)
        unit_lo = int(np.searchsorted(units.dst_disps, lo, side="right")) - 1
        unit_lo = max(0, unit_lo)
        unit_hi = int(np.searchsorted(units.dst_disps, hi, side="left"))
        return Fragment(index, lo, hi, unit_lo, unit_hi)

    def single_fragment(self) -> Fragment:
        """One fragment covering the whole packed stream."""
        n_units = (
            self.vector_shape.count if self.uses_vector_kernel else self.units.count
        )
        return Fragment(0, 0, self.total_bytes, 0, n_units)

    # -- preparation (CPU stage) -----------------------------------------------
    def _prep_needed(self, frag: Fragment) -> int:
        """Units still unprepared in [0, frag.unit_hi)."""
        if self.uses_vector_kernel or self._prep_charged:
            return 0
        return max(0, frag.unit_hi - self._prepped_units)

    def prep_time(self, n_units: int) -> float:
        """CPU time to emit ``n_units`` CUDA_DEVs (stage-1 walk)."""
        if n_units <= 0:
            return 0.0
        p = self.gpu.params
        units = self.units
        assert units is not None
        devs_per_unit = self.stream_plan.spans.count / max(1, units.count)
        return n_units * (p.dev_prep_per_unit + devs_per_unit * p.dev_prep_per_dev)

    def prepare(self, frag: Fragment) -> Optional[Future]:
        """Charge CPU prep + descriptor upload for the fragment, if needed.

        The cuda_dev_dist upload (24 B/unit) rides an async staging path,
        so it is charged as time on the preparing CPU rather than as a
        full-overhead PCIe operation — descriptors are 3 orders of
        magnitude smaller than the data they describe.
        """
        n = self._prep_needed(frag)
        if n == 0:
            return None
        self._prepped_units = frag.unit_hi
        node = self.gpu.node
        upload = (n * 24) / self.gpu.h2d_link.bandwidth
        cost = self.prep_time(n) + upload
        self.engine._m_prep.observe(cost)
        self._prep_fut = node.cpu_prep_engine.transfer(
            0, extra_overhead=cost, label="dev-prep"
        )
        return self._prep_fut

    # -- kernel (GPU stage) ------------------------------------------------------
    def kernel_stats(self, frag: Fragment) -> KernelStats:
        """Cost-model stats for one fragment's kernel launch."""
        if self.uses_vector_kernel:
            shape = self.vector_shape
            assert shape is not None
            # fractional rows: a fragment may cover part of a huge row
            # (e.g. a contiguous type is one row of the whole message)
            rows = (frag.hi - frag.lo) / max(1, shape.blocklength)
            return self.gpu.vector_kernel_stats(
                rows, shape.blocklength, self.options.grid_blocks, self.aligned
            )
        return dev_kernel_stats(
            self.gpu,
            self.units,
            frag.unit_lo,
            frag.unit_hi,
            grid_blocks=self.options.grid_blocks,
        )

    def _move(self, frag: Fragment, contig: Buffer) -> None:
        """The actual byte movement for the fragment (at kernel completion)."""
        if self.direction != "pack" and _san.MEM is not None:
            # an unpack kernel reads the contiguous source; flag segments
            # nothing ever filled (checked before .bytes marks them valid)
            _san.MEM.check_read(
                contig, 0, frag.nbytes, what=f"unpack-kernel[{frag.index}]"
            )
        view = contig.bytes
        if self.direction == "pack":
            self.convertor.pack_range(view, frag.lo, frag.hi)
        else:
            self.convertor.unpack_range(view, frag.lo, frag.hi)

    def _user_hull(self, frag: Fragment):
        """Byte hull of the user-buffer ranges a fragment's kernel touches
        (race-detector bookkeeping; conservative, clamped to the buffer)."""
        if frag.unit_hi <= frag.unit_lo:
            return None
        if self.uses_vector_kernel:
            shape = self.vector_shape
            a = shape.first_disp + frag.unit_lo * shape.stride
            b = shape.first_disp + (frag.unit_hi - 1) * shape.stride
            lo, hi = min(a, b), max(a, b) + shape.blocklength
        else:
            units = self.units
            src = units.src_disps[frag.unit_lo : frag.unit_hi]
            lens = units.lens[frag.unit_lo : frag.unit_hi]
            lo = int(src.min())
            hi = int((src + lens).max())
        lo = max(0, min(lo, self.user_buf.nbytes))
        hi = max(lo, min(hi, self.user_buf.nbytes))
        if hi <= lo:
            return None
        return (self.user_buf, lo, hi)

    def run_kernel(
        self,
        frag: Fragment,
        contig: Buffer,
        stream: Optional[Stream] = None,
    ) -> Future:
        """Launch the pack/unpack kernel for one fragment.

        ``contig`` holds exactly this fragment's packed bytes.  If it is
        zero-copy-mapped host memory (or a peer GPU's memory), the kernel
        streams over PCIe: duration is clamped by the link and the link is
        co-occupied.
        """
        nbytes = frag.hi - frag.lo
        if contig.nbytes < nbytes:
            raise ValueError("contiguous buffer smaller than fragment")
        stats = self.kernel_stats(frag)
        stream = stream or self.stream
        duration = stats.total_time
        co_links = []
        link = self._link_for(contig)
        if link is not None:
            # kernels reaching a peer GPU's memory issue latency-bound
            # PCIe transactions and under-utilize the wire; zero-copy to
            # mapped *host* memory streams at full rate (write-combining)
            eff = 1.0 if contig.is_host else (
                self.gpu.node.params.p2p_kernel_efficiency
                if self.gpu.node is not None
                else 1.0
            )
            wire = link.overhead + nbytes / (link.bandwidth * eff)
            duration = max(duration, wire) + link.latency
            co_links.append(link)
        else:
            # purely in-device kernels share the GPU's DRAM with every
            # other stream (two ranks on one GPU contend realistically)
            co_links.append(self.gpu.copy_engine)
        self.engine._m_kernel.observe(duration)
        self.engine._m_fragments.inc()
        self.engine._m_bytes.inc(nbytes)
        reads: tuple = ()
        writes: tuple = ()
        if _san.RACE is not None:
            hull = self._user_hull(frag)
            contig_rng = (contig, 0, nbytes)
            if self.direction == "pack":
                reads = (hull,) if hull else ()
                writes = (contig_rng,)
            else:
                reads = (contig_rng,)
                writes = (hull,) if hull else ()
        return stream.enqueue(
            duration,
            fn=lambda: self._move(frag, contig),
            label=f"{self.direction}-kernel[{frag.index}]",
            co_links=co_links,
            nbytes=nbytes,
            reads=reads,
            writes=writes,
        )

    def _link_for(self, contig: Buffer):
        """PCIe link a kernel streams over to reach its packed buffer:
        the mapped host link for zero-copy, the P2P link for a peer GPU's
        memory, None for this GPU's own memory."""
        if contig.is_host:
            if is_mapped_host(contig):
                return (
                    self.gpu.d2h_link
                    if self.direction == "pack"
                    else self.gpu.h2d_link
                )
            raise ValueError(
                "kernel target is unmapped host memory; zero-copy requires "
                "map_host_buffer()"
            )
        peer = contig.device
        if peer is not None and peer is not self.gpu:
            link = self.gpu.p2p_links.get(peer.name)
            if link is None:
                raise ValueError(f"no P2P path {self.gpu.name} -> {peer.name}")
            return link
        return None

    def prepare_for(self, frag: Fragment) -> Optional[Future]:
        """Preparation future for a fragment honouring the pipeline option.

        With pipelining, only the units the fragment needs are converted;
        without it, the *entire* remaining datatype is converted up front
        ("the GPU idles when the CPU is preparing the CUDA DEVs array" —
        the non-pipelined curves of Fig 7).
        """
        if self._prep_needed(frag) == 0:
            # covered by an earlier prepare() -- which may still be in
            # flight when fragment chains run concurrently (the receiver
            # spawns one per arriving notification).  Skipping ahead of a
            # pending prep would enqueue this fragment's kernel before
            # fragment 0's, generating ACKs out of fragment order and
            # breaking the in-order assumption the non-reliable ring
            # slot-reuse fast path depends on.
            if self._prep_fut is not None and not self._prep_fut.done:
                return self._prep_fut
            return None
        if self.options.pipeline_prep:
            return self.prepare(frag)
        return self.prepare(self.single_fragment())

    def process_fragment(
        self,
        frag: Fragment,
        contig: Buffer,
        stream: Optional[Stream] = None,
    ):
        """Coroutine: prepare (if needed) then run the fragment's kernel."""
        prep = self.prepare_for(frag)
        if prep is not None:
            yield prep
        done = yield self.run_kernel(frag, contig, stream)
        return done

    def process_all(
        self,
        contig: Buffer,
        frag_bytes: Optional[int] = None,
        stream: Optional[Stream] = None,
    ):
        """Coroutine: pack/unpack the whole message into/from ``contig``.

        With ``frag_bytes`` the job is fragmented and the CPU preparation
        pipelines with kernel execution (prep of fragment *i+1* overlaps
        the kernel of fragment *i*, because kernels queue on the stream
        while the coroutine immediately continues preparing).
        """
        if contig.nbytes < self.total_bytes:
            raise ValueError("contiguous buffer smaller than the message")
        frags = (
            [self.single_fragment()]
            if frag_bytes is None
            else self.fragments(frag_bytes)
        )
        kernel_futs = []
        for frag in frags:
            prep = self.prepare_for(frag)
            if prep is not None:
                yield prep
            kernel_futs.append(
                self.run_kernel(frag, contig[frag.lo : frag.hi], stream)
            )
        if len(kernel_futs) == 1:
            yield kernel_futs[0]
        elif kernel_futs:
            yield all_of(self.gpu.sim, kernel_futs)
        return self.total_bytes


class GpuDatatypeEngine:
    """Per-GPU facade: builds :class:`PackJob` objects and owns the cache."""

    def __init__(
        self,
        gpu: Gpu,
        cache: Optional[DevCache] = None,
        stream_name: str = "dtengine",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if gpu.node is None:
            raise ValueError("GPU must be attached to a node")
        self.gpu = gpu
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry().scoped("engine.")
        )
        self.cache = cache or DevCache(gpu, metrics=self.metrics.scoped("cache."))
        self.stream = gpu.stream(stream_name)
        self._m_jobs = self.metrics.counter("jobs")
        self._m_fragments = self.metrics.counter("fragments")
        self._m_bytes = self.metrics.counter("bytes_packed")
        self._m_prep = self.metrics.timer("prep_seconds")
        self._m_kernel = self.metrics.timer("kernel_seconds")
        #: jobs per selected pack plan (canonical-form cost-model output)
        self._m_plans = {p: self.metrics.counter(f"plan.{p}") for p in GPU_PLANS}

    def stats(self) -> EngineStats:
        """Structured totals for the two pipeline stages plus the cache."""
        return EngineStats(
            jobs=self._m_jobs.value,
            fragments=self._m_fragments.value,
            prep_s=self._m_prep.seconds,
            kernel_s=self._m_kernel.seconds,
            bytes_packed=self._m_bytes.value,
            cache=self.cache.stats(),
            plans={p: c.value for p, c in self._m_plans.items()},
        )

    def reset_counters(self) -> None:
        """Zero the engine's and cache's counters (cache entries stay)."""
        for m in (
            self._m_jobs,
            self._m_fragments,
            self._m_bytes,
            self._m_prep,
            self._m_kernel,
            *self._m_plans.values(),
        ):
            m.reset()
        self.cache.reset_counters()

    def pack_job(
        self,
        dt: Datatype,
        count: int,
        user_buf: Buffer,
        options: Optional[EngineOptions] = None,
    ) -> PackJob:
        """Build a pack job for (datatype, count, user buffer)."""
        self._m_jobs.inc()
        return PackJob(self, dt, count, user_buf, "pack", options or EngineOptions())

    def unpack_job(
        self,
        dt: Datatype,
        count: int,
        user_buf: Buffer,
        options: Optional[EngineOptions] = None,
    ) -> PackJob:
        """Build an unpack job for (datatype, count, user buffer)."""
        self._m_jobs.inc()
        return PackJob(
            self, dt, count, user_buf, "unpack", options or EngineOptions()
        )

    def warm_cache(self, dt: Datatype, count: int, unit_size: Optional[int] = None):
        """Precompute and cache the CUDA_DEV array for a datatype."""
        s = unit_size or self.gpu.params.dev_unit_size
        return self.cache.put(dt, count, s)
