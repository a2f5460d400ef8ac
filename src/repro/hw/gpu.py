"""Simulated GPU: streams, copy engines, and the kernel cost model.

The cost model reproduces the paper's GPU-side phenomena mechanically:

* **Contiguous copies** (``cudaMemcpy`` D2D) run at the practical peak
  ``copy_peak_bw`` — the paper's reference "practical peak of GPU memory
  bandwidth" (Fig 6's ``C-cudaMemcpy`` line).
* **Pack/unpack kernels** move 8 bytes per thread per iteration.  Work is
  charged at *iteration granularity*: a CUDA block of ``threads_per_block``
  threads retires ``threads_per_block * 8`` bytes per iteration whether or
  not every thread has useful work.  A work unit smaller than one block
  iteration therefore still costs a full iteration — this is exactly the
  *occupancy* effect the paper measures: the lower triangular matrix's
  ragged columns leave threads idle and land at ~80 % of peak, while the
  vector type and the stair-triangular (block-size-aligned) variant reach
  ~94 % (Fig 6 / Fig 5).
* **Launch and driver-call overheads** are fixed costs; they are what
  makes one-memcpy-per-block strategies (Fig 1 b/c, MVAPICH's vectorized
  indexed types) collapse for many-block datatypes.
* **Grid throttling**: with ``g`` CUDA blocks granted, kernel bandwidth is
  capped at ``g * warps_per_block * per_warp_bw`` — Section 5.3's "minimal
  GPU resources" experiment walks this curve until it crosses PCIe
  bandwidth.
* **Contention**: a co-running application (Section 5.4) scales available
  bandwidth and SMs by ``1 - contention``.

Functionally, every operation moves real bytes between :class:`Buffer`
objects when its completion event fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro import bytemove
from repro.hw.memory import Buffer, Memory, MemoryKind
from repro.hw.params import GpuParams
from repro.sanitize import runtime as _san
from repro.sim.core import Future, Simulator
from repro.sim.resources import FifoLink
from repro.sim.trace import Tracer

__all__ = ["Gpu", "Stream", "KernelStats"]

#: vector-kernel price memo bound per GPU; cleared when full (a steady
#: workload draws a handful of fragment shapes per GPU)
_VECTOR_PRICES_MAX = 256


@dataclass(frozen=True)
class KernelStats:
    """Timing breakdown of a modeled kernel, for bandwidth reporting."""

    payload_bytes: int
    charged_bytes: int
    n_units: int
    launch_time: float
    transfer_time: float
    overhead_time: float

    @property
    def total_time(self) -> float:
        return self.launch_time + self.transfer_time + self.overhead_time

    @property
    def efficiency(self) -> float:
        """Payload bytes / charged bytes (occupancy/coalescing efficiency)."""
        if self.charged_bytes == 0:
            return 1.0
        return self.payload_bytes / self.charged_bytes


class Stream:
    """A CUDA stream: a FIFO timeline of kernel/copy operations.

    Operations may *co-occupy* other FIFO links (a PCIe direction, the
    device copy engine) so that concurrent streams contend realistically.
    """

    def __init__(self, gpu: "Gpu", name: str) -> None:
        self.gpu = gpu
        self.sim = gpu.sim
        self.name = name
        self._busy_until = 0.0
        self.ops = 0

    @property
    def busy_until(self) -> float:
        return self._busy_until

    @property
    def _san_actor(self) -> str:
        return f"{self.gpu.name}.{self.name}"

    def enqueue(
        self,
        duration: float,
        fn: Optional[Callable[[], None]] = None,
        label: str = "",
        co_links: Sequence[FifoLink] = (),
        nbytes: int = 0,
        payload=None,
        reads: Sequence = (),
        writes: Sequence = (),
    ) -> Future:
        """Schedule an operation of ``duration`` seconds on this stream.

        The operation starts when the stream *and* all co-occupied links
        are free; ``fn`` (the actual byte movement) runs at completion.

        ``reads``/``writes`` declare the Buffer ranges the operation
        touches (``Buffer`` or ``(Buffer, lo, hi)``) for the race
        detector; they are ignored unless it is enabled.
        """
        if duration < 0:
            raise ValueError(f"stream {self.name}: negative duration")
        start = max(self.sim.now, self._busy_until)
        for link in co_links:
            start = max(start, link.busy_until)
        end = start + duration
        self._busy_until = end
        for link in co_links:
            link.occupy_until(end, nbytes=nbytes, label=label)
        self.ops += 1
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.record(f"{self.gpu.name}.{self.name}", start, end, label, nbytes)
        fut = Future(self.sim, label=label or f"{self.gpu.name}.{self.name}.op")
        if _san.RACE is not None:
            # launch order is an HB edge into the stream; the completion
            # future carries the stream's clock (incl. these accesses) out
            fut._san_snap = _san.RACE.stream_op(
                self._san_actor, reads, writes, label=label or "stream-op"
            )

        def complete() -> None:
            if fn is not None:
                fn()
            fut.resolve(payload)

        self.sim.schedule_at(end, complete)
        return fut

    def synchronize(self) -> Future:
        """A future resolving when everything queued so far has finished."""
        fut = Future(self.sim, label=f"{self.name}.sync")
        if _san.RACE is not None:
            # sync waits for all queued work: waiter inherits the stream clock
            fut._san_snap = _san.RACE.actor_snapshot(self._san_actor)
        self.sim.schedule_at(max(self.sim.now, self._busy_until), fut.resolve)
        return fut


class Gpu:
    """One simulated GPU device."""

    def __init__(
        self,
        sim: Simulator,
        params: GpuParams,
        name: str = "gpu0",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name
        # a falsy tracer (NullTracer) is stored as None, as FifoLink does,
        # so a stream operation tests identity, not __bool__
        self.tracer = tracer if tracer else None
        self.memory = Memory(f"{name}.mem", params.memory_capacity, MemoryKind.DEVICE, owner=self)
        #: fraction of the GPU consumed by a co-running application (S5.4)
        self.contention = 0.0
        #: in-device copy engine shared by all streams for D2D traffic
        self.copy_engine = FifoLink(
            sim, f"{name}.ce", params.copy_peak_bw, latency=0.0, overhead=0.0,
            tracer=tracer,
        )
        # Host<->device and peer links are wired by the Node.
        self.h2d_link: Optional[FifoLink] = None
        self.d2h_link: Optional[FifoLink] = None
        self.p2p_links: dict[str, FifoLink] = {}
        self.node = None  # set by Node
        #: bytes one CUDA block retires per DEV-kernel iteration
        self.block_iter_bytes = params.threads_per_block * params.bytes_per_thread
        #: vector-kernel prices by every input the formula reads (see
        #: vector_kernel_stats); fragments of one layout repeat a few keys
        self._vector_prices: dict[tuple, KernelStats] = {}
        self._streams: dict[str, Stream] = {}
        self.default_stream = self.stream("stream0")

    # -- streams ------------------------------------------------------------
    def stream(self, name: str) -> Stream:
        """Get or create a named stream."""
        if name not in self._streams:
            self._streams[name] = Stream(self, name)
        return self._streams[name]

    # -- throughput model ------------------------------------------------------
    def _avail(self) -> float:
        return max(1e-9, 1.0 - self.contention)

    def kernel_bandwidth(self, grid_blocks: Optional[int] = None) -> float:
        """Achievable pack-kernel payload bandwidth for a given grid size."""
        p = self.params
        if grid_blocks is None:
            grid_blocks = p.default_grid_blocks
        warps = grid_blocks * p.warps_per_block
        peak = p.copy_peak_bw * p.kernel_peak_fraction
        return min(peak, warps * p.per_warp_bw) * self._avail()

    def copy_bandwidth(self) -> float:
        """Contiguous-copy bandwidth under the current contention."""
        return self.params.copy_peak_bw * self._avail()

    # -- kernel cost model -------------------------------------------------
    def dev_kernel_stats(
        self,
        unit_lens: np.ndarray,
        grid_blocks: Optional[int] = None,
    ) -> KernelStats:
        """Cost of the generic DEV pack/unpack kernel over CUDA_DEV units.

        Each unit is retired in whole block iterations of
        :attr:`block_iter_bytes`; partially filled iterations idle the
        remaining threads (occupancy loss).
        """
        lens = np.asarray(unit_lens, dtype=np.int64)
        iters = int((-(-lens // self.block_iter_bytes)).sum())
        return self.dev_kernel_cost(int(lens.sum()), lens.size, iters, grid_blocks)

    def dev_kernel_cost(
        self, payload: int, n_units: int, block_iters: int,
        grid_blocks: Optional[int] = None,
    ) -> KernelStats:
        """The DEV-kernel cost from the three sums over its units: payload
        bytes, unit count and whole block iterations."""
        p = self.params
        if grid_blocks is None:
            grid_blocks = p.default_grid_blocks
        charged = block_iters * self.block_iter_bytes
        bw = self.kernel_bandwidth(grid_blocks)
        transfer = charged / bw if charged else 0.0
        # each block serially fetches its units from the CUDA_DEV array
        overhead = (n_units / max(1, grid_blocks)) * p.dev_unit_overhead
        overhead /= self._avail()
        return KernelStats(
            payload_bytes=payload,
            charged_bytes=charged,
            n_units=n_units,
            launch_time=p.kernel_launch_overhead,
            transfer_time=transfer,
            overhead_time=overhead,
        )

    def vector_kernel_stats(
        self,
        count: float,
        blocklength_bytes: int,
        grid_blocks: Optional[int] = None,
        aligned: bool = True,
    ) -> KernelStats:
        """Cost of the specialized vector pack/unpack kernel.

        Rows (contiguous blocks) are consumed at *warp* granularity —
        32 threads x 8 B per iteration — so small or ragged rows waste at
        most a fraction of one warp iteration, not a whole block iteration.
        Misaligned rows pay the prologue/epilogue split (Section 3.1).

        ``count`` may be fractional: a pipeline fragment covering part of
        a (possibly huge) row is charged proportionally.

        The frozen result is memoized per GPU on every input the formula
        reads (the parameters are fixed for the GPU's life), so a launch
        that repeats an earlier fragment's shape prices with one lookup.
        The key holds ``count``'s type too: ``n_units`` returns it as
        given, and ``1 == 1.0`` would otherwise share an entry.
        """
        key = (count, type(count), blocklength_bytes, grid_blocks, aligned,
               self.contention)
        prices = self._vector_prices
        stats = prices.get(key)
        if stats is not None:
            return stats
        if len(prices) >= _VECTOR_PRICES_MAX:
            prices.clear()
        p = self.params
        if grid_blocks is None:
            grid_blocks = p.default_grid_blocks
        payload = int(round(count * blocklength_bytes))
        warp_iter = p.warp_iter_bytes
        iters_per_row = -(-blocklength_bytes // warp_iter)
        if not aligned:
            iters_per_row += p.misalignment_iterations
        charged = int(round(count * iters_per_row * warp_iter))
        bw = self.kernel_bandwidth(grid_blocks)
        transfer = charged / bw if charged else 0.0
        overhead = (count / max(1, grid_blocks)) * p.vector_row_overhead
        overhead /= self._avail()
        stats = prices[key] = KernelStats(
            payload_bytes=payload,
            charged_bytes=charged,
            n_units=count,
            launch_time=p.kernel_launch_overhead,
            transfer_time=transfer,
            overhead_time=overhead,
        )
        return stats

    def memcpy_time(self, nbytes: int) -> float:
        """Duration of a contiguous in-device ``cudaMemcpy`` (D2D)."""
        p = self.params
        return p.memcpy_call_overhead + nbytes / self.copy_bandwidth()

    def memcpy2d_time(
        self, width: int, height: int, over_pcie: bool, pcie_bw: float = 0.0
    ) -> float:
        """Duration of ``cudaMemcpy2D`` moving ``height`` rows of ``width`` B.

        Rows whose width is not a 64 B multiple leave the DMA fast path
        (Fig 8's sawtooth); each row costs a descriptor.
        """
        p = self.params
        if over_pcie:
            bw = pcie_bw
            row_oh = p.memcpy2d_row_overhead_pcie
        else:
            bw = self.copy_bandwidth()
            row_oh = p.memcpy2d_row_overhead_d2d
        charged_row = -(-width // 64) * 64
        factor = width / charged_row
        if width % 64:
            factor *= p.memcpy2d_misaligned_penalty
        return (
            p.memcpy2d_call_overhead
            + height * row_oh
            + (width * height) / (bw * factor)
        )

    # -- operations ---------------------------------------------------------
    def memcpy_d2d(
        self,
        dst: Buffer,
        src: Buffer,
        stream: Optional[Stream] = None,
        label: str = "memcpyD2D",
    ) -> Future:
        """Contiguous in-device copy (the paper's bandwidth yardstick)."""
        if dst.nbytes < src.nbytes:
            raise ValueError("memcpy_d2d: destination smaller than source")
        stream = stream or self.default_stream
        nbytes = src.nbytes

        def move() -> None:
            # MSan-style: a raw copy of uninitialized bytes is benign and
            # propagates (the .bytes accessors handle use-after-free);
            # uninit *reads* are flagged where bytes are interpreted --
            # pack/unpack kernels and the CPU pipeline stages
            bytemove.move(dst.bytes[:nbytes], src.bytes)

        return stream.enqueue(
            self.memcpy_time(nbytes),
            fn=move,
            label=label,
            co_links=(self.copy_engine,),
            nbytes=nbytes,
            reads=((src, 0, nbytes),),
            writes=((dst, 0, nbytes),),
        )

    def _pcie_copy(
        self,
        dst: Buffer,
        src: Buffer,
        link: FifoLink,
        stream: Optional[Stream],
        label: str,
    ) -> Future:
        nbytes = src.nbytes
        if dst.nbytes < nbytes:
            raise ValueError(f"{label}: destination smaller than source")
        stream = stream or self.default_stream
        duration = link.overhead + nbytes / link.bandwidth + link.latency

        def move() -> None:
            # MSan-style: a raw copy of uninitialized bytes is benign and
            # propagates (the .bytes accessors handle use-after-free);
            # uninit *reads* are flagged where bytes are interpreted --
            # pack/unpack kernels and the CPU pipeline stages
            bytemove.move(dst.bytes[:nbytes], src.bytes)

        return stream.enqueue(
            duration,
            fn=move,
            label=label,
            co_links=(link,),
            nbytes=nbytes,
            reads=((src, 0, nbytes),),
            writes=((dst, 0, nbytes),),
        )

    def memcpy_d2h(
        self, dst: Buffer, src: Buffer, stream: Optional[Stream] = None
    ) -> Future:
        """Device-to-host copy over this GPU's PCIe D2H direction."""
        if self.d2h_link is None:
            raise RuntimeError(f"{self.name}: not wired to a node (d2h)")
        return self._pcie_copy(dst, src, self.d2h_link, stream, "memcpyD2H")

    def memcpy_h2d(
        self, dst: Buffer, src: Buffer, stream: Optional[Stream] = None
    ) -> Future:
        """Host-to-device copy over this GPU's PCIe H2D direction."""
        if self.h2d_link is None:
            raise RuntimeError(f"{self.name}: not wired to a node (h2d)")
        return self._pcie_copy(dst, src, self.h2d_link, stream, "memcpyH2D")

    def memcpy_peer(
        self,
        dst: Buffer,
        src: Buffer,
        peer: "Gpu",
        stream: Optional[Stream] = None,
    ) -> Future:
        """Device-to-device copy across GPUs through the PCIe switch."""
        link = self.p2p_links.get(peer.name)
        if link is None:
            raise RuntimeError(f"no P2P path {self.name} -> {peer.name}")
        return self._pcie_copy(dst, src, link, stream, "memcpyP2P")

    def __repr__(self) -> str:
        return f"Gpu({self.name}, {self.params.name})"
