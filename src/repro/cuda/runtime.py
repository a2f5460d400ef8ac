"""CUDA-runtime-style operations on a simulated GPU.

Only what the paper's engine needs is exposed: memory management, the
memcpy family (including ``cudaMemcpy2D`` with its alignment-sensitive
cost), streams and events.  Kernel launches live in
:mod:`repro.gpu_engine`, which computes kernel costs via the hardware
model and enqueues them on a :class:`repro.hw.gpu.Stream`.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro import bytemove
from repro.hw.gpu import Gpu, Stream
from repro.hw.memory import Buffer
from repro.sim.core import Future

__all__ = ["MemcpyKind", "Event", "CudaContext"]


class MemcpyKind(enum.Enum):
    """Direction of a memcpy (cudaMemcpyKind)."""

    H2D = "h2d"
    D2H = "d2h"
    D2D = "d2d"
    H2H = "h2h"
    DEFAULT = "default"  # infer from buffer kinds, like cudaMemcpyDefault


class Event:
    """cudaEvent: captures a stream's position when recorded."""

    def __init__(self, ctx: "CudaContext") -> None:
        self.ctx = ctx
        self._fut: Optional[Future] = None

    def record(self, stream: Optional[Stream] = None) -> "Event":
        """Capture the stream's current tail (cudaEventRecord)."""
        stream = stream or self.ctx.gpu.default_stream
        self._fut = stream.synchronize()
        return self

    @property
    def recorded(self) -> bool:
        return self._fut is not None

    @property
    def complete(self) -> bool:
        return self._fut is not None and self._fut.done

    def synchronize(self) -> Future:
        """Future resolving when the recorded position completes."""
        if self._fut is None:
            raise RuntimeError("event never recorded")
        return self._fut


class CudaContext:
    """Per-GPU runtime handle (the moral equivalent of a CUDA context)."""

    def __init__(self, gpu: Gpu) -> None:
        self.gpu = gpu

    # -- memory ---------------------------------------------------------
    def malloc(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate device memory (cudaMalloc)."""
        return self.gpu.memory.alloc(nbytes, label=label)

    def free(self, buf: Buffer) -> None:
        """Release a device allocation (cudaFree)."""
        buf.free()

    def malloc_host(self, nbytes: int, label: str = "") -> Buffer:
        """Pinned host memory (allocated from the owning node's arena)."""
        if self.gpu.node is None:
            raise RuntimeError(f"{self.gpu.name} not attached to a node")
        return self.gpu.node.host_memory.alloc(nbytes, label=label)

    # -- streams / events --------------------------------------------------
    def stream(self, name: str) -> Stream:
        """Get or create a named stream on this GPU."""
        return self.gpu.stream(name)

    def event(self) -> Event:
        """Create an unrecorded event."""
        return Event(self)

    # -- memcpy family ----------------------------------------------------
    def infer_kind(self, dst: Buffer, src: Buffer) -> MemcpyKind:
        """cudaMemcpyDefault-style direction inference from buffer kinds."""
        if src.is_device and dst.is_device:
            return MemcpyKind.D2D
        if src.is_device:
            return MemcpyKind.D2H
        if dst.is_device:
            return MemcpyKind.H2D
        return MemcpyKind.H2H

    def memcpy(
        self,
        dst: Buffer,
        src: Buffer,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
        stream: Optional[Stream] = None,
    ) -> Future:
        """Asynchronous memcpy on a stream; future resolves at completion."""
        if kind is MemcpyKind.DEFAULT:
            kind = self.infer_kind(dst, src)
        if kind is MemcpyKind.D2D:
            src_gpu = src.device
            dst_gpu = dst.device
            if src_gpu is dst_gpu or src_gpu is None or dst_gpu is None:
                return self.gpu.memcpy_d2d(dst, src, stream=stream)
            # cross-GPU: issue on this context's GPU toward the peer
            if self.gpu is src_gpu:
                return self.gpu.memcpy_peer(dst, src, dst_gpu, stream=stream)
            return self.gpu.memcpy_peer(dst, src, src_gpu, stream=stream)
        if kind is MemcpyKind.D2H:
            return self.gpu.memcpy_d2h(dst, src, stream=stream)
        if kind is MemcpyKind.H2D:
            return self.gpu.memcpy_h2d(dst, src, stream=stream)
        # H2H goes through the host CPU
        nbytes = src.nbytes
        if dst.nbytes < nbytes:
            raise ValueError("memcpyH2H: destination smaller than source")
        node = self.gpu.node
        if node is None:
            raise RuntimeError("H2H memcpy requires a node")

        def move() -> None:
            bytemove.move(dst.bytes[:nbytes], src.bytes)

        return node.cpu_memcpy_op(nbytes, fn=move, label="memcpyH2H")

    def memcpy2d(
        self,
        dst: Buffer,
        dpitch: int,
        src: Buffer,
        spitch: int,
        width: int,
        height: int,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
        stream: Optional[Stream] = None,
    ) -> Future:
        """``cudaMemcpy2D``: ``height`` rows of ``width`` bytes.

        This is the primitive MVAPICH's vectorization approach leans on;
        its per-row descriptor cost and 64 B alignment sensitivity are
        modeled in :meth:`repro.hw.gpu.Gpu.memcpy2d_time` (Fig 8).
        """
        if width > min(dpitch, spitch):
            raise ValueError("memcpy2d: width exceeds a pitch")
        if src.nbytes < (height - 1) * spitch + width:
            raise ValueError("memcpy2d: source too small")
        if dst.nbytes < (height - 1) * dpitch + width:
            raise ValueError("memcpy2d: destination too small")
        if kind is MemcpyKind.DEFAULT:
            kind = self.infer_kind(dst, src)
        stream = stream or self.gpu.default_stream
        nbytes = width * height

        def move() -> None:
            sb, db = src.bytes, dst.bytes
            if width == spitch == dpitch:
                db[:nbytes] = sb[:nbytes]
                return
            s2 = sb[: (height - 1) * spitch + width]
            d2 = db[: (height - 1) * dpitch + width]
            for r in range(height):
                d2[r * dpitch : r * dpitch + width] = s2[
                    r * spitch : r * spitch + width
                ]

        if kind is MemcpyKind.D2D:
            duration = self.gpu.memcpy2d_time(width, height, over_pcie=False)
            return stream.enqueue(
                duration,
                fn=move,
                label="memcpy2D.d2d",
                co_links=(self.gpu.copy_engine,),
                nbytes=nbytes,
            )
        if kind in (MemcpyKind.D2H, MemcpyKind.H2D):
            link = self.gpu.d2h_link if kind is MemcpyKind.D2H else self.gpu.h2d_link
            if link is None:
                raise RuntimeError(f"{self.gpu.name}: not wired to a node")
            duration = self.gpu.memcpy2d_time(
                width, height, over_pcie=True, pcie_bw=link.bandwidth
            )
            return stream.enqueue(
                duration,
                fn=move,
                label=f"memcpy2D.{kind.value}",
                co_links=(link,),
                nbytes=nbytes,
            )
        raise ValueError(f"memcpy2d: unsupported kind {kind}")
