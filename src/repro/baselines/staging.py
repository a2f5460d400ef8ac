"""The three rejected designs of Figure 1, as runnable coroutines.

Each returns a generator suitable for ``sim.spawn``; all move real bytes
so the ablation benchmarks can verify they produce the same packed stream
as the GPU engine while paying very different simulated costs.

(a) ``whole_region_pack`` — "copy the entire non-contiguous data
    including the gaps from device memory into host memory" and let the
    CPU datatype engine pack.  Fast wire-wise for dense layouts, but
    wastes host memory and PCIe bandwidth proportional to the *extent*,
    and is bounded by CPU pack throughput.
(b) ``per_block_d2h_pack`` — "issue one device-to-host memory copy for
    each piece of contiguous data".  The per-call driver overhead times
    the block count is the killer.
(c) ``per_block_d2d_transfer`` — same, but device-to-device into an
    identically laid-out peer buffer (requires P2P and identical
    layouts).
"""

from __future__ import annotations

from typing import Optional

from repro.datatype.convertor import Convertor, pack_bytes, unpack_bytes
from repro.datatype.ddt import Datatype
from repro.hw.gpu import Gpu
from repro.hw.memory import Buffer
from repro.mpi.proc import MpiProcess

__all__ = ["whole_region_pack", "per_block_d2h_pack", "per_block_d2d_transfer"]


def whole_region_pack(
    proc: MpiProcess, dt: Datatype, count: int, src: Buffer, host_out: Buffer
):
    """Fig 1(a): D2H the whole extent (gaps included), CPU-pack on host.

    ``host_out`` receives the packed stream; a bounce buffer of the full
    extent is allocated (and its size reported via the return value).
    """
    gpu = proc.gpu
    spans = dt.spans_for_count(count)
    lo, hi = spans.true_lb, spans.true_ub
    region = hi - lo
    bounce = proc.node.host_memory.alloc(max(region, 1), label="region-bounce")
    try:
        yield gpu.memcpy_d2h(bounce, src[lo:hi])
        conv = Convertor(dt, count, bounce.bytes, "pack", base_offset=-lo)
        total = dt.size * count

        def move() -> None:
            conv.pack(host_out.bytes[:total])

        yield proc.node.cpu_pack_op(total, fn=move, label="region-cpu-pack")
    finally:
        bounce.free()
    return region  # bounce-buffer bytes consumed — the approach's cost


def per_block_d2h_pack(
    proc: MpiProcess, dt: Datatype, count: int, src: Buffer, host_out: Buffer
):
    """Fig 1(b): one cudaMemcpy D2H per contiguous block.

    The k driver calls serialize on the PCIe FIFO — k per-op overheads
    plus the payload bytes — and the caller only needs the batch as a
    whole, so the whole block list goes through one
    :meth:`~repro.sim.resources.FifoLink.transfer_many`: per-block
    busy-time accounting, but a single future and delivery event.
    """
    gpu = proc.gpu
    spans = dt.spans_for_count(count)
    link = gpu.d2h_link
    if spans.count:

        def move(_f) -> None:
            conv = Convertor(dt, count, src.bytes, "pack")
            conv.pack_range(host_out.bytes, 0, conv.total_bytes)

        fut = link.transfer_many(spans.lens.tolist(), label="per-block-d2h")
        fut.add_callback(move)
        yield fut
    return spans.count


def per_block_d2d_transfer(
    proc: MpiProcess,
    dt: Datatype,
    count: int,
    src: Buffer,
    dst: Buffer,
    peer_gpu: Optional[Gpu] = None,
):
    """Fig 1(c): one D2D copy per block into an identical remote layout."""
    gpu = proc.gpu
    spans = dt.spans_for_count(count)
    if peer_gpu is None or peer_gpu is gpu:
        link = gpu.copy_engine
        call_oh = gpu.params.memcpy_call_overhead
    else:
        link = gpu.p2p_links[peer_gpu.name]
        call_oh = 0.0  # the P2P link's own per-op overhead applies
    if spans.count:

        def move(_f) -> None:
            unpack_bytes(dt, count, dst.bytes, pack_bytes(dt, count, src.bytes))

        # each copy pays the engine's per-op overhead plus the memcpy
        # call cost; transfer_many charges both once per block
        fut = link.transfer_many(
            spans.lens.tolist(), label="per-block-d2d", extra_overhead=call_oh
        )
        fut.add_callback(move)
        yield fut
    return spans.count
