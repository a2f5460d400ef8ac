"""One-sided communication (MPI RMA) over the GPU datatype machinery.

"Once constructed and committed, an MPI datatype can be used as an
argument for any point-to-point, collective, I/O, and **one-sided**
functions" (Section 1), and intra-node "CUDA IPC ... provides a one
sided copy mechanism similar to RDMA" (Section 4.1).

A :class:`RmaWindow` exposes one buffer per rank.  ``put``/``get`` are
origin-driven: the origin packs (or unpacks) with its own engine and the
scatter/gather in the *target's* memory runs as an origin-GPU kernel
streaming over the mapped window — no target-process involvement, which
is the point of one-sided semantics.  Inter-node windows stage through
host memory and charge the target node's passive hardware (its PCIe
links), again without a target coroutine.

``fence`` completes all locally issued operations and synchronizes
ranks, like ``MPI_Win_fence``.
"""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cuda.ipc import IpcMemHandle
from repro.datatype.ddt import Datatype
from repro.hw.memory import Buffer
from repro.mpi.protocols.common import CpuSideJob
from repro.sanitize import runtime as _san
from repro.sim.core import all_of

if TYPE_CHECKING:
    from repro.mpi.world import MpiWorld, RankContext

__all__ = ["RmaWindow", "one_sided_move"]

_win_ids = itertools.count()


class RmaWindow:
    """A window of remotely accessible buffers, one per rank."""

    def __init__(self, world: "MpiWorld", buffers: Sequence[Buffer]) -> None:
        if len(buffers) != world.size:
            raise ValueError("one window buffer per rank is required")
        self.world = world
        self.buffers = list(buffers)
        self.win_id = next(_win_ids)
        self.freed = False
        # per-origin-rank outstanding operations (completed by fence)
        self._pending: dict[int, list] = {r: [] for r in range(world.size)}
        # the verifier's finalize audit flags windows never freed; a
        # weakref keeps the registry from pinning dead windows alive
        world._rma_windows.append(weakref.ref(self))

    def free(self) -> None:
        """Release the window (``MPI_Win_free``).  Idempotent.

        Freeing with unfenced operations outstanding is an error — real
        MPI requires all RMA to be completed by a synchronization call
        before the free.
        """
        pending = sum(len(v) for v in self._pending.values())
        if pending:
            raise RuntimeError(
                f"RmaWindow w{self.win_id} freed with {pending} "
                f"unfenced operation(s)"
            )
        self.freed = True

    # -- access epoch ------------------------------------------------------
    def fence(self, mpi: "RankContext"):
        """Coroutine: complete local RMA ops, then synchronize all ranks."""
        pending = self._pending[mpi.rank]
        if pending:
            _vtok = None
            if _san.VERIFY is not None:
                _vtok = _san.VERIFY.wait_begin(
                    "fence", mpi.rank, mpi.sim,
                    detail=f"w{self.win_id}: {len(pending)} pending op(s)",
                    world=self.world,
                )
            yield all_of(mpi.sim, pending)
            if _san.VERIFY is not None:
                _san.VERIFY.wait_end(_vtok)
            pending.clear()
        yield mpi.barrier()

    # -- operations -----------------------------------------------------------
    def put(
        self,
        mpi: "RankContext",
        origin_buf: Buffer,
        origin_dt: Datatype,
        origin_count: int,
        target: int,
        target_dt: Optional[Datatype] = None,
        target_count: Optional[int] = None,
        target_offset: int = 0,
    ):
        """Start a put; completes at the next :meth:`fence`.

        The origin's data (``origin_dt`` layout) lands in the target's
        window laid out as ``target_dt`` — signatures must match, exactly
        as for sends.
        """
        proc = self._start(
            mpi, origin_buf, origin_dt, origin_count,
            target, target_dt, target_count, target_offset, "put",
        )
        self._pending[mpi.rank].append(proc)
        return proc

    def get(
        self,
        mpi: "RankContext",
        origin_buf: Buffer,
        origin_dt: Datatype,
        origin_count: int,
        target: int,
        target_dt: Optional[Datatype] = None,
        target_count: Optional[int] = None,
        target_offset: int = 0,
    ):
        """Start a get; completes at the next :meth:`fence`."""
        proc = self._start(
            mpi, origin_buf, origin_dt, origin_count,
            target, target_dt, target_count, target_offset, "get",
        )
        self._pending[mpi.rank].append(proc)
        return proc

    # -- internals ----------------------------------------------------------
    def _start(
        self, mpi, origin_buf, origin_dt, origin_count,
        target, target_dt, target_count, target_offset, op,
    ):
        from repro.mpi.pml import _signature_check, _times

        origin_dt.commit()
        target_dt = (target_dt or origin_dt).commit()
        target_count = origin_count if target_count is None else target_count
        if op == "put":
            _signature_check(
                _times(origin_dt.signature, origin_count),
                _times(target_dt.signature, target_count),
            )
        else:
            _signature_check(
                _times(target_dt.signature, target_count),
                _times(origin_dt.signature, origin_count),
            )
        coro = self._run(
            mpi, origin_buf, origin_dt, origin_count,
            target, target_dt, target_count, target_offset, op,
        )
        return mpi.sim.spawn(coro, label=f"rma.{op}@w{self.win_id}")

    def _run(
        self, mpi, origin_buf, origin_dt, origin_count,
        target, target_dt, target_count, target_offset, op,
    ):
        target_proc = self.world.procs[target]
        win_buf = self.buffers[target][target_offset:]
        moved = yield from one_sided_move(
            mpi.proc, origin_buf, origin_dt, origin_count,
            target_proc, win_buf, target_dt, target_count, op,
        )
        return moved


def one_sided_move(
    proc, origin_buf, origin_dt, origin_count,
    target_proc, target_buf, target_dt, target_count, op,
):
    """Coroutine: one origin-driven transfer into/out of ``target_buf``.

    The shared engine room of :class:`RmaWindow` and the direct-IPC
    collective algorithms (:mod:`repro.mpi.collectives`).  ``op`` is
    ``"put"`` (origin layout packed, scattered into the target buffer as
    ``target_dt``) or ``"get"`` (the reverse); signatures must match as
    for sends.  Same-node transfers run origin-driven kernels over the
    mapped (IPC-opened) buffer; inter-node transfers stage through host
    memory and charge the target node's passive hardware — no target
    coroutine either way.  Returns the packed byte count.
    """
    from repro.mpi.pml import _signature_check, _times

    origin_dt.commit()
    target_dt.commit()
    if op == "put":
        _signature_check(
            _times(origin_dt.signature, origin_count),
            _times(target_dt.signature, target_count),
        )
    else:
        _signature_check(
            _times(target_dt.signature, target_count),
            _times(origin_dt.signature, origin_count),
        )
    total = min(origin_dt.size * origin_count,
                target_dt.size * target_count)
    if total == 0:
        return 0
    if proc.node is target_proc.node:
        yield from _intra_node_move(
            proc, origin_buf, origin_dt, origin_count,
            target_proc, target_buf, target_dt, target_count, total, op,
        )
    else:
        yield from _inter_node_move(
            proc, origin_buf, origin_dt, origin_count,
            target_proc, target_buf, target_dt, target_count, total, op,
        )
    return total


def _intra_node_move(
    proc, origin_buf, origin_dt, origin_count,
    target_proc, win_buf, target_dt, target_count, total, op,
):
    """Origin-driven scatter/gather through the mapped window."""
    mapped = win_buf
    if win_buf.is_device and win_buf.device is not proc.gpu:
        handle = IpcMemHandle.get(win_buf)
        mapped = yield handle.open(proc.gpu, proc.ipc_cache)

    both_device = origin_buf.is_device and win_buf.is_device
    if both_device:
        engine = proc.engine
        stage = proc.acquire_staging("device", max(total, 256))
        try:
            if op == "put":
                pj = engine.pack_job(origin_dt, origin_count, origin_buf,
                                     proc.config.engine)
                yield from pj.process_all(stage[:total])
                uj = engine.unpack_job(target_dt, target_count, mapped,
                                       proc.config.engine)
                yield from uj.process_all(stage[:total])
            else:
                pj = engine.pack_job(target_dt, target_count, mapped,
                                     proc.config.engine)
                yield from pj.process_all(stage[:total])
                uj = engine.unpack_job(origin_dt, origin_count, origin_buf,
                                       proc.config.engine)
                yield from uj.process_all(stage[:total])
        finally:
            proc.release_staging("device", stage)
        return

    # host-involved windows: the origin CPU drives both transforms
    import numpy as np

    stage = np.empty(total, dtype=np.uint8)
    if op == "put":
        src = CpuSideJob(proc, origin_dt, origin_count, origin_buf, "pack")
        dst = CpuSideJob(proc, target_dt, target_count, mapped, "unpack")
    else:
        src = CpuSideJob(proc, target_dt, target_count, mapped, "pack")
        dst = CpuSideJob(proc, origin_dt, origin_count, origin_buf, "unpack")
    yield src.process_range(0, total, stage)
    yield proc.node.shmem_link.transfer(total, label="rma-shmem")
    yield dst.process_range(0, total, stage)


def _inter_node_move(
    proc, origin_buf, origin_dt, origin_count,
    target_proc, win_buf, target_dt, target_count, total, op,
):
    """Host-staged one-sided transfer; target hardware acts passively."""
    import numpy as np

    stage = np.empty(total, dtype=np.uint8)
    origin_is_put = op == "put"
    # 1. origin-side transform into/out of the wire buffer
    if origin_is_put:
        if origin_buf.is_device:
            hstage = proc.acquire_staging(
                "host", max(total, 256), zero_copy_map=True
            )
            pj = proc.engine.pack_job(origin_dt, origin_count, origin_buf,
                                      proc.config.engine)
            yield from pj.process_all(hstage[:total])
            stage[:] = hstage.bytes[:total]
            proc.release_staging("host", hstage, zero_copy_map=True)
        else:
            job = CpuSideJob(proc, origin_dt, origin_count, origin_buf, "pack")
            yield job.process_range(0, total, stage)
        # 2. the wire
        yield proc.node.nic.send(
            target_proc.node.name, total, label="rma-put"
        )
        # 3. passive completion at the target: its PCIe/memory moves
        yield from _passive_scatter(
            target_proc, win_buf, target_dt, target_count, stage, total
        )
    else:
        # get: request flight, passive gather at the target, data back
        yield proc.node.nic.send(target_proc.node.name, 64, label="rma-get-req")
        yield from _passive_gather(
            target_proc, win_buf, target_dt, target_count, stage, total
        )
        yield target_proc.node.nic.send(
            proc.node.name, total, label="rma-get-data"
        )
        if origin_buf.is_device:
            hstage = proc.acquire_staging(
                "host", max(total, 256), zero_copy_map=True
            )
            hstage.bytes[:total] = stage
            uj = proc.engine.unpack_job(origin_dt, origin_count, origin_buf,
                                        proc.config.engine)
            yield from uj.process_all(hstage[:total])
            proc.release_staging("host", hstage, zero_copy_map=True)
        else:
            job = CpuSideJob(proc, origin_dt, origin_count, origin_buf,
                             "unpack")
            yield job.process_range(0, total, stage)


def _passive_scatter(target_proc, win_buf, dt, count, stage, total):
    """Deposit wire bytes into the target window without a target rank.

    Device windows charge the target GPU's H2D link and an unpack kernel
    on a dedicated stream — hardware the origin's RDMA write drives.
    """
    from repro.datatype.convertor import Convertor

    if win_buf.is_device:
        gpu = win_buf.device
        hstage = target_proc.acquire_staging(
            "host", max(total, 256), zero_copy_map=False
        )
        hstage.bytes[:total] = stage[:total]
        dstage = target_proc.acquire_staging("device", max(total, 256))
        yield gpu.memcpy_h2d(dstage[:total], hstage[:total], stream=gpu.stream("rma"))
        stats = _dev_kernel_stats(gpu, dt, count)
        conv = Convertor(dt, count, win_buf.bytes, "unpack")

        def move() -> None:
            conv.unpack_range(dstage.bytes[:total], 0, total)

        yield gpu.launch_kernel(stats, fn=move, stream=gpu.stream("rma"),
                                label="rma-unpack")
        target_proc.release_staging("host", hstage)
        target_proc.release_staging("device", dstage)
    else:
        conv = Convertor(dt, count, win_buf.bytes, "unpack")

        def move() -> None:
            conv.unpack_range(stage[:total], 0, total)

        yield target_proc.node.cpu_pack_op(total, fn=move, label="rma-unpack")


def _passive_gather(target_proc, win_buf, dt, count, stage, total):
    """Read the target window's layout into wire bytes, passively."""
    from repro.datatype.convertor import Convertor

    if win_buf.is_device:
        gpu = win_buf.device
        dstage = target_proc.acquire_staging("device", max(total, 256))
        stats = _dev_kernel_stats(gpu, dt, count)
        conv = Convertor(dt, count, win_buf.bytes, "pack")

        def move() -> None:
            conv.pack_range(dstage.bytes[:total], 0, total)

        yield gpu.launch_kernel(stats, fn=move, stream=gpu.stream("rma"),
                                label="rma-pack")
        hstage = target_proc.acquire_staging("host", max(total, 256))
        yield gpu.memcpy_d2h(hstage[:total], dstage[:total], stream=gpu.stream("rma"))
        stage[:total] = hstage.bytes[:total]
        target_proc.release_staging("device", dstage)
        target_proc.release_staging("host", hstage)
    else:
        conv = Convertor(dt, count, win_buf.bytes, "pack")

        def move() -> None:
            conv.pack_range(stage[:total], 0, total)

        yield target_proc.node.cpu_pack_op(total, fn=move, label="rma-pack")


def _dev_kernel_stats(gpu, dt: Datatype, count: int):
    """A whole-layout DEV kernel on the GPU engine's one pricing path."""
    from repro.gpu_engine.dev import to_devs
    from repro.gpu_engine.dev_kernel import dev_kernel_stats
    from repro.gpu_engine.work_units import split_units

    units = split_units(to_devs(dt, count), gpu.params.dev_unit_size)
    return dev_kernel_stats(gpu, units)
