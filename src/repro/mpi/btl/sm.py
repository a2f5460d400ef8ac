"""Shared-memory BTL (intra-node), with CUDA IPC support.

Control messages and host payloads travel through a shared-memory segment
(the node's ``shmem_link``).  Device buffers can be cross-mapped with
CUDA IPC — "CUDA IPC allows the GPU memory of one process to be exposed
to the others, and therefore provides a one sided copy mechanism similar
to RDMA" (Section 4.1) — which is what the pipelined RDMA protocol rides
on within a node.
"""

from __future__ import annotations

from repro.mpi.btl.base import Btl
from repro.sim.core import Future

__all__ = ["SmBtl"]


class SmBtl(Btl):
    """Shared-memory transport between two ranks on one node."""

    __slots__ = ()

    name = "sm"

    def __init__(self, src, dst) -> None:
        super().__init__(src, dst)
        if src.node is not dst.node:
            raise ValueError("sm BTL requires both ranks on one node")

    @property
    def supports_cuda_ipc(self) -> bool:
        return (
            self.src.config.use_cuda_ipc
            and self.src.gpu is not None
            and self.dst.gpu is not None
        )

    @property
    def header_cost_bytes(self) -> int:
        return self.src.node.params.am_header_bytes

    def _wire_send(
        self, nbytes: int, label: str, gpudirect: bool = False, payload=None
    ) -> Future:
        return self.src.node.shmem_link.transfer(
            nbytes, payload=payload, label=f"{self.name}:{label}"
        )
