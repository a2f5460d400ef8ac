"""InfiniBand BTL (inter-node), FDR class, with optional GPUDirect RDMA.

Host payloads ride the NIC link.  GPUDirect RDMA — direct NIC access to
device memory — is exposed as a capability but, per the paper (citing
[14]), "it only delivers interesting performance for small messages (less
than 30KB)"; the copy-in/out protocol therefore stages large GPU messages
through host memory, and the GPUDirect send path models the degraded
large-message bandwidth for the benchmarks that demonstrate the crossover.
"""

from __future__ import annotations

from repro.mpi.btl.base import Btl
from repro.sim.core import Future

__all__ = ["IbBtl"]


class IbBtl(Btl):
    """InfiniBand transport between two ranks on different nodes."""

    __slots__ = ()

    name = "ib"

    def __init__(self, src, dst) -> None:
        super().__init__(src, dst)
        if src.node is dst.node:
            raise ValueError("ib BTL is for inter-node pairs")

    @property
    def supports_cuda_ipc(self) -> bool:
        return False

    @property
    def supports_gpudirect(self) -> bool:
        return (
            self.src.node.nic.gpudirect_rdma
            and self.src.config.use_gpudirect_rdma
        )

    @property
    def header_cost_bytes(self) -> int:
        return self.src.node.params.am_header_bytes

    def _wire_send(
        self, nbytes: int, label: str, gpudirect: bool = False, payload=None
    ) -> Future:
        return self.src.node.nic.send(
            self.dst.node.name, nbytes, payload=payload,
            label=f"{self.name}:{label}", gpudirect=gpudirect,
        )

    def gpudirect_send(self, nbytes: int, label: str = "gdr") -> Future:
        """Direct device-memory RDMA over the wire (degraded when large)."""
        return self.src.node.nic.send(
            self.dst.node.name, nbytes, label=f"{self.name}:{label}",
            gpudirect=True,
        )
