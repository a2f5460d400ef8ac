"""Rendezvous transfer protocols.

The receiver selects one of three protocols during the handshake
(Section 4.1: "the packing/unpacking is entirely driven by the receiver
acting upon a GET protocol, providing an opportunity for a handshake
prior to the beginning of the operation"): ``host`` for two host
buffers, ``ipc_rdma`` for intra-node GPU RDMA over CUDA IPC with the
Fig 4 fragment ring and its contiguous fast paths, and ``copyinout``
for GPU data staged through host memory.  All of them run as one
fragment pipeline, :mod:`repro.mpi.protocols.pipeline`: each side is a
:class:`~repro.mpi.protocols.pipeline.Leg` of stages, and one sender and
one receiver loop run every leg.
"""

from repro.mpi.protocols.common import SideInfo, TransferState, choose_protocol
from repro.mpi.protocols.pipeline import receiver, sender

__all__ = [
    "SideInfo",
    "TransferState",
    "choose_protocol",
    "sender",
    "receiver",
]
