"""BML: BTL management layer.

"Below the PML, the BML manages different network devices, handles
multi-link data transfers, and selects the most suitable BTL for a
communication based on the current network device" (Section 4).  Here the
policy is the paper's: shared memory within a node, InfiniBand across
nodes.

A BTL is a small value object over its (sender, receiver) pair, built on
each lookup.  The state that must persist across messages lives on the
processes — CUDA IPC registrations in ``MpiProcess.ipc_cache``, sequence
counters behind ``MpiProcess.next_send_seq`` — so the BML keeps no
per-pair table that would grow with every peer a rank has reached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mpi.btl.ib import IbBtl
from repro.mpi.btl.sm import SmBtl

if TYPE_CHECKING:
    from repro.mpi.btl.base import Btl
    from repro.mpi.proc import MpiProcess

__all__ = ["btl_for"]


def btl_for(src: "MpiProcess", dst: "MpiProcess") -> "Btl":
    """The transport endpoint from ``src`` toward ``dst``."""
    if src.node is dst.node:
        return SmBtl(src, dst)
    return IbBtl(src, dst)
