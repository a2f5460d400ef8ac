"""A layered MPI point-to-point stack over the simulated cluster.

Mirrors the Open MPI architecture the paper integrates with (Section 4):

* **PML** (:mod:`repro.mpi.pml`) — matching, protocol selection
  (eager / rendezvous), fragmentation policy;
* **BML** (:mod:`repro.mpi.bml`) — picks the best BTL for a peer pair;
* **BTL** (:mod:`repro.mpi.btl`) — byte movers: shared memory (with CUDA
  IPC) and InfiniBand (with GPUDirect), both exposing BTL-level *Active
  Messages* — "an asynchronous communication mechanism ... each message
  header contains the reference of a callback handler triggered on the
  receiver side";
* **GPU protocols** (:mod:`repro.mpi.protocols`) — the paper's pipelined
  RDMA protocol (Fig 4) and copy-in/copy-out protocol, both driving the
  GPU datatype engine fragment by fragment.

Ranks are simulation coroutines; :class:`repro.mpi.world.MpiWorld` builds
them over a :class:`repro.hw.node.Cluster` and runs user programs.
"""

from repro.mpi.config import MpiConfig
from repro.mpi.requests import Request, Status
from repro.mpi.world import MpiWorld, RankContext
from repro.mpi import collectives

__all__ = [
    "MpiConfig",
    "Request",
    "Status",
    "MpiWorld",
    "RankContext",
    "collectives",
]
