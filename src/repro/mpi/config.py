"""Tunables of the MPI stack — the paper's experimental knobs.

Every configuration the evaluation varies is a field here: pipeline
fragment size and depth, CUDA IPC on/off (RDMA vs copy-in/out), zero-copy
on/off, receiver local staging (the 10-15 % effect of Section 5.2.1),
GPUDirect RDMA (only profitable under ~30 KB, per [14]), and the engine
options (cache, prep pipelining, grid size).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.plan import FaultSpec
from repro.gpu_engine.engine import EngineOptions
from repro.sanitize.options import SanitizeOptions

__all__ = ["MpiConfig"]

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class MpiConfig:
    #: messages at or below this size go eager (single Active Message)
    eager_limit: int = 12 * KB
    #: rendezvous pipeline fragment size
    frag_bytes: int = 1 * MB
    #: ring-buffer depth (concurrent in-flight fragments)
    pipeline_depth: int = 4

    #: allow CUDA IPC (intra-node GPU RDMA); when False the copy-in/out
    #: protocol is used even within a node (Section 4.2's motivation)
    use_cuda_ipc: bool = True
    #: use GPUDirect RDMA for inter-node GPU transfers instead of host
    #: staging (the paper avoids it for large messages)
    use_gpudirect_rdma: bool = False
    #: receiver copies each packed fragment into a local GPU buffer before
    #: unpacking, instead of unpacking from the mapped remote buffer —
    #: "by using a local GPU buffer, the performance is 10-15% faster"
    receiver_local_staging: bool = True
    #: UMA zero-copy for host staging buffers (copy-in/out protocol)
    zero_copy: bool = True

    #: collective algorithm selection (docs/COLLECTIVES.md): one of
    #: "auto", "pairwise", "nonblocking", "staged".  "auto" keeps the
    #: classic per-op defaults (binomial bcast, linear gather, ring
    #: allgather) and picks staged-vs-nonblocking for the alltoall
    #: family by message size.  Every collective also accepts an
    #: explicit per-call override
    coll_algorithm: str = "auto"
    #: per-peer packed bytes at or below which "auto" routes a device
    #: alltoall-family call through the copy-to-host staged path; above
    #: it (and for host buffers) "auto" takes the nonblocking path.  The
    #: ``coll_crossover`` bench scenario measures where nonblocking first
    #: beats staged: 1-4 KB on mostly-inter-node worlds.  This default was
    #: calibrated against a one-sided rung since deleted; moving it moves
    #: gated collective numbers, so it changes only with a baseline refresh
    coll_staged_threshold: int = 32 * KB

    #: keep a per-rank TransferStats log entry for every transfer.  On by
    #: default (WorldStats timing/fragment breakdowns need it); scale
    #: runs with thousands of ranks turn it off and fall back to the
    #: always-on protocol counters (see MpiWorld.stats)
    transfer_log: bool = True

    #: GPU datatype engine options
    engine: EngineOptions = field(default_factory=EngineOptions)

    #: fault-injection plan (None = no injection); see repro.faults
    faults: Optional[FaultSpec] = None
    #: correctness checkers (docs/SANITIZERS.md); defaults to the
    #: ``REPRO_SANITIZE`` environment contract — all off when unset
    sanitize: SanitizeOptions = field(default_factory=SanitizeOptions.from_env)

    def __post_init__(self) -> None:
        if self.eager_limit < 0:
            raise ValueError(
                f"eager_limit must be >= 0, got {self.eager_limit}"
            )
        if self.frag_bytes <= 0:
            # frag_bytes=0 would make every fragment plan an infinite loop
            raise ValueError(
                f"frag_bytes must be positive, got {self.frag_bytes}"
            )
        if self.pipeline_depth < 1:
            # a zero-credit window can never admit the first fragment
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.coll_algorithm not in (
            "auto", "pairwise", "nonblocking", "staged",
        ):
            # collectives resolve this per call; a typo here would only
            # surface deep inside the first collective of a run
            raise ValueError(
                "coll_algorithm must be one of 'auto', 'pairwise', "
                f"'nonblocking', 'staged', got {self.coll_algorithm!r}"
            )
        if self.coll_staged_threshold < 0:
            raise ValueError(
                "coll_staged_threshold must be >= 0, got "
                f"{self.coll_staged_threshold}"
            )

    def but(self, **kw) -> "MpiConfig":
        """A modified copy (keyword-for-keyword)."""
        return replace(self, **kw)
