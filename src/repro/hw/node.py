"""Nodes and clusters: hosts, GPUs, intra-node and inter-node transports.

A :class:`Node` owns host memory, a CPU pack engine (the traditional Open
MPI host datatype engine runs here), a PCIe switch with its GPUs, a
shared-memory transport link for intra-node CPU-staged traffic, and a NIC.
A :class:`Cluster` is a set of nodes sharing one simulator and tracer —
the root object every benchmark builds first.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.gpu import Gpu
from repro.hw.memory import Memory, MemoryKind
from repro.hw.nic import Nic
from repro.hw.params import SystemParams, k40_cluster
from repro.hw.pcie import PcieSwitch
from repro.sim.core import Future, Simulator
from repro.sim.resources import FifoLink
from repro.sim.trace import NullTracer, Tracer

__all__ = ["Node", "Cluster"]


class Node:
    """One compute node: host memory + CPUs + GPUs + NIC."""

    def __init__(
        self,
        sim: Simulator,
        params: SystemParams,
        name: str,
        n_gpus: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name
        self.tracer = tracer
        self.host_memory = Memory(
            f"{name}.host", params.host.memory_capacity, MemoryKind.HOST, owner=self
        )
        self.switch = PcieSwitch(sim, params, name, tracer=tracer)
        self.gpus: list[Gpu] = []
        count = params.gpus_per_node if n_gpus is None else n_gpus
        for i in range(count):
            gpu = Gpu(sim, params.gpu, name=f"{name}.gpu{i}", tracer=tracer)
            gpu.node = self
            self.switch.attach(gpu)
            self.gpus.append(gpu)
        self.nic = Nic(sim, params, name, tracer=tracer)
        #: intra-node shared-memory transport (CPU copy through a shmem
        #: segment) — the non-GPU path of the sm BTL
        self.shmem_link = FifoLink(
            sim,
            f"{name}.shmem",
            bandwidth=params.shmem.bandwidth,
            latency=params.shmem.latency,
            overhead=params.shmem.overhead,
            tracer=tracer,
        )
        #: serializes the host CPU datatype engine (one core per process
        #: would be more faithful; benchmarks here use one flow at a time)
        self.cpu_pack_engine = FifoLink(
            sim,
            f"{name}.cpu_pack",
            bandwidth=params.host.cpu_pack_bw,
            overhead=params.host.cpu_pack_overhead,
            tracer=tracer,
        )
        self.cpu_memcpy_engine = FifoLink(
            sim,
            f"{name}.cpu_memcpy",
            bandwidth=params.host.cpu_memcpy_bw,
            overhead=params.host.cpu_pack_overhead,
            tracer=tracer,
        )
        #: serializes CPU-side DEV preparation (the GPU engine's stage 1);
        #: durations are charged as per-op overheads, so bandwidth is moot
        self.cpu_prep_engine = FifoLink(
            sim, f"{name}.cpu_prep", bandwidth=1e15, tracer=tracer
        )

    def cpu_pack_op(self, nbytes: int, fn=None, label: str = "cpu_pack") -> Future:
        """Charge a CPU pack/unpack of ``nbytes``; run ``fn`` at completion.

        ``fn`` is chained as the transfer future's *first* callback, so it
        runs before any waiter added afterwards resumes — same ordering
        as the old wrapper future, one allocation and zero extra events
        cheaper.
        """
        fut = self.cpu_pack_engine.transfer(nbytes, label=label)
        if fn is not None:
            fut.add_callback(lambda _f: fn())
        return fut

    def cpu_memcpy_op(self, nbytes: int, fn=None, label: str = "cpu_memcpy") -> Future:
        """Charge a plain CPU memcpy; run ``fn`` at completion."""
        fut = self.cpu_memcpy_engine.transfer(nbytes, label=label)
        if fn is not None:
            fut.add_callback(lambda _f: fn())
        return fut

    def __repr__(self) -> str:
        return f"Node({self.name}, {len(self.gpus)} GPUs)"


class Cluster:
    """A set of nodes on one simulated clock.

    >>> cluster = Cluster(n_nodes=2, gpus_per_node=2)
    >>> gpu = cluster.nodes[0].gpus[0]
    """

    def __init__(
        self,
        n_nodes: int = 1,
        gpus_per_node: int = 2,
        params: Optional[SystemParams] = None,
        trace: bool = False,
        sim: Optional[Simulator] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"Cluster: n_nodes={n_nodes} must be >= 1")
        if gpus_per_node < 0:
            # 0 is a host-only node
            raise ValueError(
                f"Cluster: gpus_per_node={gpus_per_node} must be >= 0"
            )
        self.params = params or k40_cluster()
        #: ``sim`` lets a caller supply the clock — the schedule
        #: explorer (repro.sanitize.verify.explore) injects a seeded
        #: perturbed simulator; everyone else gets a fresh default
        self.sim = sim if sim is not None else Simulator()
        #: always a tracer object — a :class:`NullTracer` when disabled —
        #: so consumers never need a None guard
        self.tracer: Tracer = Tracer() if trace else NullTracer()
        self.nodes = [
            Node(
                self.sim,
                self.params,
                name=f"node{i}",
                n_gpus=gpus_per_node,
                tracer=self.tracer,
            )
            for i in range(n_nodes)
        ]

    def node(self, i: int) -> Node:
        """The i-th node."""
        return self.nodes[i]

    def gpu(self, node: int, gpu: int) -> Gpu:
        """GPU ``gpu`` of node ``node``."""
        return self.nodes[node].gpus[gpu]

    def __repr__(self) -> str:
        return f"Cluster({len(self.nodes)} nodes x {len(self.nodes[0].gpus)} GPUs)"
