"""Transfers large enough for the byte mover to split, run both ways.

The point-to-point matrix's largest cells are 128 KB, below
:data:`repro.bytemove.SPLIT_BYTES`.  These cells move 4–8 MB sub-matrix
(V), lower-triangular (T) and contiguous (C) layouts in the default
1 MiB fragments through every rendezvous leg: the host pipeline,
copy-in/out with and without zero copy, and the IPC RDMA modes, general
with and without local staging, ``send_contig``, ``recv_contig`` and
``both_contig``.  V at n = 1025 cuts each fragment into a partial head
row, whole rows and a partial tail.

Each cell runs its transfer twice in a fresh world, once with the
helper (two CPUs) and once with every move inline (one CPU), and both
runs must agree on the received bytes, the modeled elapsed time and
clock, the simulator events and every ``TransferStats`` field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import bytemove
from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous
from repro.datatype.primitives import DOUBLE
from repro.hw.node import Cluster
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld
from repro.workloads.matrices import lower_triangular_type, submatrix_type

HOST = (Cluster, (1, 1), [(0, None), (0, None)])
GPU2 = (Cluster, (1, 2), [(0, 0), (0, 1)])


def _v(n):
    return submatrix_type(n, n + 64)


def _c(nbytes):
    return contiguous(nbytes // 8, DOUBLE).commit()


_T = lower_triangular_type(1024)

#: name -> (send type, receive type), one element each
PAIRS = {
    "V1024": (_v(1024), _v(1024)),
    "V1025": (_v(1025), _v(1025)),
    "T1024": (_T, _T),
    "C4M": (_c(4 << 20), _c(4 << 20)),
    "C-V1025": (_c(1025 * 1025 * 8), _v(1025)),
    "V1025-C": (_v(1025), _c(1025 * 1025 * 8)),
    "C-T1024": (_c(_T.size), _T),
    "T1024-C": (_T, _c(_T.size)),
}

_ALL = ("V1024", "V1025", "T1024", "C4M")
_NON_CONTIG = ("V1024", "V1025", "T1024")
_NO_IPC = MpiConfig(use_cuda_ipc=False)
#: leg -> (placement, config, pairs, the (protocol, mode) it must take)
LEGS = {
    "host": (HOST, MpiConfig(), _ALL, ("host", "")),
    "copyinout": (GPU2, _NO_IPC, _ALL, ("copyinout", "")),
    "copyinout-no-zero-copy": (
        GPU2, _NO_IPC.but(zero_copy=False), _ALL, ("copyinout", "")
    ),
    "general": (GPU2, MpiConfig(), _NON_CONTIG, ("ipc_rdma", "general")),
    "general-no-local-staging": (
        GPU2, MpiConfig(receiver_local_staging=False), _NON_CONTIG,
        ("ipc_rdma", "general"),
    ),
    "send_contig": (
        GPU2, MpiConfig(), ("C-V1025", "C-T1024"), ("ipc_rdma", "send_contig")
    ),
    "recv_contig": (
        GPU2, MpiConfig(), ("V1025-C", "T1024-C"), ("ipc_rdma", "recv_contig")
    ),
    "both_contig": (GPU2, MpiConfig(), ("C4M",), ("ipc_rdma", "both_contig")),
}

CELLS = [(leg, pair) for leg, spec in LEGS.items() for pair in spec[2]]


def _run(leg: str, pair: str) -> tuple[dict, int]:
    """One cell's record, and how many moves split."""
    (cluster, shape, places), cfg, _pairs, _want = LEGS[leg]
    sdt, rdt = PAIRS[pair]
    world = MpiWorld(cluster(*shape), places, cfg)
    bufs = []
    for rank, dt in ((0, sdt), (1, rdt)):
        proc = world.procs[rank]
        if proc.gpu is not None:
            bufs.append(proc.ctx.malloc(dt.true_ub))
        else:
            bufs.append(proc.node.host_memory.alloc(dt.true_ub))
    rng = np.random.default_rng(5)
    bufs[0].bytes[:] = rng.integers(0, 256, bufs[0].nbytes, dtype=np.uint8)
    bufs[1].fill(0)

    def s(mpi):
        yield mpi.send(bufs[0], sdt, 1, dest=1, tag=1)

    def r(mpi):
        yield mpi.recv(bufs[1], rdt, 1, source=0, tag=1)

    calls = []
    real = bytemove._split

    def spy(fn, mine, theirs):
        calls.append(fn.__name__)
        real(fn, mine, theirs)

    runs = []
    sim = world.sim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bytemove, "_split", spy)
        for _ in range(2):
            ev0 = sim.events_processed
            elapsed = world.run([s, r])
            runs.append((elapsed, sim.now, sim.events_processed - ev0))
    assert np.array_equal(pack_bytes(rdt, 1, bufs[1].bytes),
                          pack_bytes(sdt, 1, bufs[0].bytes))
    stats = []
    for proc in world.procs.materialized():
        for t in proc.transfer_log:
            rec = dataclasses.asdict(t)
            del rec["tid"]  # a process-wide sequence number
            stats.append(rec)
    record = {
        "runs": runs,
        "received": bufs[1].bytes.copy(),
        "stats": stats,
    }
    world.close()
    return record, len(calls)


@pytest.mark.parametrize("leg, pair", CELLS, ids=[f"{l}-{p}" for l, p in CELLS])
def test_split_equals_inline(leg, pair, monkeypatch):
    monkeypatch.setattr(bytemove, "CPUS", 2)
    split, n_split = _run(leg, pair)
    monkeypatch.setattr(bytemove, "CPUS", 1)
    inline, n_inline = _run(leg, pair)
    assert n_split > 0 and n_inline == 0
    assert np.array_equal(split.pop("received"), inline.pop("received"))
    assert split == inline
    want = LEGS[leg][3]
    assert {(t["protocol"], t["mode"]) for t in split["stats"]} == {want}
