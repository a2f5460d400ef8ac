"""Point-to-point differential matrix (ROADMAP item 7).

One table-driven suite over placement x datatype pair x config x fault
plan.  Every cell builds a fresh two-rank world and runs the same
transfer twice back to back (the second run finds warm pools, caches
and IPC registrations).  A cell delivers byte-exact data, or fails with
the loud error it expects: a sender-side :class:`IpcOpenError` when every
CUDA IPC open fails and only the sender can map (``recv_contig`` and
PUT), never silent corruption.

Cells whose send buffer is never written run under a recording
sanitizer, and the codes it reports join their record.

Each cell leaves one record of values the model computes: per run the
modeled elapsed time, the clock and the simulator events; a digest of
the received bytes; every ``TransferStats`` field; the non-zero
counters; the DevCache counters; and, for unwritten cells, the sanitizer
report.  One BLAKE2b digest over all records pins the whole matrix, so
a refactor of the protocols that changes any modeled number, fragment
plan, fallback or event count anywhere in the matrix fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import sanitize
from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous, resized, vector
from repro.datatype.primitives import DOUBLE
from repro.faults.plan import FaultSpec, IpcOpenError, TransferTimeout
from repro.gpu_engine.engine import EngineOptions
from repro.hw.node import Cluster
from repro.mpi.config import MpiConfig
from repro.mpi.world import MpiWorld
from repro.sanitize.options import SanitizeOptions
from repro.workloads.matrices import lower_triangular_type

#: name -> (nodes, GPUs per node, rank placements)
PLACEMENTS = {
    "2gpu": (1, 2, [(0, 0), (0, 1)]),
    "1gpu": (1, 1, [(0, 0), (0, 0)]),
    "2node": (2, 1, [(0, 0), (1, 0)]),
    "host": (1, 1, [(0, None), (0, None)]),
    "d2h": (1, 1, [(0, 0), (0, None)]),
    "h2d": (1, 1, [(0, None), (0, 0)]),
    "d2h-2node": (2, 1, [(0, 0), (1, None)]),
    "h2d-2node": (2, 1, [(0, None), (1, 0)]),
}

_V = vector(64, 32, 48, DOUBLE).commit()  # 16 KB, strided
_C16K = contiguous(2048, DOUBLE).commit()
_C128K = contiguous(16384, DOUBLE).commit()
#: a contiguous element resized apart: contiguous per element, strided
#: across three
_R = resized(contiguous(1024, DOUBLE), 0, 1536 * 8).commit()

#: name -> (send type, send count, receive type, receive count)
PAIRS = {
    "V": (_V, 1, _V, 1),
    "Vx3": (_V, 3, _V, 3),
    "T": (lower_triangular_type(64), 1, lower_triangular_type(64), 1),
    "C16K": (_C16K, 1, _C16K, 1),
    "C128K": (_C128K, 1, _C128K, 1),
    "V128K": (vector(256, 64, 96, DOUBLE).commit(), 1,
              vector(256, 64, 96, DOUBLE).commit(), 1),
    "Rx3": (_R, 3, _R, 3),
    "V-C": (_V, 1, _C16K, 1),
    "C-V": (_C16K, 1, _V, 1),
    "zero": (_V, 0, _V, 0),
}

_PIPE = MpiConfig(frag_bytes=8192, pipeline_depth=3)
#: name -> config; the knob configs sit on a pipelined base so the knob
#: acts on more than one fragment
CONFIGS = {
    "f4k-d2": MpiConfig(frag_bytes=4096, pipeline_depth=2),
    "f8k-d3": _PIPE,
    "default": MpiConfig(),
    "no-zero-copy": _PIPE.but(zero_copy=False),
    "no-ipc": _PIPE.but(use_cuda_ipc=False),
    "no-local-staging": _PIPE.but(receiver_local_staging=False),
    "put": _PIPE.but(rdma_mode="put"),
    "no-prep-pipeline": _PIPE.but(engine=EngineOptions(pipeline_prep=False)),
    "no-cache": _PIPE.but(engine=EngineOptions(use_cache=False)),
}

FAULTS = {
    "drop": dict(am_drop=0.25),
    "dup": dict(am_dup=0.5),
    "delay": dict(am_delay=0.5),
    "ipc_open_fail": dict(ipc_open_fail=1.0),
    "staging_fail": dict(staging_fail=1.0),
    "everything": dict(am_drop=0.15, am_dup=0.2, am_delay=0.3,
                       ipc_open_fail=0.3, staging_fail=0.3),
}
#: the fault plans run on these configs and pairs (every placement)
FAULT_CONFIGS = ("f4k-d2", "no-zero-copy", "no-local-staging", "put")
FAULT_PAIRS = ("T", "C16K", "V-C", "C-V")
#: unwritten-send-buffer cells (every placement, sanitized)
UNWRITTEN_CONFIGS = ("f8k-d3", "no-zero-copy")
UNWRITTEN_PAIRS = ("V", "T", "C128K", "V-C", "C-V")

#: the (protocol, mode, fallback) set of rendezvous transfers the matrix
#: reaches: every leg of every protocol
LEGS = {
    ("host", "", ""),
    ("copyinout", "", ""),
    ("copyinout", "", "copyinout"),
    ("ipc_rdma", "general", ""),
    ("ipc_rdma", "general", "direct_unpack"),
    ("ipc_rdma", "general_put", ""),
    ("ipc_rdma", "recv_contig", ""),
    ("ipc_rdma", "send_contig", ""),
    ("ipc_rdma", "send_contig", "direct_unpack"),
    ("ipc_rdma", "both_contig", ""),
}

#: BLAKE2b-128 over every cell's record, in cell order
DIGEST = "27980aa0d8dc65722f2569a856b961c7"


def _cells():
    """Every (placement, pair, config, fault, unwritten) cell, in order."""
    for p in PLACEMENTS:
        for d in PAIRS:
            for c in CONFIGS:
                yield p, d, c, None, False
        for c in FAULT_CONFIGS:
            for f in FAULTS:
                for d in FAULT_PAIRS:
                    yield p, d, c, f, False
        for c in UNWRITTEN_CONFIGS:
            for d in UNWRITTEN_PAIRS:
                yield p, d, c, None, True


def _expected_failure(placement, pair, config, fault):
    """The loud failure a cell expects, or None for byte-exact delivery.

    With every IPC open failing, a receiver that maps falls back to
    copy-in/out, but a sender that maps (into the receiver's buffer for
    ``recv_contig``, into its ring under PUT) has no renegotiation path
    and raises once its retries run out.
    """
    if fault != "ipc_open_fail":
        return None
    nodes, _g, places = PLACEMENTS[placement]
    cfg = CONFIGS[config]
    sdt, scount, rdt, rcount = PAIRS[pair]
    if nodes != 1 or None in (places[0][1], places[1][1]):
        return None
    if not cfg.use_cuda_ipc or sdt.size * scount <= cfg.eager_limit:
        return None

    def contig(dt, count):
        return dt.is_contiguous and (count == 1 or dt.extent == dt.size)

    s_contig, r_contig = contig(sdt, scount), contig(rdt, rcount)
    if r_contig and not s_contig:
        return IpcOpenError
    if not (s_contig or r_contig) and cfg.rdma_mode == "put":
        return IpcOpenError
    return None


def _run_cell(placement, pair, config, fault, unwritten):
    nodes, gpus, places = PLACEMENTS[placement]
    sdt, scount, rdt, rcount = PAIRS[pair]
    cfg = CONFIGS[config]
    if fault is not None:
        cfg = cfg.but(faults=FaultSpec(seed=7, **FAULTS[fault]))
    world = MpiWorld(Cluster(nodes, gpus), places, cfg)
    bufs = []
    for rank, dt, count in ((0, sdt, scount), (1, rdt, rcount)):
        size = max(dt.spans_for_count(count).true_ub, 1) + 64
        proc = world.procs[rank]
        if proc.gpu is not None:
            bufs.append(proc.ctx.malloc(size))
        else:
            bufs.append(proc.node.host_memory.alloc(size))
    if not unwritten:
        rng = np.random.default_rng(99)
        bufs[0].bytes[:] = rng.integers(0, 255, bufs[0].nbytes, dtype=np.uint8)
    bufs[1].fill(0)

    def s(mpi):
        yield mpi.send(bufs[0], sdt, scount, dest=1, tag=1)

    def r(mpi):
        yield mpi.recv(bufs[1], rdt, rcount, source=0, tag=1)

    runs = []
    outcome = "ok"
    sim = world.sim
    try:
        for _ in range(2):
            ev0 = sim.events_processed
            elapsed = world.run([s, r])
            runs.append([elapsed, sim.now, sim.events_processed - ev0])
    except (IpcOpenError, TransferTimeout) as err:
        outcome = type(err).__name__
        runs.append([None, sim.now, None])
    delivered = (
        outcome != "ok"
        or np.array_equal(pack_bytes(sdt, scount, bufs[0].bytes),
                          pack_bytes(rdt, rcount, bufs[1].bytes))
    )
    stats = []
    for proc in world.procs.materialized():
        for t in proc.transfer_log:
            rec = dataclasses.asdict(t)
            del rec["tid"]  # a process-wide sequence number
            stats.append(rec)
    counters = {
        k: v for k, v in sorted(world.metrics.snapshot().items())
        if isinstance(v, int) and v
    }
    caches = [
        dataclasses.asdict(p._engine.cache.stats())
        for p in world.procs.materialized() if p._engine is not None
    ]
    record = {
        "cell": [placement, pair, config, fault, unwritten],
        "outcome": outcome,
        "runs": runs,
        "received": hashlib.blake2b(bufs[1].bytes.tobytes(),
                                    digest_size=8).hexdigest(),
        "stats": stats,
        "counters": counters,
        "caches": caches,
    }
    if outcome == "ok":
        # a failed cell's receiver is still parked inside its transfer
        world.close()
    return record, delivered


@pytest.fixture(scope="module")
def matrix():
    """Every cell's (record, delivered) pair, in cell order."""
    out = []
    for cell in _cells():
        if cell[4]:
            with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
                record, delivered = _run_cell(*cell)
            record["reports"] = sorted(v.code for v in rep.violations)
        else:
            record, delivered = _run_cell(*cell)
        out.append((record, delivered))
    return out


def test_every_cell_delivers_or_fails_as_expected(matrix):
    wrong = []
    for record, delivered in matrix:
        placement, pair, config, fault, _u = record["cell"]
        want = _expected_failure(placement, pair, config, fault)
        want = "ok" if want is None else want.__name__
        if record["outcome"] != want or not delivered:
            wrong.append((record["cell"], record["outcome"], delivered))
    assert not wrong, wrong


def test_matrix_reaches_every_leg(matrix):
    """Drift guard: the cells still cover every protocol, mode and
    fallback the rendezvous path has."""
    reached = {
        (t["protocol"], t["mode"], t["fallback"])
        for record, _ in matrix for t in record["stats"]
        if t["protocol"] != "eager"
    }
    assert reached == LEGS


def test_unwritten_send_buffers_are_reported(matrix):
    """Reading a never-written send buffer in place is a memsan finding;
    the cells that do it are part of the pinned record."""
    codes = {
        c for record, _ in matrix if record["cell"][4]
        for c in record.get("reports", ())
    }
    assert codes == {"mem.uninit_read"}


def test_matrix_digest(matrix):
    """Every modeled number of every cell, pinned as one digest."""
    h = hashlib.blake2b(digest_size=16)
    for record, _ in matrix:
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST, f"{len(matrix)} cells"
