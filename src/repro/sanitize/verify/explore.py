"""Schedule-perturbation explorer: ``python -m repro.sanitize.explore``.

A DPOR-lite harness for the simulated MPI stack.  The discrete-event
simulator is deterministic: same-timestamp events pop in scheduling
order (FIFO via the ``seq`` tiebreaker).  Real MPI makes no such
promise — progress threads, NIC completion order and kernel scheduling
interleave concurrent work arbitrarily.  The explorer re-runs a
scenario many times under a :class:`PerturbedSimulator` whose
same-timestamp tiebreaker is seeded-random, plus randomized
wildcard-receive match choices (the one *semantic* nondeterminism MPI
allows — see :meth:`repro.mpi.matching.MatchingEngine.post`), and
asserts that every application-visible result is **bit-identical** to
the unperturbed baseline:

* received buffer contents (packed through the datatype, so only the
  typemap-covered bytes count);
* every ``Status`` (source, tag, byte count);
* no sanitizer violation and a clean ``MpiWorld.finalize()`` audit.

Each run executes inside ``sanitize.enabled(verify=True, mode="raise")``
so the non-overtaking assert, the deadlock detector and the
finalize-time leak audit are armed — a schedule that deadlocks, leaks
or overtakes fails loudly instead of hanging silently.

Scenarios cover the protocol matrix: ``eager`` (single-AM path, with a
wildcard receive), ``rendezvous`` (pipelined RTS/CTS with small
fragments), the three ``smoke-*`` environments of
:mod:`repro.bench.smoke` (ipc_rdma / copyinout / host), and
``coll_crossover`` (alltoall over a 2x2 world under the two rungs
``"auto"`` picks between, staged and nonblocking), ``coll_ladder``
(every collective executor: bcast, gather, allgather and a ragged
alltoallv under all three rungs)
and ``traffic`` (a multi-tenant replay over copy-in/out
and the gather plan).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Optional

import numpy as np

from repro import sanitize
from repro.sanitize import runtime as _san
from repro.sanitize.options import SanitizeOptions
from repro.sanitize.report import SanitizerError
from repro.sim.core import (
    _PAST_ABS_TOL,
    _PAST_REL_TOL,
    SimulationError,
    Simulator,
    TimerHandle,
)

__all__ = [
    "PerturbedSimulator",
    "ExploreResult",
    "SCENARIOS",
    "explore",
    "main",
]

#: schedules per scenario: default and ``--quick`` (the CI verify leg)
DEFAULT_SCHEDULES = 50
QUICK_SCHEDULES = 8


class PerturbedSimulator(Simulator):
    """A :class:`Simulator` with seeded-random same-timestamp ordering.

    The base heap orders entries by ``(when, seq)`` with ``seq`` a
    monotonic integer — concurrent events fire FIFO.  Here ``seq`` is
    the tuple ``(rng.random(), n)``: events at the same timestamp pop
    in seeded-random order instead, modelling the arbitrary progress
    interleaving of a real MPI library.  ``n`` keeps keys unique so
    heap comparison never reaches the (uncomparable) callback.

    Only the three primitives that push heap entries are overridden —
    ``schedule_after`` delegates to :meth:`schedule_at` and
    ``call_after``/``call_soon`` to :meth:`call_at` in the base class.
    :class:`TimerHandle` cancellation compares ``entry[1]`` by
    equality, which works for tuples as well as ints.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def _push(self, when: float, fn) -> list:
        seq = (self._rng.random(), self._seq)
        self._seq += 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = fn
        else:
            entry = [when, seq, fn]
        heappush(self._heap, entry)
        return entry

    def _clamp(self, when: float) -> float:
        now = self._now
        if when < now:
            if now - when > _PAST_REL_TOL * now + _PAST_ABS_TOL:
                raise SimulationError(
                    f"cannot schedule at {when} before current time {now}"
                )
            return now
        return when

    def schedule_at(self, when: float, fn) -> None:
        """Schedule ``fn`` at ``when`` with a randomized tie-break key."""
        self._push(self._clamp(when), fn)

    def schedule_soon(self, fn) -> None:
        """Schedule ``fn`` at the current time (randomized tie-break)."""
        self._push(self._now, fn)

    def call_at(self, when: float, fn) -> TimerHandle:
        """Schedule a cancellable timer at ``when`` (randomized tie-break)."""
        return TimerHandle(self, self._push(self._clamp(when), fn))


# ---------------------------------------------------------------------------
# scenarios: each builds a world on the supplied simulator, runs it, and
# returns a digest of everything the application could observe
# ---------------------------------------------------------------------------


def _hasher():
    return hashlib.blake2b(digest_size=16)


def _add_status(h, tag: str, st) -> None:
    h.update(
        f"{tag}:source={st.source},tag={st.tag},"
        f"count={st.count_bytes};".encode()
    )


def _pingpong_scenario(
    sim: Simulator, kind: str, n: int, iters: int, frag_bytes: int
) -> str:
    """Triangular-matrix ping-pong on one smoke environment."""
    from repro.bench.harness import make_env, matrix_buffers
    from repro.datatype.convertor import pack_bytes
    from repro.mpi.config import MpiConfig
    from repro.workloads.matrices import MatrixWorkload

    env = make_env(kind, config=MpiConfig(frag_bytes=frag_bytes), sim=sim)
    wl = MatrixWorkload.triangular(n=n)
    b0, b1 = matrix_buffers(env, wl, seed=7)
    dt = wl.datatype
    statuses: list = []

    def rank0(mpi):
        for i in range(iters):
            yield mpi.send(b0, dt, 1, dest=1, tag=10 + i)
            st = yield mpi.recv(b0, dt, 1, source=1, tag=20 + i)
            statuses.append(("r0", st))

    def rank1(mpi):
        for i in range(iters):
            st = yield mpi.recv(b1, dt, 1, source=0, tag=10 + i)
            statuses.append(("r1", st))
            yield mpi.send(b1, dt, 1, dest=0, tag=20 + i)

    env.world.run([rank0, rank1])
    env.world.finalize()

    h = _hasher()
    # per-rank status order is deterministic; inter-rank order is not —
    # sort by the (rank, append-index-within-rank) implied by grouping
    for who in ("r0", "r1"):
        for w, st in statuses:
            if w == who:
                _add_status(h, who, st)
    h.update(pack_bytes(dt, 1, b0.bytes).tobytes())
    h.update(pack_bytes(dt, 1, b1.bytes).tobytes())
    return h.hexdigest()


def _eager_scenario(sim: Simulator) -> str:
    """Small contiguous messages (single-AM eager path), multi-tag,
    finishing with a wildcard (ANY_SOURCE/ANY_TAG) receive — the match
    choice the explorer randomizes (one peer, so the result is still
    deterministic)."""
    from repro.bench.harness import make_env
    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE
    from repro.mpi.config import MpiConfig

    env = make_env("sm-2gpu", config=MpiConfig(), sim=sim)
    dt = contiguous(64, DOUBLE).commit()  # 512 B: far under eager_limit
    ctx0, ctx1 = env.world.procs[0].ctx, env.world.procs[1].ctx
    rng = np.random.default_rng(11)
    sends = [ctx0.malloc(dt.size, label=f"eager-s{i}") for i in range(4)]
    recvs = [ctx1.malloc(dt.size, label=f"eager-r{i}") for i in range(4)]
    for b in sends:
        b.bytes[:] = rng.integers(0, 255, dt.size, dtype=np.uint8)
    for b in recvs:
        b.fill(0)
    statuses: list = []

    def rank0(mpi):
        reqs = [
            mpi.isend(sends[i], dt, 1, dest=1, tag=30 + i) for i in range(3)
        ]
        yield mpi.wait_all(*reqs)
        yield mpi.send(sends[3], dt, 1, dest=1, tag=40)

    def rank1(mpi):
        for i in range(3):
            st = yield mpi.recv(recvs[i], dt, 1, source=0, tag=30 + i)
            statuses.append(st)
        # wildcard: exercises the explorer's match-choice hook
        st = yield mpi.recv(recvs[3], dt, 1)
        statuses.append(st)

    env.world.run([rank0, rank1])
    env.world.finalize()

    h = _hasher()
    for st in statuses:
        _add_status(h, "r1", st)
    for b in recvs:
        h.update(b.bytes.tobytes())
    return h.hexdigest()


def _coll_scenario(sim: Simulator) -> str:
    """Alltoall over a 2x2 world under the staged and the nonblocking
    rung (the ``coll_crossover`` bench scenario's protagonists)."""
    from repro.hw.node import Cluster
    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE
    from repro.mpi.collectives import CollAlgorithm, alltoall
    from repro.mpi.config import MpiConfig
    from repro.mpi.world import MpiWorld

    cluster = Cluster(2, 2, sim=sim)
    placements = [(n, g) for n in range(2) for g in range(2)]
    world = MpiWorld(cluster, placements, config=MpiConfig())
    size = 4
    dt = contiguous(256, DOUBLE).commit()  # 2 KB per peer block
    rng = np.random.default_rng(13)
    sendbufs, recvbufs = [], []
    for r in range(size):
        ctx = world.procs[r].ctx
        srow, rrow = [], []
        for _ in range(size):
            sb = ctx.malloc(dt.size)
            sb.bytes[:] = rng.integers(0, 255, dt.size, dtype=np.uint8)
            rb = ctx.malloc(dt.size)
            rb.fill(0)
            srow.append(sb)
            rrow.append(rb)
        sendbufs.append(srow)
        recvbufs.append(rrow)

    def program(rank):
        def run(mpi):
            for algo in (CollAlgorithm.STAGED, CollAlgorithm.NONBLOCKING):
                yield from alltoall(
                    mpi, sendbufs[rank], dt, 1, recvbufs[rank], dt, 1,
                    algorithm=algo,
                )
                yield mpi.barrier()
        return run

    world.run({r: program(r) for r in range(size)})
    world.finalize()

    h = _hasher()
    for r in range(size):
        for b in recvbufs[r]:
            h.update(b.bytes.tobytes())
    return h.hexdigest()


def _coll_ladder_scenario(sim: Simulator) -> str:
    """Every collective executor on a 2x2 device world.

    bcast (root 1), gather (root 2) and allgather run under the
    pairwise, nonblocking and staged rungs, then an alltoallv with
    counts ``(s + d) % 3`` (zero blocks included) under the same
    three.
    Every block is a lower-triangular type and every call lands in its
    own receive buffers; the digest covers all received bytes.
    """
    from repro.datatype.convertor import pack_bytes
    from repro.hw.node import Cluster
    from repro.mpi.collectives import (
        CollAlgorithm,
        allgather,
        alltoallv,
        bcast,
        gather,
    )
    from repro.mpi.config import MpiConfig
    from repro.mpi.world import MpiWorld
    from repro.workloads.matrices import lower_triangular_type

    cluster = Cluster(2, 2, sim=sim)
    placements = [(n, g) for n in range(2) for g in range(2)]
    world = MpiWorld(cluster, placements, config=MpiConfig())
    size = 4
    dt = lower_triangular_type(12)
    rng = np.random.default_rng(17)
    rungs = list(CollAlgorithm)
    counts = [[(s + d) % 3 for d in range(size)] for s in range(size)]

    def alloc(r, n=1, fill=False):
        buf = world.procs[r].ctx.malloc(dt.extent * max(n, 1))
        if fill:
            buf.bytes[:] = rng.integers(0, 255, buf.nbytes, dtype=np.uint8)
        else:
            buf.fill(0)
        return buf

    send = [alloc(r, fill=True) for r in range(size)]
    a2a_send = [
        [alloc(r, counts[r][d], fill=True) for d in range(size)]
        for r in range(size)
    ]
    # received: (buffer, count) per call, in digest order
    got: list = []
    bufs: dict = {}
    for algo in rungs:
        for r in range(size):
            b = bufs["bcast", algo, r] = alloc(r, fill=r == 1)
            got.append((b, 1))
            bufs["allgather", algo, r] = [alloc(r) for _ in range(size)]
            got += [(b, 1) for b in bufs["allgather", algo, r]]
        bufs["gather", algo] = [alloc(2) for _ in range(size)]
        got += [(b, 1) for b in bufs["gather", algo]]
    for algo in rungs:
        for r in range(size):
            bufs["alltoallv", algo, r] = [
                alloc(r, counts[s][r]) for s in range(size)
            ]
            got += [
                (b, counts[s][r])
                for s, b in enumerate(bufs["alltoallv", algo, r])
            ]

    def program(rank):
        def run(mpi):
            for algo in rungs:
                yield from bcast(
                    mpi, bufs["bcast", algo, rank], dt, 1, root=1,
                    algorithm=algo,
                )
                yield from gather(
                    mpi, send[rank], dt, 1,
                    bufs["gather", algo] if rank == 2 else None,
                    dt if rank == 2 else None, 1, root=2, algorithm=algo,
                )
                yield from allgather(
                    mpi, send[rank], dt, 1, bufs["allgather", algo, rank],
                    dt, 1, algorithm=algo,
                )
            for algo in rungs:
                yield from alltoallv(
                    mpi, a2a_send[rank], dt, counts[rank],
                    bufs["alltoallv", algo, rank], dt,
                    [counts[s][rank] for s in range(size)], algorithm=algo,
                )
        return run

    world.run({r: program(r) for r in range(size)})
    world.finalize()

    h = _hasher()
    for buf, count in got:
        h.update(pack_bytes(dt, count, buf.bytes).tobytes())
    return h.hexdigest()


def _traffic_scenario(sim: Simulator) -> str:
    """Multi-tenant traffic replay on the non-default paths.

    A static config steers the replay off the paths the other scenarios
    cover: 256 KB x 2 fragments, copy-in/out for device pairs
    (``use_cuda_ipc=False``) and the generic CUDA_DEV gather plan for
    every pack (``force_dev_path``).  The digest covers every tenant's
    received bytes on every rank.
    """
    from repro.gpu_engine.engine import EngineOptions
    from repro.mpi.config import MpiConfig
    from repro.workloads.traffic import TrafficSpec, replay_digest

    config = MpiConfig(
        frag_bytes=256 * 1024,
        pipeline_depth=2,
        use_cuda_ipc=False,
        engine=EngineOptions(force_dev_path=True),
    )
    return replay_digest(TrafficSpec(), config=config, sim=sim)


#: scenario name -> callable(sim) -> result digest
SCENARIOS: dict[str, Callable[[Simulator], str]] = {
    # protocol paths
    "eager": _eager_scenario,
    "rendezvous": lambda sim: _pingpong_scenario(
        sim, "ib", n=96, iters=2, frag_bytes=8 * 1024
    ),
    # the three smoke environments (repro.bench.smoke SMOKE_CASES)
    "smoke-sm-2gpu": lambda sim: _pingpong_scenario(
        sim, "sm-2gpu", n=128, iters=1, frag_bytes=16 * 1024
    ),
    "smoke-ib": lambda sim: _pingpong_scenario(
        sim, "ib", n=128, iters=1, frag_bytes=16 * 1024
    ),
    "smoke-cpu": lambda sim: _pingpong_scenario(
        sim, "cpu", n=128, iters=1, frag_bytes=16 * 1024
    ),
    # collective crossover: staged + nonblocking alltoall on a 2x2 world
    "coll_crossover": _coll_scenario,
    # every collective executor: bcast/gather/allgather/alltoallv x 3
    # rungs on a 2x2 world
    "coll_ladder": _coll_ladder_scenario,
    # multi-tenant traffic replay: copy-in/out, small frags, gather plan
    "traffic": _traffic_scenario,
}


# ---------------------------------------------------------------------------
# the exploration loop
# ---------------------------------------------------------------------------


@dataclass
class ExploreResult:
    """Outcome of exploring one scenario."""

    scenario: str
    baseline_digest: str = ""
    schedules: int = 0
    identical: int = 0
    #: (seed, digest) of every schedule whose digest diverged
    divergent: list = field(default_factory=list)
    #: "seed=N: message" for every schedule that raised
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.divergent
            and not self.errors
            and self.identical == self.schedules
        )

    def to_dict(self) -> dict:
        """JSON-serializable form for the ``--json`` report."""
        return {
            "scenario": self.scenario,
            "baseline_digest": self.baseline_digest,
            "schedules": self.schedules,
            "identical": self.identical,
            "divergent": [list(d) for d in self.divergent],
            "errors": self.errors,
            "ok": self.ok,
        }


def _run_once(
    fn: Callable[[Simulator], str],
    sim: Simulator,
    match_rng: Optional[random.Random],
) -> str:
    """One scenario execution under a fresh raise-mode verifier."""
    with sanitize.enabled(SanitizeOptions(verify=True), mode="raise"):
        if match_rng is not None:
            _san.VERIFY.match_choice = match_rng.choice
        return fn(sim)


def explore(
    name: str,
    schedules: int = DEFAULT_SCHEDULES,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> ExploreResult:
    """Explore ``schedules`` perturbed schedules of scenario ``name``.

    The baseline runs on an unperturbed :class:`Simulator` with
    deterministic matching; every perturbed run must reproduce its
    digest bit-for-bit.  Deadlocks, sanitizer violations and audit
    findings surface as errors rather than divergences.
    """
    fn = SCENARIOS[name]
    res = ExploreResult(scenario=name, schedules=schedules)
    res.baseline_digest = _run_once(fn, Simulator(), None)
    for i in range(schedules):
        run_seed = seed * 1_000_003 + i
        try:
            digest = _run_once(
                fn,
                PerturbedSimulator(run_seed),
                random.Random(run_seed ^ 0x5EED),
            )
        except (SanitizerError, SimulationError) as exc:
            res.errors.append(f"seed={run_seed}: {exc}")
            continue
        if digest == res.baseline_digest:
            res.identical += 1
        else:
            res.divergent.append((run_seed, digest))
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"  {name}: {i + 1}/{schedules} schedules")
    return res


def main(argv: Optional[list] = None) -> int:
    """CLI: explore scenarios, report, exit non-zero on any divergence."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize.explore",
        description=(
            "Re-run MPI scenarios under seeded schedule perturbation and "
            "assert bit-identical application-visible results."
        ),
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names (default: all); see --list",
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=None,
        help=f"perturbed schedules per scenario (default {DEFAULT_SCHEDULES})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: {QUICK_SCHEDULES} schedules per scenario",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    names = args.scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)} "
            f"(choose from: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    schedules = args.schedules
    if schedules is None:
        schedules = QUICK_SCHEDULES if args.quick else DEFAULT_SCHEDULES

    results = []
    failed = False
    for name in names:
        print(f"== {name} ({schedules} schedules, seed {args.seed})")
        res = explore(name, schedules=schedules, seed=args.seed, progress=print)
        results.append(res)
        if res.ok:
            print(
                f"  ok: {res.identical}/{res.schedules} schedules "
                f"bit-identical ({res.baseline_digest})"
            )
        else:
            failed = True
            for s, d in res.divergent:
                print(f"  DIVERGED seed={s}: {d} != {res.baseline_digest}")
            for line in res.errors:
                print(f"  ERROR {line}")

    if args.json:
        doc = {
            "schedules": schedules,
            "seed": args.seed,
            "results": [r.to_dict() for r in results],
            "ok": not failed,
        }
        if args.json == "-":
            json.dump(doc, sys.stdout, indent=2)
            print()
        else:
            parent = os.path.dirname(args.json)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.json, "w") as f:
                json.dump(doc, f, indent=2)
            print(f"report -> {args.json}")

    total = sum(r.schedules for r in results)
    good = sum(r.identical for r in results)
    print(
        f"explore: {good}/{total} schedules bit-identical across "
        f"{len(results)} scenario(s)"
        + ("" if not failed else " — FAILURES above")
    )
    return 1 if failed else 0
