"""Eager twin: the callback chain vs the frozen coroutine eager path.

``RankContext.isend``/``irecv`` run every eager message through the
callback chain of :mod:`repro.mpi.pml` (``_EagerSend``/``_EagerRecv``);
:mod:`tests.mpi.reference_eager` keeps the coroutine eager path it
replaced, frozen, as the reference.  The PML-level counterpart of
``tests/sim/test_equivalence.py``: the same seeded traffic runs once
through each path in a fresh world, and every observable must match bit
for bit — received bytes, per-message completion times, request values
and ``Status`` fields, and the world's protocol mix.

The traffic crosses every placement the chain tests: host and device
buffers on either side, contiguous bytes, a strided vector and a resized
contiguous type (its elements stride apart), the sm and ib transports,
and GPUDirect RDMA over ib on even seeds.  A sanitized leg runs the chain
under every checker: same observables, an empty report, and the chain's
steps swapped to their actor-tracked forms only inside the block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.datatype.ddt import contiguous, resized, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.hw.node import Cluster
from repro.mpi import pml
from repro.mpi.config import MpiConfig
from repro.mpi.message import ANY_SOURCE
from repro.mpi.requests import Request
from repro.mpi.world import MpiWorld
from repro.sanitize import SanitizeOptions
from repro.sanitize import runtime as _san

from .reference_eager import irecv_coro, isend_coro

#: two ranks per node, one GPU each, so the traffic crosses both the sm
#: and the ib BTL
N_RANKS = 4
#: receive count of the ANY_SOURCE pair (larger than either send)
WILD_RECV = 4096
#: one byte per element: message sizes are element counts
B = contiguous(1, BYTE).commit()
#: the datatypes the seeded messages draw from, with a per-type element
#: cap that keeps every message eager
TYPES = {
    "bytes": (B, 4096),
    "vector": (vector(4, 2, 3, DOUBLE).commit(), 64),  # 64 B, strided
    "resized": (resized(contiguous(1, DOUBLE), 0, 16).commit(), 512),
}


def _traffic(seed: int) -> tuple[list[dict], dict]:
    """Seeded eager messages over every placement, edge cases included."""
    rng = np.random.default_rng(seed)
    msgs = []
    for i in range(24):
        src, dst = rng.choice(N_RANKS, size=2, replace=False).tolist()
        kind = list(TYPES)[int(rng.integers(len(TYPES)))]
        n = int(rng.integers(1, TYPES[kind][1]))
        msgs.append(dict(
            src=src, dst=dst, tag=i, n=n, n_recv=n, wild=False, dt=kind,
            s_dev=bool(rng.integers(2)), r_dev=bool(rng.integers(2)),
        ))
    msgs[0].update(n=0, n_recv=0)  # zero-byte send
    msgs[1]["n_recv"] = msgs[1]["n"] + 100  # receive posted larger
    # two senders into one rank's pair of ANY_SOURCE receives on one tag:
    # which receive gets which message is decided by arrival order
    dst = int(rng.integers(N_RANKS))
    s1, s2 = [r for r in range(N_RANKS) if r != dst][:2]
    r_dev = bool(rng.integers(2))
    for src in (s1, s2):
        msgs.append(dict(src=src, dst=dst, tag=99, n=int(rng.integers(1, 4096)),
                         n_recv=WILD_RECV, wild=True, dt="bytes",
                         s_dev=bool(rng.integers(2)), r_dev=r_dev))
    # each rank posts its operations in a seeded order, some after a
    # seeded delay (so arrivals meet both posted and unposted receives)
    ops = {r: [] for r in range(N_RANKS)}
    for i, m in enumerate(msgs):
        ops[m["src"]].append(("send", i))
        ops[m["dst"]].append(("recv", i))
    delays = [0.0, 0.0, 1e-6, 5e-6]
    plan = {}
    for r, lst in ops.items():
        order = rng.permutation(len(lst)).tolist()
        plan[r] = [(lst[j], delays[int(rng.integers(len(delays)))]) for j in order]
    return msgs, plan


def _alloc(mpi, dev: bool, nbytes: int):
    return mpi.device_alloc(nbytes) if dev else mpi.host_alloc(nbytes)


def _run(seed: int, coroutines: bool) -> tuple[list[dict], dict]:
    """Run the seeded traffic; return it and everything the twin compares."""
    msgs, plan = _traffic(seed)
    world = MpiWorld(
        Cluster(2, 2),
        [(r // 2, r % 2) for r in range(N_RANKS)],
        MpiConfig(use_gpudirect_rdma=seed % 2 == 0),
    )
    rng = np.random.default_rng(seed + 1000)
    sbufs, rbufs = [], []
    for m in msgs:
        dt = TYPES[m["dt"]][0]
        nbytes = max(dt.extent * m["n"], 1)
        sbuf = _alloc(world.context(m["src"]), m["s_dev"], nbytes)
        sbuf.write(rng.integers(0, 256, size=nbytes, dtype=np.uint8))
        sbufs.append(sbuf)
        rbufs.append(_alloc(world.context(m["dst"]), m["r_dev"],
                            max(dt.extent * m["n_recv"], 1)))
    done: dict = {}

    def post(mpi, kind: str, i: int) -> Request:
        m = msgs[i]
        dt = TYPES[m["dt"]][0]
        if kind == "send":
            buf, count, peer = sbufs[i], m["n"], m["dst"]
        else:
            buf, count = rbufs[i], m["n_recv"]
            peer = ANY_SOURCE if m["wild"] else m["src"]
        # the twins run eager operations only
        assert dt.size * m["n"] <= mpi.config.eager_limit
        if not coroutines:
            call = mpi.isend if kind == "send" else mpi.irecv
            req = call(buf, dt, count, peer, tag=m["tag"])
        else:
            coro = isend_coro if kind == "send" else irecv_coro
            proc = mpi.sim.spawn(
                coro(mpi.world, mpi.proc, buf, dt, count, peer, m["tag"]),
                label=f"{kind}{i}", eager_start=True,
            )
            req = Request(proc, kind, count)

        def stamp(f) -> None:
            done[kind, i] = (mpi.now, f._value)

        req.future.add_callback(stamp)
        return req

    def program(mpi):
        reqs = []
        for (kind, i), delay in plan[mpi.rank]:
            if delay:
                yield mpi.sim.timeout(delay)
            reqs.append(post(mpi, kind, i))
        yield mpi.wait_all(*reqs)

    elapsed = world.run([program] * N_RANKS)
    ws = world.stats()
    out = {
        "elapsed": elapsed,
        "by_protocol": ws.by_protocol,
        "by_mode": ws.by_mode,
        "recv_bytes": [bytes(b.bytes) for b in rbufs],
        "send": {i: done["send", i] for i in range(len(msgs))},
        "recv": {
            i: (t, (st.source, st.tag, st.count_bytes))
            for i in range(len(msgs))
            for t, st in [done["recv", i]]
        },
    }
    return msgs, out


def _assert_twins(msgs: list[dict], chain: dict, coro: dict, seed: int) -> None:
    assert chain["recv_bytes"] == coro["recv_bytes"]
    assert chain["recv"] == coro["recv"]
    assert chain["send"] == coro["send"]
    assert chain["by_protocol"] == coro["by_protocol"] == {"eager": 2 * len(msgs)}
    assert chain["by_mode"] == coro["by_mode"]
    assert chain["elapsed"] == coro["elapsed"]
    # the edge cases did what they are there for
    assert chain["recv"][0][1][2] == 0
    size1 = TYPES[msgs[1]["dt"]][0].size
    assert chain["recv"][1][1][2] == msgs[1]["n"] * size1
    assert msgs[1]["n"] < msgs[1]["n_recv"]
    wild = [i for i, m in enumerate(msgs) if m["wild"]]
    assert {chain["recv"][i][1][0] for i in wild} == {msgs[i]["src"] for i in wild}
    # every placement and type rode the traffic, GPUDirect on even seeds
    assert {(m["s_dev"], m["r_dev"]) for m in msgs} == {
        (False, False), (False, True), (True, False), (True, True)
    }
    assert {m["dt"] for m in msgs} == set(TYPES)
    assert ("eager.gpudirect" in chain["by_mode"]) == (seed % 2 == 0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fast_path_matches_coroutines(seed):
    msgs, chain = _run(seed, coroutines=False)
    _, coro = _run(seed, coroutines=True)
    _assert_twins(msgs, chain, coro, seed)


def _step_forms_bound(instrumented: bool) -> bool:
    return all(
        cls.__dict__[name] is forms[instrumented]
        for (cls, name), forms in pml._STEP_FORMS.items()
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_sanitized_chain_matches_coroutines(seed):
    msgs, coro = _run(seed, coroutines=True)
    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        assert _step_forms_bound(True)
        _, chain = _run(seed, coroutines=False)
    assert _step_forms_bound(_san.RACE is not None)
    assert not rep.violations, rep.summary()
    _assert_twins(msgs, chain, coro, seed)
