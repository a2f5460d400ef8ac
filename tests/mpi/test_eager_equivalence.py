"""Eager twin: the callback-chained fast path vs the coroutine PML.

``RankContext.isend``/``irecv`` run host-contiguous eager traffic through
the hand-scheduled callback chains (``eager_isend_fast`` /
``eager_irecv_fast``); ``isend_coro``/``irecv_coro`` are the coroutine
reference they must reproduce.  The PML-level counterpart of
``tests/sim/test_equivalence.py``: the same seeded traffic runs once
through each path in a fresh world, and every observable must match bit
for bit — received bytes, per-message completion times, request values
and ``Status`` fields, and the world's protocol mix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datatype.ddt import contiguous
from repro.datatype.primitives import BYTE
from repro.hw.node import Cluster
from repro.mpi.message import ANY_SOURCE
from repro.mpi.pml import eager_fast_ok, irecv_coro, isend_coro
from repro.mpi.requests import Request
from repro.mpi.world import MpiWorld

#: two ranks per node, so the traffic crosses both the sm and the ib BTL
N_RANKS = 4
#: receive count of the ANY_SOURCE pair (larger than either send)
WILD_RECV = 4096
#: one byte per element: message sizes are element counts
B = contiguous(1, BYTE).commit()


def _traffic(seed: int) -> tuple[list[dict], dict]:
    """Seeded host-contiguous eager messages, edge cases included."""
    rng = np.random.default_rng(seed)
    msgs = []
    for i in range(24):
        src, dst = rng.choice(N_RANKS, size=2, replace=False).tolist()
        n = int(rng.integers(1, 4096))
        msgs.append(dict(src=src, dst=dst, tag=i, n=n, n_recv=n, wild=False))
    msgs[0].update(n=0, n_recv=0)  # zero-byte send
    msgs[1]["n_recv"] = msgs[1]["n"] + 100  # receive posted larger
    # two senders into one rank's pair of ANY_SOURCE receives on one tag:
    # which receive gets which message is decided by arrival order
    dst = int(rng.integers(N_RANKS))
    s1, s2 = [r for r in range(N_RANKS) if r != dst][:2]
    for src in (s1, s2):
        msgs.append(dict(src=src, dst=dst, tag=99, n=int(rng.integers(1, 4096)),
                         n_recv=WILD_RECV, wild=True))
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


def _run(seed: int, coroutines: bool) -> tuple[list[dict], dict]:
    """Run the seeded traffic; return it and everything the twin compares."""
    msgs, plan = _traffic(seed)
    world = MpiWorld(Cluster(2, 0), [(r // 2, None) for r in range(N_RANKS)])
    rng = np.random.default_rng(seed + 1000)
    sbufs, rbufs = [], []
    for m in msgs:
        sbuf = world.context(m["src"]).host_alloc(max(m["n"], 1))
        sbuf.write(rng.integers(0, 256, size=max(m["n"], 1), dtype=np.uint8))
        sbufs.append(sbuf)
        rbufs.append(world.context(m["dst"]).host_alloc(max(m["n_recv"], 1)))
    done: dict = {}

    def post(mpi, kind: str, i: int) -> Request:
        m = msgs[i]
        if kind == "send":
            buf, count, peer = sbufs[i], m["n"], m["dst"]
        else:
            buf, count = rbufs[i], m["n_recv"]
            peer = ANY_SOURCE if m["wild"] else m["src"]
        # both twins run only operations the fast path accepts
        assert eager_fast_ok(mpi.proc, buf, B, count)
        if not coroutines:
            call = mpi.isend if kind == "send" else mpi.irecv
            req = call(buf, B, count, peer, tag=m["tag"])
        else:
            coro = isend_coro if kind == "send" else irecv_coro
            proc = mpi.sim.spawn(
                coro(mpi.world, mpi.proc, buf, B, count, peer, m["tag"]),
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


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fast_path_matches_coroutines(seed):
    msgs, fast = _run(seed, coroutines=False)
    _, coro = _run(seed, coroutines=True)
    assert fast["recv_bytes"] == coro["recv_bytes"]
    assert fast["recv"] == coro["recv"]
    assert fast["send"] == coro["send"]
    assert fast["by_protocol"] == coro["by_protocol"] == {"eager": 2 * len(msgs)}
    assert fast["by_mode"] == coro["by_mode"]
    assert fast["elapsed"] == coro["elapsed"]
    # the edge cases did what they are there for
    assert fast["recv"][0][1][2] == 0
    assert fast["recv"][1][1][2] == msgs[1]["n"] < msgs[1]["n_recv"]
    wild = [i for i, m in enumerate(msgs) if m["wild"]]
    assert {fast["recv"][i][1][0] for i in wild} == {msgs[i]["src"] for i in wild}
