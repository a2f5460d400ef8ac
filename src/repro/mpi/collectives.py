"""Datatype-aware collective operations over the point-to-point stack.

"Once constructed and committed, an MPI datatype can be used as an
argument for any point-to-point, collective, I/O, and one-sided
functions" (Section 1).  These collectives demonstrate exactly that: the
GPU datatype engine and protocols underneath are untouched — a broadcast
of a triangular matrix from GPU memory pipelines through the same
CUDA-IPC/copy-in-out machinery as a send.

Every call compiles into this rank's *schedule*: a list of rounds, each
a list of legs ``(send, peer, (buf, dt, count))``.  Five shapes
cover the five ops — ``_tree`` (binomial bcast), ``_fan_out`` (flat
bcast), ``_fan_in`` (gather), ``_flat`` (allgather and alltoall(v): own
block first, then each peer) and ``_ordered`` (ring allgather and
pairwise alltoall rounds).  Every collective accepts an algorithm from
the :class:`CollAlgorithm` ladder (see docs/COLLECTIVES.md), resolved per
call from an explicit ``algorithm=`` override, else
``MpiConfig.coll_algorithm``, else the per-op ``"auto"`` default; the
rung picks the shape and one of two executors (two-sided, staged):

- ``PAIRWISE`` — the op's ordered shape (binomial tree, serialized
  gather, ring, pairwise exchange), run two-sided: each round's legs
  are posted in order, then waited for together.
- ``NONBLOCKING`` — the flat shape, two-sided: one round, every
  isend/irecv in flight at once.
- ``STAGED`` — copy-to-host over the flat shape (bcast: the tree):
  device blocks are engine-packed into one device region, moved with
  *one* batched D2H, exchanged host-to-host, then one batched H2D +
  per-block unpack.  The per-message GPU costs (kernel launches, IPC
  handshakes) are paid once, which is why it wins at small sizes
  (SNIPPETS.md ``copy_to_cpu_alltoall``).

Mixed worlds are fine: ``STAGED`` is a local decision (the wire carries
the same packed signature either way), so a host-buffer rank
interoperates with a device rank that stages.

Tag-space layout: collective traffic lives above ``_COLL_TAG_BASE``
(1 << 20), and every op owns a disjoint ``_COLL_OP_SPAN``-wide
sub-space, indexed by ``_COLL_OP_INDEX``.  Within an op, the per-rank
call sequence number (collectives are invoked in the same order on
every rank, so local counters agree globally) selects the call's one
tag.  Before this layout, ``bcast`` seq *k* and ``gather`` seq *k*
produced the *same* tag, so overlapping collectives could cross-match
fragments — see the regression tests in tests/mpi/test_collectives.py.

Every op returns the documented **bytes moved per rank** — the packed
bytes this rank contributes — uniformly, including world size 1.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datatype.canonical import stream_plan
from repro.datatype.ddt import (
    Datatype,
    contiguous,
    require_datatypes,
    require_fit,
    require_ints,
    require_lists,
    struct,
)
from repro.datatype.primitives import BYTE, PREDEFINED
from repro.hw.memory import Buffer, require_buffers
from repro.mpi.pml import _times
from repro.sanitize import runtime as _san

if TYPE_CHECKING:
    from repro.mpi.world import RankContext

__all__ = [
    "CollAlgorithm",
    "bcast",
    "gather",
    "allgather",
    "alltoall",
    "alltoallv",
]


class CollAlgorithm(str, Enum):
    """One rung of the collective algorithm ladder (module docstring)."""

    PAIRWISE = "pairwise"
    NONBLOCKING = "nonblocking"
    STAGED = "staged"


# -- tag space ----------------------------------------------------------------

_COLL_TAG_BASE = 1 << 20
#: width of each op's private tag sub-space
_COLL_OP_SPAN = 1 << 17
#: disjoint sub-space index per op — the tag-collision fix
_COLL_OP_INDEX = {
    "bcast": 0,
    "gather": 1,
    "allgather": 2,
    "alltoall": 3,
    "alltoallv": 4,
}


def _op_tag(op: str, seq: int) -> int:
    """The wire tag of call ``seq`` of ``op``: one tag per call."""
    return (
        _COLL_TAG_BASE
        + _COLL_OP_INDEX[op] * _COLL_OP_SPAN
        + seq % _COLL_OP_SPAN
    )


# -- packed wire types --------------------------------------------------------

#: packed wire type per (datatype signature, count)
_PACKED_CACHE: dict[tuple, Datatype] = {}
#: packed wire types kept process-wide; cleared when full (a steady
#: workload draws a handful of (signature, count) pairs, an alltoallv
#: with counts redrawn per call a new one almost every call)
_PACKED_MAX = 256


def _packed_type(sig: tuple, count: int = 1) -> Datatype:
    """A committed *contiguous-layout* datatype whose signature is
    ``count`` repetitions of ``sig``.

    The staged path moves packed byte streams; sending
    them under this type keeps the PML signature check honest (packed
    send signature == original send signature) while the layout is a
    plain dense run.
    """
    key = (sig, count)
    cached = _PACKED_CACHE.get(key)
    if cached is not None:
        return cached
    if len(_PACKED_CACHE) >= _PACKED_MAX:
        _PACKED_CACHE.clear()
    sig = _times(sig, count)
    if not sig:
        dtp = contiguous(0, BYTE)
    elif len(sig) == 1:
        name, c = sig[0]
        dtp = contiguous(c, PREDEFINED[name])
    else:
        lens = []
        disps = []
        types = []
        off = 0
        for name, c in sig:
            prim = PREDEFINED[name]
            lens.append(c)
            disps.append(off)
            types.append(prim)
            off += c * prim.size
        dtp = struct(lens, disps, types)
    dtp.commit()
    _PACKED_CACHE[key] = dtp
    return dtp


# -- selection ----------------------------------------------------------------

_A2A_OPS = ("alltoall", "alltoallv")


def _resolve_algorithm(
    mpi: "RankContext",
    op: str,
    explicit,
    is_device: bool,
    peer_bytes: int,
) -> CollAlgorithm:
    """Pick the rung: explicit override > MpiConfig.coll_algorithm > auto.

    ``"auto"`` keeps the classic per-op defaults and, for the alltoall
    family, stages device buffers through the host when the largest
    per-peer packed block is at or below ``coll_staged_threshold`` bytes
    and takes the nonblocking path otherwise.  Bench scenario
    ``coll_crossover`` measures where nonblocking first beats staged,
    the two rungs this choice is between.
    """
    choice = explicit if explicit is not None else mpi.config.coll_algorithm
    if isinstance(choice, CollAlgorithm):
        algo = choice
    elif choice == "auto":
        if op in _A2A_OPS:
            if is_device and peer_bytes <= mpi.config.coll_staged_threshold:
                algo = CollAlgorithm.STAGED
            else:
                algo = CollAlgorithm.NONBLOCKING
        elif op == "gather":
            algo = CollAlgorithm.NONBLOCKING
        else:
            algo = CollAlgorithm.PAIRWISE
    else:
        try:
            algo = CollAlgorithm(choice)
        except ValueError:
            raise ValueError(
                f"unknown collective algorithm {choice!r}; expected 'auto' "
                f"or one of {[a.value for a in CollAlgorithm]}"
            ) from None
    return algo


# -- schedule shapes ----------------------------------------------------------
#
# A block is ``(buf, dt, count)``; a leg is ``(send, peer, block)``;
# a schedule is a list of non-empty rounds of legs, in post order.  Every
# executor keeps that order, so the shapes fix what the wire sees.  Legs
# that carry one block object carry the same bytes (an allgather's send
# block, the bcast block); distinct block objects are distinct data even
# when their buffers alias, so the staged executor gives each its slot.


def _tree(rank: int, size: int, root: int, block: tuple) -> list:
    """Binomial bcast: receive from the parent, then forward to every
    child, highest bit first (Open MPI's binomial order: the farthest
    subtree starts earliest, giving the log2(P) rounds)."""
    vrank = (rank - root) % size
    rounds = []
    if vrank:
        parent = vrank & (vrank - 1)  # clear the lowest set bit
        rounds.append([(False, (parent + root) % size, block)])
    lowest = vrank & -vrank if vrank else size
    mask = 1
    while mask * 2 < size:
        mask <<= 1
    kids = []
    while mask:
        if mask < lowest and (vrank | mask) < size:
            kids.append((True, ((vrank | mask) + root) % size, block))
        mask >>= 1
    if kids:
        rounds.append(kids)
    return rounds


def _fan_out(rank: int, size: int, root: int, block: tuple) -> list:
    """Flat bcast: the root sends to every rank at once."""
    if rank != root:
        return [[(False, root, block)]]
    legs = [(True, r, block) for r in range(size) if r != root]
    return [legs] if legs else []


def _fan_in(
    rank: int, size: int, root: int, send: tuple, recvs, serial: bool
) -> list:
    """Gather: every rank sends its block to the root.  The root posts
    the other sources' receives and then its own block as a self-message
    (isend first — a blocking self-send would rendezvous-deadlock), all
    at once; ``serial`` drains its own block first, then one source per
    round."""
    if rank != root:
        return [[(True, root, send)]]
    own = [(True, root, send), (False, root, recvs[root])]
    others = [(False, s, recvs[s]) for s in range(size) if s != root]
    if serial:
        return [own] + [[leg] for leg in others]
    return [others + own]


def _flat(rank: int, size: int, sends, recvs, drop_empty: bool) -> list:
    """One round: the own block first, then an isend and an irecv per
    peer in ascending order.  ``drop_empty`` leaves out zero-byte legs
    (the own pair only when both of its legs are empty)."""
    own = [(True, rank, sends[rank]), (False, rank, recvs[rank])]
    legs = []
    for peer in range(size):
        if peer != rank:
            legs.append((True, peer, sends[peer]))
            legs.append((False, peer, recvs[peer]))
    if drop_empty:
        if not any(dt.size * n for _b, dt, n in (sends[rank], recvs[rank])):
            own = []
        legs = [leg for leg in legs if leg[2][1].size * leg[2][2]]
    legs = own + legs
    return [legs] if legs else []


def _ordered(rank: int, size: int, sends, recvs, ring: bool) -> list:
    """The own block, then one send/receive round per step ``k``.

    Step ``k`` receives block ``rank - k``: pairwise exchange sends to
    ``rank + k`` and receives from ``rank - k``; the ring forwards the
    block it received in the previous step to its right neighbour.
    Ring steps may share one tag: per-source FIFO ordering matches the
    in-order posted receives.
    """
    rounds = [[(True, rank, sends[rank]), (False, rank, recvs[rank])]]
    for k in range(1, size):
        if ring:
            dst, src = (rank + 1) % size, (rank - 1) % size
            out = recvs[(rank - k + 1) % size]
        else:
            dst, src = (rank + k) % size, (rank - k) % size
            out = sends[dst]
        rounds.append(
            [(True, dst, out), (False, src, recvs[(rank - k) % size])]
        )
    return rounds


# -- executors ----------------------------------------------------------------


def _two_sided(mpi: "RankContext", rounds: list, op: str, seq: int):
    """Post each round's legs in order, then wait for all of them."""
    tag = _op_tag(op, seq)
    isend = mpi.isend
    irecv = mpi.irecv
    for legs in rounds:
        reqs = []
        for send, peer, block in legs:
            post = isend if send else irecv
            reqs.append(post(*block, peer, tag))
        yield reqs[0] if len(reqs) == 1 else mpi.wait_all(*reqs)


def _staged(mpi: "RankContext", rounds: list, op: str, seq: int):
    """Copy-to-host: the rounds run two-sided with every non-empty device
    block of a peer leg swapped for its slot in one packed region.

    Each block object gets one slot per direction, so a block sent to
    several peers packs once.  Send blocks pack into the outbound device
    region and cross PCIe in one D2H; receive blocks land in the inbound
    host region and come back in one H2D before per-block unpacks.  A
    send of a block received in an earlier round (the staged tree's
    forward) travels in its receive slot.  Self legs and host blocks
    keep their buffers and original types, so mixed worlds interoperate.
    """
    proc = mpi.proc
    rank = mpi.rank
    outs: dict = {}  # id(block) -> (block, offset, nbytes), in pack order
    ins: dict = {}  # the same, in unpack order
    forwards = []
    out_total = in_total = 0
    for legs in rounds:
        received = {}
        for send, peer, block in legs:
            buf, dt, count = block
            nb = dt.size * count
            if peer == rank or not nb or not buf.is_device:
                continue
            key = id(block)
            if not send:
                received[key] = (block, in_total, nb)
                in_total += nb
            elif key in ins:
                forwards.append(key)
            elif key not in outs:
                outs[key] = (block, out_total, nb)
                out_total += nb
        ins.update(received)  # forwardable from the next round on
    slots: dict = {}
    if outs:
        dout = proc.acquire_staging("device", max(out_total, 256))
        hout = proc.acquire_staging("host", max(out_total, 256))
        for key, ((buf, dt, count), lo, nb) in outs.items():
            job = proc.engine.pack_job(dt, count, buf, mpi.config.engine)
            yield from job.process_all(dout[lo:lo + nb])
            ptype = _packed_type(dt.signature, count)
            slots[True, key] = (hout[lo:lo + nb], ptype, 1)
        yield proc.gpu.memcpy_d2h(hout[:out_total], dout[:out_total])
    if ins:
        hin = proc.acquire_staging("host", max(in_total, 256))
        din = proc.acquire_staging("device", max(in_total, 256))
        for key, ((_buf, dt, count), lo, nb) in ins.items():
            ptype = _packed_type(dt.signature, count)
            slots[False, key] = (hin[lo:lo + nb], ptype, 1)
        for key in forwards:
            slots[True, key] = slots[False, key]
    if slots:
        rounds = [
            [
                (send, peer, slots.get((send, id(block)), block))
                if peer != rank else (send, peer, block)
                for send, peer, block in legs
            ]
            for legs in rounds
        ]
    yield from _two_sided(mpi, rounds, op, seq)
    if ins:
        yield proc.gpu.memcpy_h2d(din[:in_total], hin[:in_total])
        for (buf, dt, count), lo, nb in ins.values():
            job = proc.engine.unpack_job(dt, count, buf, mpi.config.engine)
            yield from job.process_all(din[lo:lo + nb])
        proc.release_staging("host", hin)
        proc.release_staging("device", din)
    if outs:
        proc.release_staging("device", dout)
        proc.release_staging("host", hout)


_EXECUTORS = {
    CollAlgorithm.PAIRWISE: _two_sided,
    CollAlgorithm.NONBLOCKING: _two_sided,
    CollAlgorithm.STAGED: _staged,
}


def _run(mpi, op, algorithm, is_device, peer_bytes, nbytes, build):
    """Coroutine: run one collective call; returns ``nbytes``.

    Resolves the rung, bumps the op's sequence number (every call, early
    returns included, so all ranks agree on it), counts the call in the
    per-rank ``coll.*`` counters (aggregated by ``WorldStats.coll_ops``),
    builds this rank's schedule with ``build(algo)`` and runs it under
    the rung's executor.  With the verifier installed, waits inside the
    call inherit "<op>#<seq>/<algo>" as their detail, so a hang names
    the exact collective call.
    """
    algo = _resolve_algorithm(mpi, op, algorithm, is_device, peer_bytes)
    proc = mpi.proc
    # getattr, not proc.__dict__: materializing an instance dict slows
    # every later attribute read on the process
    seqs = getattr(proc, "_coll_seq", None)
    if seqs is None:
        seqs = proc._coll_seq = {}
    seq = seqs.get(op, 0)
    seqs[op] = seq + 1
    metrics = proc.metrics
    metrics.counter(f"coll.{op}.{algo.value}").inc()
    metrics.counter(f"coll.{op}.bytes").inc(nbytes)
    rounds = build(algo)
    if not rounds:  # a one-rank bcast moves nothing
        return nbytes
    # the verifier that opened the frame closes it: a stuck call's
    # generator may be closed by the collector after uninstall
    verify = _san.VERIFY
    vkey = None
    if verify is not None:
        vkey = verify.coll_begin(mpi.world, mpi.rank, op, seq, algo.value)
    try:
        yield from _EXECUTORS[algo](mpi, rounds, op, seq)
    finally:
        if vkey is not None:
            verify.coll_end(vkey)
    return nbytes


# -- public operations --------------------------------------------------------


def bcast(
    mpi: "RankContext",
    buf: Buffer,
    dt: Datatype,
    count: int,
    root: int = 0,
    algorithm=None,
):
    """Broadcast ``count`` elements of ``dt`` from ``root`` to every rank.

    Coroutine: use as ``yield from bcast(mpi, ...)``.  Returns the bytes
    moved per rank (``dt.size * count``), uniformly for every world size
    — including 1, so bench sweeps need no special case.
    """
    try:
        dt.commit()
    except AttributeError:
        require_datatypes("bcast", dt=dt)
        raise
    if not (type(count) is type(root) is int):
        require_ints("bcast", count=count, root=root)
    if not 0 <= root < mpi.size:
        raise ValueError(
            f"bcast: root={root} is not a rank of this {mpi.size}-rank world"
        )
    if count < 0:
        raise ValueError(f"bcast: count={count} is negative")
    if type(buf) is not Buffer:
        require_buffers("bcast", buf=buf)
    # the layout's reach, from the cached stream plan (as in isend)
    reach = (dt._plans.get(count) or stream_plan(dt, count)).true_ub
    if reach > buf.nbytes:
        require_fit("bcast", "count", count, "buf", buf, reach)
    nbytes = dt.size * count
    block = (buf, dt, count)

    def build(algo):
        if algo is CollAlgorithm.PAIRWISE or algo is CollAlgorithm.STAGED:
            return _tree(mpi.rank, mpi.size, root, block)
        return _fan_out(mpi.rank, mpi.size, root, block)

    return _run(mpi, "bcast", algorithm, buf.is_device, nbytes, nbytes, build)


def gather(
    mpi: "RankContext",
    sendbuf: Buffer,
    send_dt: Datatype,
    send_count: int,
    recvbufs: Optional[Sequence[Buffer]],
    recv_dt: Optional[Datatype],
    recv_count: Optional[int] = None,
    root: int = 0,
    algorithm=None,
):
    """Gather every rank's block to the root.

    ``recvbufs`` is a per-source list of destination buffers on the root
    (slots of one larger allocation in practice); non-roots pass None.
    ``recv_count`` is required at the root and must be positive — a
    forgotten kwarg used to default to 0 and silently receive nothing.
    Coroutine: ``yield from gather(...)``.  Returns the bytes moved per
    rank (``send_dt.size * send_count``).
    """
    try:
        send_dt.commit()
    except AttributeError:
        require_datatypes("gather", send_dt=send_dt)
        raise
    if not (type(send_count) is type(root) is int):
        require_ints("gather", send_count=send_count, root=root)
    if not 0 <= root < mpi.size:
        raise ValueError(
            f"gather: root={root} is not a rank of this {mpi.size}-rank world"
        )
    if send_count < 0:
        raise ValueError(f"gather: send_count={send_count} is negative")
    if type(sendbuf) is not Buffer:
        require_buffers("gather", sendbuf=sendbuf)
    reach = (send_dt._plans.get(send_count)
             or stream_plan(send_dt, send_count)).true_ub
    if reach > sendbuf.nbytes:
        require_fit("gather", "send_count", send_count, "sendbuf", sendbuf,
                    reach)
    nbytes = send_dt.size * send_count
    recvs = None
    if mpi.rank == root:
        if recvbufs is None or recv_dt is None:
            raise ValueError(
                f"gather: root rank {root} must pass recvbufs and recv_dt"
            )
        if recv_count is not None and type(recv_count) is not int:
            require_ints("gather", recv_count=recv_count)
        if recv_count is None or recv_count <= 0:
            raise ValueError(
                "gather: recv_count must be a positive element count at "
                f"the root, got {recv_count!r}"
            )
        if not hasattr(recvbufs, "__len__"):
            require_lists("gather", recvbufs=recvbufs)
        if len(recvbufs) != mpi.size:
            raise ValueError(
                f"gather: root needs one recv buffer per rank "
                f"({mpi.size}), got {len(recvbufs)}"
            )
        try:
            recv_dt.commit()
        except AttributeError:
            require_datatypes("gather", recv_dt=recv_dt)
            raise
        reach = (recv_dt._plans.get(recv_count)
                 or stream_plan(recv_dt, recv_count)).true_ub
        for i, b in enumerate(recvbufs):
            if type(b) is not Buffer:
                require_buffers("gather", **{f"recvbufs[{i}]": b})
            if reach > b.nbytes:
                require_fit("gather", "recv_count", recv_count,
                            f"recvbufs[{i}]", b, reach)
        recvs = [(b, recv_dt, recv_count) for b in recvbufs]
    send = (sendbuf, send_dt, send_count)

    def build(algo):
        serial = algo is CollAlgorithm.PAIRWISE
        return _fan_in(mpi.rank, mpi.size, root, send, recvs, serial)

    return _run(
        mpi, "gather", algorithm, sendbuf.is_device, nbytes, nbytes, build
    )


def allgather(
    mpi: "RankContext",
    sendbuf: Buffer,
    send_dt: Datatype,
    send_count: int,
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_count: int,
    algorithm=None,
):
    """Gather every rank's block onto every rank.

    ``recvbufs[r]`` receives rank ``r``'s contribution (every rank passes
    its own ``sendbuf`` content via ``recvbufs[rank]`` too).
    Coroutine: ``yield from allgather(...)``.  Returns the bytes moved
    per rank (``send_dt.size * send_count * size``).
    """
    try:
        send_dt.commit()
        recv_dt.commit()
    except AttributeError:
        require_datatypes("allgather", send_dt=send_dt, recv_dt=recv_dt)
        raise
    if not (type(send_count) is type(recv_count) is int):
        require_ints("allgather", send_count=send_count, recv_count=recv_count)
    size = mpi.size
    if type(sendbuf) is not Buffer:
        require_buffers("allgather", sendbuf=sendbuf)
    if not hasattr(recvbufs, "__len__"):
        require_lists("allgather", recvbufs=recvbufs)
    if len(recvbufs) != size:
        raise ValueError(
            f"allgather: one recv buffer per rank ({size}) is "
            f"required, got {len(recvbufs)}"
        )
    if send_count < 0 or recv_count < 0:
        raise ValueError(
            f"allgather: counts must be >= 0, got send_count={send_count}, "
            f"recv_count={recv_count}"
        )
    reach = (send_dt._plans.get(send_count)
             or stream_plan(send_dt, send_count)).true_ub
    if reach > sendbuf.nbytes:
        require_fit("allgather", "send_count", send_count, "sendbuf",
                    sendbuf, reach)
    reach = (recv_dt._plans.get(recv_count)
             or stream_plan(recv_dt, recv_count)).true_ub
    for i, b in enumerate(recvbufs):
        if type(b) is not Buffer:
            require_buffers("allgather", **{f"recvbufs[{i}]": b})
        if reach > b.nbytes:
            require_fit("allgather", "recv_count", recv_count,
                        f"recvbufs[{i}]", b, reach)
    nbytes = send_dt.size * send_count
    # one block object for every peer: the staged rung packs it once
    sends = [(sendbuf, send_dt, send_count)] * size
    recvs = list(zip(recvbufs, repeat(recv_dt), repeat(recv_count)))

    def build(algo):
        if algo is CollAlgorithm.PAIRWISE:
            return _ordered(mpi.rank, size, sends, recvs, ring=True)
        return _flat(mpi.rank, size, sends, recvs, drop_empty=False)

    return _run(
        mpi, "allgather", algorithm, sendbuf.is_device, nbytes,
        nbytes * size, build,
    )


def alltoall(
    mpi: "RankContext",
    sendbufs: Sequence[Buffer],
    send_dt: Datatype,
    send_count: int,
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_count: int,
    algorithm=None,
):
    """Every rank sends a distinct block to every rank (uniform counts).

    ``sendbufs[d]`` is this rank's block for destination ``d``;
    ``recvbufs[s]`` receives source ``s``'s block (``sendbufs[rank]`` /
    ``recvbufs[rank]`` carry the local block through the same engines).
    Coroutine: ``yield from alltoall(...)``.  Returns the bytes moved
    per rank (``send_dt.size * send_count * size``).
    """
    if not (type(send_count) is type(recv_count) is int):
        require_ints("alltoall", send_count=send_count, recv_count=recv_count)
    return _alltoall_common(
        mpi, "alltoall", sendbufs, send_dt, [send_count] * mpi.size,
        recvbufs, recv_dt, [recv_count] * mpi.size, algorithm,
    )


def alltoallv(
    mpi: "RankContext",
    sendbufs: Sequence[Buffer],
    send_dt: Datatype,
    send_counts: Sequence[int],
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_counts: Sequence[int],
    algorithm=None,
):
    """Vector alltoall: per-destination element counts (zeros allowed).

    ``send_counts[d]`` on rank ``i`` must equal ``recv_counts[i]`` on
    rank ``d`` in signature terms, exactly as for matched send/recv
    pairs.  Coroutine: ``yield from alltoallv(...)``.  Returns the bytes
    moved per rank (``send_dt.size * sum(send_counts)``).
    """
    if not (hasattr(send_counts, "__len__") and hasattr(recv_counts, "__len__")):
        require_lists(
            "alltoallv", send_counts=send_counts, recv_counts=recv_counts
        )
    send_counts = list(send_counts)
    recv_counts = list(recv_counts)
    for name, counts in (
        ("send_counts", send_counts), ("recv_counts", recv_counts)
    ):
        for i, c in enumerate(counts):
            if type(c) is not int:
                require_ints("alltoallv", **{f"{name}[{i}]": c})
    return _alltoall_common(
        mpi, "alltoallv", sendbufs, send_dt, send_counts,
        recvbufs, recv_dt, recv_counts, algorithm,
    )


def _alltoall_common(
    mpi, op, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts,
    algorithm,
):
    """Validate one alltoall(v) call and hand it to :func:`_run`.

    The staged rung leaves zero-byte blocks off the wire entirely.
    """
    size = mpi.size
    try:
        send_dt.commit()
        recv_dt.commit()
    except AttributeError:
        require_datatypes(op, send_dt=send_dt, recv_dt=recv_dt)
        raise
    if not (hasattr(sendbufs, "__len__") and hasattr(recvbufs, "__len__")):
        require_lists(op, sendbufs=sendbufs, recvbufs=recvbufs)
    if len(sendbufs) != size or len(recvbufs) != size:
        raise ValueError(
            f"{op}: one send and one recv buffer per rank ({size}) is "
            f"required, got {len(sendbufs)}/{len(recvbufs)}"
        )
    if len(send_counts) != size or len(recv_counts) != size:
        raise ValueError(
            f"{op}: one send and one recv count per rank ({size}) is "
            f"required, got {len(send_counts)}/{len(recv_counts)}"
        )
    if min(send_counts, default=0) < 0 or min(recv_counts, default=0) < 0:
        raise ValueError(f"{op}: counts must be >= 0")
    # a block object per peer, even where the buffers alias
    sends = list(zip(sendbufs, repeat(send_dt), send_counts))
    recvs = list(zip(recvbufs, repeat(recv_dt), recv_counts))
    for side, bufs, dt, counts in (
        ("send", sendbufs, send_dt, send_counts),
        ("recv", recvbufs, recv_dt, recv_counts),
    ):
        plans = dt._plans
        for i, b in enumerate(bufs):
            if type(b) is not Buffer:
                require_buffers(op, **{f"{side}bufs[{i}]": b})
            c = counts[i]
            reach = (plans.get(c) or stream_plan(dt, c)).true_ub
            if reach > b.nbytes:
                require_fit(
                    op,
                    f"{side}_count" if op == "alltoall"
                    else f"{side}_counts[{i}]",
                    c, f"{side}bufs[{i}]", b, reach,
                )
    any_device = False
    for buf, _dt, count in sends + recvs:
        if count and buf.is_device:
            any_device = True
            break

    def build(algo):
        if algo is CollAlgorithm.PAIRWISE:
            return _ordered(mpi.rank, size, sends, recvs, ring=False)
        staged = algo is CollAlgorithm.STAGED
        return _flat(mpi.rank, size, sends, recvs, drop_empty=staged)

    peer_bytes = send_dt.size * max(send_counts, default=0)
    return _run(
        mpi, op, algorithm, any_device, peer_bytes,
        send_dt.size * sum(send_counts), build,
    )
