"""Datatype-aware collective operations over the point-to-point stack.

"Once constructed and committed, an MPI datatype can be used as an
argument for any point-to-point, collective, I/O, and one-sided
functions" (Section 1).  These collectives demonstrate exactly that: the
GPU datatype engine and protocols underneath are untouched — a broadcast
of a triangular matrix from GPU memory pipelines through the same
CUDA-IPC/copy-in-out machinery as a send.

Every collective accepts an algorithm from the :class:`CollAlgorithm`
ladder (see docs/COLLECTIVES.md), resolved per call from an explicit
``algorithm=`` override, else ``MpiConfig.coll_algorithm``, else the
per-op ``"auto"`` default:

- ``PAIRWISE`` — the classic fixed-schedule two-sided algorithm
  (binomial-tree bcast, serialized linear gather, ring allgather,
  ordered pairwise-exchange alltoall).
- ``NONBLOCKING`` — post every isend/irecv at once and wait.
- ``STAGED`` — copy-to-host: device blocks are engine-packed into a
  device ring, moved with *one* batched D2H, exchanged host-to-host,
  then one batched H2D + per-block unpack.  The per-message GPU costs
  (kernel launches, IPC handshakes) are paid once, which is why it wins
  at small sizes (SNIPPETS.md `copy_to_cpu_alltoall`).
- ``DIRECT`` — one-sided: each rank deposits straight into the peers'
  user buffers via :func:`repro.mpi.rma.one_sided_move` (CUDA-IPC
  scatter kernels intra-node), fenced by barriers.
- ``HIERARCHICAL`` — leader-per-node: local blocks aggregate on one
  rank per simulated node, leaders exchange one packed region per peer
  node, then scatter locally (alltoall family only).

Mixed worlds are fine for the two-sided rungs: ``STAGED`` is a local
decision (the wire carries the same packed signature either way), so a
host-buffer rank interoperates with a device rank that stages.
``DIRECT``/``HIERARCHICAL`` change the message pattern and must be
chosen world-wide (the shared ``MpiConfig`` or the same override).

Tag-space layout: collective traffic lives above ``_COLL_TAG_BASE``
(1 << 20), and every op owns a disjoint ``_COLL_OP_SPAN``-wide
sub-space, indexed by ``_COLL_OP_INDEX``.  Within an op, the per-rank
call sequence number (collectives are invoked in the same order on
every rank, so local counters agree globally) selects a 4-tag phase
block.  Before this layout, ``bcast`` seq *k* and ``gather`` seq *k*
produced the *same* tag, so overlapping collectives could cross-match
fragments — see the regression tests in tests/mpi/test_collectives.py.

Every op returns the documented **bytes moved per rank** — the packed
bytes this rank contributes — uniformly, including world size 1.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datatype.ddt import Datatype, contiguous, struct
from repro.datatype.primitives import BYTE, PREDEFINED
from repro.hw.memory import Buffer
from repro.mpi.rma import one_sided_move
from repro.sanitize import runtime as _san
from repro.sim.core import all_of

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
    DIRECT = "direct"
    HIERARCHICAL = "hierarchical"


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
_COLL_SEQ_SLOTS = 1 << 15
#: tags per call: slot 0 for the flat algorithms, 1..3 for the
#: hierarchical aggregate/exchange/scatter phases
_COLL_PHASES = 4


def _op_tag(op: str, seq: int, phase: int = 0) -> int:
    """The wire tag for phase ``phase`` of call ``seq`` of ``op``."""
    return (
        _COLL_TAG_BASE
        + _COLL_OP_INDEX[op] * _COLL_OP_SPAN
        + (seq % _COLL_SEQ_SLOTS) * _COLL_PHASES
        + phase
    )


def _bump_seq(mpi: "RankContext", op: str) -> int:
    """Per-rank, per-op collective sequence number.

    MPI requires every rank to invoke collectives in the same order, so a
    local counter yields globally agreeing tags without communication.
    """
    proc = mpi.proc
    seqs = getattr(proc, "_coll_seq", None)
    if seqs is None:
        seqs = {}
        proc._coll_seq = seqs
    seq = seqs.get(op, 0)
    seqs[op] = seq + 1
    return seq


def _next_tag(mpi: "RankContext", op: str) -> int:
    """Bump ``op``'s sequence and return the call's phase-0 tag."""
    return _op_tag(op, _bump_seq(mpi, op))


# -- packed wire types --------------------------------------------------------

_PACKED_CACHE: dict[tuple, Datatype] = {}


def _scale_signature(sig: tuple, count: int) -> tuple:
    """The signature of ``count`` consecutive elements of signature ``sig``."""
    if count == 0 or not sig:
        return ()
    if count == 1:
        return sig
    if len(sig) == 1:
        name, c = sig[0]
        return ((name, c * count),)
    return sig * count


def _packed_for_signature(sig: tuple) -> Datatype:
    """A committed *contiguous-layout* datatype with signature ``sig``.

    The staged and hierarchical paths move packed byte streams; sending
    them under this type keeps the PML signature check honest (packed
    send signature == original send signature) while the layout is a
    plain dense run.
    """
    cached = _PACKED_CACHE.get(sig)
    if cached is not None:
        return cached
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
    _PACKED_CACHE[sig] = dtp
    return dtp


def _packed_type(dt: Datatype, count: int) -> Datatype:
    """Packed wire type for ``count`` elements of ``dt``."""
    return _packed_for_signature(_scale_signature(dt.commit().signature, count))


def _parts_signature(parts) -> tuple:
    """Concatenated (and run-coalesced) signature of (dt, count) parts."""
    out: list = []
    for dt, cnt in parts:
        for name, c in _scale_signature(dt.commit().signature, cnt):
            if out and out[-1][0] == name:
                out[-1] = (name, out[-1][1] + c)
            else:
                out.append((name, c))
    return tuple(out)


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
    and takes the nonblocking path otherwise.  It never picks DIRECT or
    HIERARCHICAL: those change the message pattern and must be chosen
    world-wide.  The threshold comes from the staged-vs-direct crossover
    that bench scenario ``coll_crossover`` measures.
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
    if algo is CollAlgorithm.HIERARCHICAL and op not in _A2A_OPS:
        raise ValueError(
            "CollAlgorithm.HIERARCHICAL is implemented for the alltoall "
            f"family; {op} supports pairwise/nonblocking/staged/direct"
        )
    return algo


def _count_call(mpi: "RankContext", op: str, algo: CollAlgorithm, nbytes: int) -> None:
    """Per-rank ``coll.*`` counters (aggregated by WorldStats.coll_ops)."""
    metrics = mpi.proc.metrics
    metrics.counter(f"coll.{op}.{algo.value}").inc()
    metrics.counter(f"coll.{op}.bytes").inc(nbytes)


# -- shared building blocks ---------------------------------------------------


def _pack_into(mpi: "RankContext", buf: Buffer, dt: Datatype, count: int, dst: Buffer):
    """Coroutine: engine-pack ``count`` of ``dt`` from ``buf`` into ``dst``."""
    job = mpi.proc.engine.pack_job(dt, count, buf, mpi.config.engine)
    yield from job.process_all(dst)


def _unpack_from(mpi: "RankContext", buf: Buffer, dt: Datatype, count: int, src: Buffer):
    """Coroutine: engine-unpack ``count`` of ``dt`` into ``buf`` from ``src``."""
    job = mpi.proc.engine.unpack_job(dt, count, buf, mpi.config.engine)
    yield from job.process_all(src)


def _rendezvous_table(mpi: "RankContext", key) -> dict:
    """The world-level out-of-band metadata table for one collective call.

    One-sided and hierarchical algorithms need peer buffer/count
    metadata that two-sided matching would normally carry; ranks deposit
    it here (keyed by (op, seq, ...), which every rank derives
    identically) and a barrier orders deposits before reads.
    """
    return mpi.world._coll_rendezvous.setdefault(key, {})


def _rendezvous_close(mpi: "RankContext", key) -> None:
    """Idempotently drop a finished call's metadata table."""
    mpi.world._coll_rendezvous.pop(key, None)


def _run_moves(mpi: "RankContext", moves):
    """Coroutine: run labelled one-sided move coroutines to completion."""
    procs = [mpi.sim.spawn(coro, label=label) for coro, label in moves]
    if procs:
        yield all_of(mpi.sim, procs, label="coll.direct")


# -- bcast --------------------------------------------------------------------


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
    dt.commit()
    nbytes = dt.size * count
    algo = _resolve_algorithm(mpi, "bcast", algorithm, buf.is_device, nbytes)
    seq = _bump_seq(mpi, "bcast")
    _count_call(mpi, "bcast", algo, nbytes)
    if mpi.size == 1:
        return nbytes
    tag = _op_tag("bcast", seq)
    _vkey = None
    if _san.VERIFY is not None:
        # waits inside the collective inherit "bcast#<seq>/<algo>" as
        # their detail, so a hang names the exact collective call
        _vkey = _san.VERIFY.coll_begin(
            mpi.world, mpi.rank, "bcast", seq, algo.value
        )
    try:
        if algo is CollAlgorithm.STAGED and buf.is_device and nbytes:
            yield from _bcast_staged(mpi, buf, dt, count, root, tag, nbytes)
        elif algo is CollAlgorithm.NONBLOCKING:
            yield from _bcast_flat(mpi, buf, dt, count, root, tag)
        elif algo is CollAlgorithm.DIRECT:
            yield from _bcast_direct(mpi, buf, dt, count, root, seq)
        else:
            yield from _bcast_binomial(mpi, buf, dt, count, root, tag)
    finally:
        if _vkey is not None:
            _san.VERIFY.coll_end(_vkey)
    return nbytes


def _bcast_binomial(mpi, buf, dt, count, root, tag):
    """Binomial tree: receive from parent, forward to children."""
    size = mpi.size
    vrank = (mpi.rank - root) % size
    if vrank != 0:
        parent = vrank & (vrank - 1)  # clear the lowest set bit
        src = (parent + root) % size
        yield mpi.recv(buf, dt, count, source=src, tag=tag)
    # forward to children, highest bit first (Open MPI's binomial order:
    # the farthest subtree starts earliest, giving the log2(P) rounds)
    lowest = vrank & -vrank if vrank else size
    mask = 1
    while mask * 2 < size:
        mask <<= 1
    reqs = []
    while mask:
        if mask < lowest and (vrank | mask) < size:
            child = ((vrank | mask) + root) % size
            reqs.append(mpi.isend(buf, dt, count, dest=child, tag=tag))
        mask >>= 1
    if reqs:
        yield mpi.wait_all(*reqs)


def _bcast_flat(mpi, buf, dt, count, root, tag):
    """Flat nonblocking: the root isends to every rank at once."""
    if mpi.rank == root:
        reqs = [
            mpi.isend(buf, dt, count, dest=r, tag=tag)
            for r in range(mpi.size)
            if r != root
        ]
        if reqs:
            yield mpi.wait_all(*reqs)
    else:
        yield mpi.recv(buf, dt, count, source=root, tag=tag)


def _bcast_staged(mpi, buf, dt, count, root, tag, nbytes):
    """Copy-to-host: one batched PCIe transit, a host-side tree, unpack."""
    proc = mpi.proc
    packed = _packed_type(dt, count)
    dstage = proc.acquire_staging("device", max(nbytes, 256))
    hstage = proc.acquire_staging("host", max(nbytes, 256))
    if mpi.rank == root:
        yield from _pack_into(mpi, buf, dt, count, dstage[:nbytes])
        yield proc.gpu.memcpy_d2h(hstage[:nbytes], dstage[:nbytes])
    yield from _bcast_binomial(mpi, hstage[:nbytes], packed, 1, root, tag)
    if mpi.rank != root:
        yield proc.gpu.memcpy_h2d(dstage[:nbytes], hstage[:nbytes])
        yield from _unpack_from(mpi, buf, dt, count, dstage[:nbytes])
    proc.release_staging("device", dstage)
    proc.release_staging("host", hstage)


def _bcast_direct(mpi, buf, dt, count, root, seq):
    """One-sided: the root puts into every rank's buffer, barrier-fenced."""
    key = ("bcast", seq)
    table = _rendezvous_table(mpi, key)
    table[mpi.rank] = (buf, dt, count)
    yield mpi.barrier()
    if mpi.rank == root:
        moves = []
        for r in range(mpi.size):
            if r == root:
                continue
            tbuf, tdt, tcount = table[r]
            moves.append((
                one_sided_move(
                    mpi.proc, buf, dt, count,
                    mpi.world.procs[r], tbuf, tdt, tcount, "put",
                ),
                f"coll.bcast.put r{root}->r{r}",
            ))
        yield from _run_moves(mpi, moves)
    yield mpi.barrier()
    _rendezvous_close(mpi, key)


# -- gather -------------------------------------------------------------------


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
    send_dt.commit()
    nbytes = send_dt.size * send_count
    algo = _resolve_algorithm(mpi, "gather", algorithm, sendbuf.is_device, nbytes)
    seq = _bump_seq(mpi, "gather")
    _count_call(mpi, "gather", algo, nbytes)
    if mpi.rank == root:
        if recvbufs is None or recv_dt is None:
            raise ValueError(
                f"gather: root rank {root} must pass recvbufs and recv_dt"
            )
        if recv_count is None or recv_count <= 0:
            raise ValueError(
                "gather: recv_count must be a positive element count at "
                f"the root, got {recv_count!r}"
            )
        if len(recvbufs) != mpi.size:
            raise ValueError(
                f"gather: root needs one recv buffer per rank "
                f"({mpi.size}), got {len(recvbufs)}"
            )
        recv_dt.commit()
    tag = _op_tag("gather", seq)
    _vkey = None
    if _san.VERIFY is not None:
        _vkey = _san.VERIFY.coll_begin(
            mpi.world, mpi.rank, "gather", seq, algo.value
        )
    try:
        if algo is CollAlgorithm.DIRECT:
            yield from _gather_direct(
                mpi, sendbuf, send_dt, send_count,
                recvbufs, recv_dt, recv_count, root, seq,
            )
        elif algo is CollAlgorithm.PAIRWISE:
            yield from _gather_serial(
                mpi, sendbuf, send_dt, send_count,
                recvbufs, recv_dt, recv_count, root, tag,
            )
        elif algo is CollAlgorithm.STAGED:
            yield from _gather_staged(
                mpi, sendbuf, send_dt, send_count,
                recvbufs, recv_dt, recv_count, root, tag,
            )
        else:
            yield from _gather_linear(
                mpi, sendbuf, send_dt, send_count,
                recvbufs, recv_dt, recv_count, root, tag,
            )
    finally:
        if _vkey is not None:
            _san.VERIFY.coll_end(_vkey)
    return nbytes


def _gather_linear(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, root, tag
):
    """Linear gather: the root posts every irecv at once."""
    if mpi.rank == root:
        reqs = []
        for src in range(mpi.size):
            if src == root:
                continue
            reqs.append(
                mpi.irecv(recvbufs[src], recv_dt, recv_count, source=src, tag=tag)
            )
        # root's own contribution: a self-message through the engines
        # (isend first — a blocking self-send would rendezvous-deadlock)
        self_req = mpi.isend(sendbuf, send_dt, send_count, dest=root, tag=tag)
        yield mpi.recv(recvbufs[root], recv_dt, recv_count, source=root, tag=tag)
        yield self_req
        if reqs:
            yield mpi.wait_all(*reqs)
    else:
        yield mpi.send(sendbuf, send_dt, send_count, dest=root, tag=tag)


def _gather_serial(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, root, tag
):
    """Serialized linear gather: the root drains sources one at a time."""
    if mpi.rank == root:
        self_req = mpi.isend(sendbuf, send_dt, send_count, dest=root, tag=tag)
        yield mpi.recv(recvbufs[root], recv_dt, recv_count, source=root, tag=tag)
        yield self_req
        for src in range(mpi.size):
            if src == root:
                continue
            yield mpi.recv(recvbufs[src], recv_dt, recv_count, source=src, tag=tag)
    else:
        yield mpi.send(sendbuf, send_dt, send_count, dest=root, tag=tag)


def _gather_staged(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, root, tag
):
    """Copy-to-host gather: sources pack once; the root lands packed
    blocks in host staging and batches one H2D + per-slot unpack."""
    proc = mpi.proc
    size = mpi.size
    nb_out = send_dt.size * send_count
    if mpi.rank != root:
        if sendbuf.is_device and nb_out:
            dstage = proc.acquire_staging("device", max(nb_out, 256))
            hstage = proc.acquire_staging("host", max(nb_out, 256))
            yield from _pack_into(mpi, sendbuf, send_dt, send_count, dstage[:nb_out])
            yield proc.gpu.memcpy_d2h(hstage[:nb_out], dstage[:nb_out])
            yield mpi.send(
                hstage[:nb_out], _packed_type(send_dt, send_count), 1,
                dest=root, tag=tag,
            )
            proc.release_staging("device", dstage)
            proc.release_staging("host", hstage)
        else:
            yield mpi.send(sendbuf, send_dt, send_count, dest=root, tag=tag)
        return
    # root: device slots receive packed bytes into one compact host
    # staging area; host slots (and the root's own block) go direct
    nb_in = recv_dt.size * recv_count
    packed_in = _packed_type(recv_dt, recv_count)
    dev_slots = [
        s for s in range(size)
        if s != root and recvbufs[s].is_device and nb_in
    ]
    offsets = {s: i * nb_in for i, s in enumerate(dev_slots)}
    total = len(dev_slots) * nb_in
    hin = din = None
    if dev_slots:
        hin = proc.acquire_staging("host", max(total, 256))
        din = proc.acquire_staging("device", max(total, 256))
    reqs = []
    for src in range(size):
        if src == root:
            continue
        if src in offsets:
            lo = offsets[src]
            reqs.append(
                mpi.irecv(hin[lo:lo + nb_in], packed_in, 1, source=src, tag=tag)
            )
        else:
            reqs.append(
                mpi.irecv(recvbufs[src], recv_dt, recv_count, source=src, tag=tag)
            )
    self_req = mpi.isend(sendbuf, send_dt, send_count, dest=root, tag=tag)
    yield mpi.recv(recvbufs[root], recv_dt, recv_count, source=root, tag=tag)
    yield self_req
    if reqs:
        yield mpi.wait_all(*reqs)
    if dev_slots:
        yield proc.gpu.memcpy_h2d(din[:total], hin[:total])
        for src in dev_slots:
            lo = offsets[src]
            yield from _unpack_from(
                mpi, recvbufs[src], recv_dt, recv_count, din[lo:lo + nb_in]
            )
        proc.release_staging("host", hin)
        proc.release_staging("device", din)


def _gather_direct(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, root, seq
):
    """One-sided gather: every rank puts into its slot at the root."""
    key = ("gather", seq)
    table = _rendezvous_table(mpi, key)
    if mpi.rank == root:
        table["root"] = (recvbufs, recv_dt, recv_count)
    yield mpi.barrier()
    tbufs, tdt, tcount = table["root"]
    yield from _run_moves(mpi, [(
        one_sided_move(
            mpi.proc, sendbuf, send_dt, send_count,
            mpi.world.procs[root], tbufs[mpi.rank], tdt, tcount, "put",
        ),
        f"coll.gather.put r{mpi.rank}->r{root}",
    )])
    yield mpi.barrier()
    _rendezvous_close(mpi, key)


# -- allgather ----------------------------------------------------------------


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
    send_dt.commit()
    recv_dt.commit()
    nbytes = send_dt.size * send_count
    algo = _resolve_algorithm(mpi, "allgather", algorithm, sendbuf.is_device, nbytes)
    seq = _bump_seq(mpi, "allgather")
    _count_call(mpi, "allgather", algo, nbytes * mpi.size)
    if len(recvbufs) != mpi.size:
        raise ValueError(
            f"allgather: one recv buffer per rank ({mpi.size}) is "
            f"required, got {len(recvbufs)}"
        )
    tag = _op_tag("allgather", seq)
    _vkey = None
    if _san.VERIFY is not None:
        _vkey = _san.VERIFY.coll_begin(
            mpi.world, mpi.rank, "allgather", seq, algo.value
        )
    try:
        if algo is CollAlgorithm.DIRECT:
            yield from _allgather_direct(
                mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt,
                recv_count, seq,
            )
        elif algo is CollAlgorithm.NONBLOCKING:
            yield from _allgather_flat(
                mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt,
                recv_count, tag,
            )
        elif algo is CollAlgorithm.STAGED:
            yield from _allgather_staged(
                mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt,
                recv_count, tag,
            )
        else:
            yield from _allgather_ring(
                mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt,
                recv_count, tag,
            )
    finally:
        if _vkey is not None:
            _san.VERIFY.coll_end(_vkey)
    return nbytes * mpi.size


def _allgather_ring(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, tag
):
    """Ring allgather: N-1 steps, each forwarding the previous block."""
    size = mpi.size
    rank = mpi.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    # seed own block locally, as a self-message through the engines
    # (isend first — a blocking self-send would rendezvous-deadlock)
    self_req = mpi.isend(sendbuf, send_dt, send_count, dest=rank, tag=tag)
    yield mpi.recv(recvbufs[rank], recv_dt, recv_count, source=rank, tag=tag)
    yield self_req
    # ring steps may share one tag: per-source FIFO ordering matches the
    # in-order posted receives
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        reqs = [
            mpi.isend(
                recvbufs[send_block], recv_dt, recv_count, dest=right, tag=tag
            ),
            mpi.irecv(
                recvbufs[recv_block], recv_dt, recv_count, source=left, tag=tag
            ),
        ]
        yield mpi.wait_all(*reqs)


def _allgather_flat(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, tag
):
    """Flat nonblocking: every send and receive in flight at once."""
    rank = mpi.rank
    reqs = [mpi.isend(sendbuf, send_dt, send_count, dest=rank, tag=tag)]
    reqs.append(
        mpi.irecv(recvbufs[rank], recv_dt, recv_count, source=rank, tag=tag)
    )
    for peer in range(mpi.size):
        if peer == rank:
            continue
        reqs.append(mpi.isend(sendbuf, send_dt, send_count, dest=peer, tag=tag))
        reqs.append(
            mpi.irecv(recvbufs[peer], recv_dt, recv_count, source=peer, tag=tag)
        )
    yield mpi.wait_all(*reqs)


def _allgather_staged(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, tag
):
    """Copy-to-host allgather: pack once, one D2H, host exchange, one H2D."""
    proc = mpi.proc
    size = mpi.size
    rank = mpi.rank
    nb_out = send_dt.size * send_count
    nb_in = recv_dt.size * recv_count
    packed_out = _packed_type(send_dt, send_count)
    packed_in = _packed_type(recv_dt, recv_count)
    stage_out = sendbuf.is_device and nb_out and size > 1
    hout = dout = None
    if stage_out:
        dout = proc.acquire_staging("device", max(nb_out, 256))
        hout = proc.acquire_staging("host", max(nb_out, 256))
        yield from _pack_into(mpi, sendbuf, send_dt, send_count, dout[:nb_out])
        yield proc.gpu.memcpy_d2h(hout[:nb_out], dout[:nb_out])
    dev_slots = [
        s for s in range(size)
        if s != rank and recvbufs[s].is_device and nb_in
    ]
    offsets = {s: i * nb_in for i, s in enumerate(dev_slots)}
    total = len(dev_slots) * nb_in
    hin = din = None
    if dev_slots:
        hin = proc.acquire_staging("host", max(total, 256))
        din = proc.acquire_staging("device", max(total, 256))
    # own block: a plain self-message with the original types
    reqs = [mpi.isend(sendbuf, send_dt, send_count, dest=rank, tag=tag)]
    reqs.append(
        mpi.irecv(recvbufs[rank], recv_dt, recv_count, source=rank, tag=tag)
    )
    for peer in range(size):
        if peer == rank:
            continue
        if stage_out:
            reqs.append(mpi.isend(hout[:nb_out], packed_out, 1, dest=peer, tag=tag))
        else:
            reqs.append(
                mpi.isend(sendbuf, send_dt, send_count, dest=peer, tag=tag)
            )
        if peer in offsets:
            lo = offsets[peer]
            reqs.append(
                mpi.irecv(hin[lo:lo + nb_in], packed_in, 1, source=peer, tag=tag)
            )
        else:
            reqs.append(
                mpi.irecv(recvbufs[peer], recv_dt, recv_count, source=peer, tag=tag)
            )
    yield mpi.wait_all(*reqs)
    if dev_slots:
        yield proc.gpu.memcpy_h2d(din[:total], hin[:total])
        for s in dev_slots:
            lo = offsets[s]
            yield from _unpack_from(
                mpi, recvbufs[s], recv_dt, recv_count, din[lo:lo + nb_in]
            )
        proc.release_staging("host", hin)
        proc.release_staging("device", din)
    if stage_out:
        proc.release_staging("device", dout)
        proc.release_staging("host", hout)


def _allgather_direct(
    mpi, sendbuf, send_dt, send_count, recvbufs, recv_dt, recv_count, seq
):
    """One-sided allgather: every rank puts its block into every peer."""
    key = ("allgather", seq)
    table = _rendezvous_table(mpi, key)
    table[mpi.rank] = (recvbufs, recv_dt, recv_count)
    yield mpi.barrier()
    moves = []
    for peer in range(mpi.size):
        tbufs, tdt, tcount = table[peer]
        moves.append((
            one_sided_move(
                mpi.proc, sendbuf, send_dt, send_count,
                mpi.world.procs[peer], tbufs[mpi.rank], tdt, tcount, "put",
            ),
            f"coll.allgather.put r{mpi.rank}->r{peer}",
        ))
    yield from _run_moves(mpi, moves)
    yield mpi.barrier()
    _rendezvous_close(mpi, key)


# -- alltoall / alltoallv -----------------------------------------------------


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
    moved = yield from _alltoall_common(
        mpi, "alltoall", sendbufs, send_dt, [send_count] * mpi.size,
        recvbufs, recv_dt, [recv_count] * mpi.size, algorithm,
    )
    return moved


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
    moved = yield from _alltoall_common(
        mpi, "alltoallv", sendbufs, send_dt, list(send_counts),
        recvbufs, recv_dt, list(recv_counts), algorithm,
    )
    return moved


def _alltoall_common(
    mpi, op, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts,
    algorithm,
):
    """Validate, resolve the algorithm, and dispatch one alltoall call."""
    size = mpi.size
    send_dt.commit()
    recv_dt.commit()
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
    nbytes = send_dt.size * sum(send_counts)
    peer_bytes = send_dt.size * max(send_counts, default=0)
    any_device = bool(
        [d for d in range(size) if sendbufs[d].is_device and send_counts[d]]
        or [s for s in range(size) if recvbufs[s].is_device and recv_counts[s]]
    )
    algo = _resolve_algorithm(mpi, op, algorithm, any_device, peer_bytes)
    seq = _bump_seq(mpi, op)
    _count_call(mpi, op, algo, nbytes)
    tag = _op_tag(op, seq)
    _vkey = None
    if _san.VERIFY is not None:
        _vkey = _san.VERIFY.coll_begin(mpi.world, mpi.rank, op, seq, algo.value)
    try:
        if algo is CollAlgorithm.PAIRWISE:
            yield from _a2av_pairwise(
                mpi, sendbufs, send_dt, send_counts,
                recvbufs, recv_dt, recv_counts, tag,
            )
        elif algo is CollAlgorithm.STAGED:
            yield from _a2av_staged(
                mpi, sendbufs, send_dt, send_counts,
                recvbufs, recv_dt, recv_counts, tag,
            )
        elif algo is CollAlgorithm.DIRECT:
            yield from _a2av_direct(
                mpi, op, sendbufs, send_dt, send_counts,
                recvbufs, recv_dt, recv_counts, seq,
            )
        elif algo is CollAlgorithm.HIERARCHICAL:
            yield from _a2av_hierarchical(
                mpi, op, sendbufs, send_dt, send_counts,
                recvbufs, recv_dt, recv_counts, seq,
            )
        else:
            yield from _a2av_flat(
                mpi, sendbufs, send_dt, send_counts,
                recvbufs, recv_dt, recv_counts, tag,
            )
    finally:
        if _vkey is not None:
            _san.VERIFY.coll_end(_vkey)
    return nbytes


def _a2av_pairwise(
    mpi, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts, tag
):
    """Pairwise exchange: N-1 ordered sendrecv rounds (plus self)."""
    size = mpi.size
    rank = mpi.rank
    self_req = mpi.isend(
        sendbufs[rank], send_dt, send_counts[rank], dest=rank, tag=tag
    )
    yield mpi.recv(
        recvbufs[rank], recv_dt, recv_counts[rank], source=rank, tag=tag
    )
    yield self_req
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        yield mpi.sendrecv(
            sendbufs[dst], send_dt, send_counts[dst], dst,
            recvbufs[src], recv_dt, recv_counts[src],
            source=src, sendtag=tag, recvtag=tag,
        )


def _a2av_flat(
    mpi, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts, tag
):
    """Nonblocking all-at-once: every block in flight simultaneously."""
    size = mpi.size
    rank = mpi.rank
    reqs = [
        mpi.isend(sendbufs[rank], send_dt, send_counts[rank], dest=rank, tag=tag),
        mpi.irecv(recvbufs[rank], recv_dt, recv_counts[rank], source=rank, tag=tag),
    ]
    for peer in range(size):
        if peer == rank:
            continue
        reqs.append(
            mpi.isend(sendbufs[peer], send_dt, send_counts[peer],
                      dest=peer, tag=tag)
        )
        reqs.append(
            mpi.irecv(recvbufs[peer], recv_dt, recv_counts[peer],
                      source=peer, tag=tag)
        )
    yield mpi.wait_all(*reqs)


def _a2av_staged(
    mpi, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts, tag
):
    """Copy-to-host alltoall(v): per-block device packs, ONE batched D2H,
    host-to-host exchange, ONE batched H2D, per-block unpacks.

    Per-message GPU overheads are paid as cheap device-to-device packs;
    the PCIe transits amortize across all peers — the reason this rung
    wins for small blocks (SNIPPETS.md `copy_to_cpu_alltoall[v]`).
    Host-buffer blocks (and the self block) skip staging and ride the
    wire with their original types, so mixed worlds interoperate.
    """
    proc = mpi.proc
    size = mpi.size
    rank = mpi.rank
    out_nb = [send_dt.size * c for c in send_counts]
    in_nb = [recv_dt.size * c for c in recv_counts]
    dev_out = [
        d for d in range(size)
        if d != rank and sendbufs[d].is_device and out_nb[d]
    ]
    dev_in = [
        s for s in range(size)
        if s != rank and recvbufs[s].is_device and in_nb[s]
    ]
    out_off = {}
    off = 0
    for d in dev_out:
        out_off[d] = off
        off += out_nb[d]
    out_total = off
    in_off = {}
    off = 0
    for s in dev_in:
        in_off[s] = off
        off += in_nb[s]
    in_total = off
    hout = dout = hin = din = None
    if dev_out:
        dout = proc.acquire_staging("device", max(out_total, 256))
        hout = proc.acquire_staging("host", max(out_total, 256))
        for d in dev_out:
            lo = out_off[d]
            yield from _pack_into(
                mpi, sendbufs[d], send_dt, send_counts[d],
                dout[lo:lo + out_nb[d]],
            )
        yield proc.gpu.memcpy_d2h(hout[:out_total], dout[:out_total])
    if dev_in:
        hin = proc.acquire_staging("host", max(in_total, 256))
        din = proc.acquire_staging("device", max(in_total, 256))
    reqs = []
    if out_nb[rank] or in_nb[rank]:
        reqs.append(
            mpi.isend(sendbufs[rank], send_dt, send_counts[rank],
                      dest=rank, tag=tag)
        )
        reqs.append(
            mpi.irecv(recvbufs[rank], recv_dt, recv_counts[rank],
                      source=rank, tag=tag)
        )
    for peer in range(size):
        if peer == rank:
            continue
        if out_nb[peer]:
            if peer in out_off:
                lo = out_off[peer]
                reqs.append(mpi.isend(
                    hout[lo:lo + out_nb[peer]],
                    _packed_type(send_dt, send_counts[peer]), 1,
                    dest=peer, tag=tag,
                ))
            else:
                reqs.append(mpi.isend(
                    sendbufs[peer], send_dt, send_counts[peer],
                    dest=peer, tag=tag,
                ))
        if in_nb[peer]:
            if peer in in_off:
                lo = in_off[peer]
                reqs.append(mpi.irecv(
                    hin[lo:lo + in_nb[peer]],
                    _packed_type(recv_dt, recv_counts[peer]), 1,
                    source=peer, tag=tag,
                ))
            else:
                reqs.append(mpi.irecv(
                    recvbufs[peer], recv_dt, recv_counts[peer],
                    source=peer, tag=tag,
                ))
    if reqs:
        yield mpi.wait_all(*reqs)
    if dev_in:
        yield proc.gpu.memcpy_h2d(din[:in_total], hin[:in_total])
        for s in dev_in:
            lo = in_off[s]
            yield from _unpack_from(
                mpi, recvbufs[s], recv_dt, recv_counts[s],
                din[lo:lo + in_nb[s]],
            )
        proc.release_staging("host", hin)
        proc.release_staging("device", din)
    if dev_out:
        proc.release_staging("device", dout)
        proc.release_staging("host", hout)


def _a2av_direct(
    mpi, op, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts, seq
):
    """One-sided alltoall(v): each rank puts straight into its slot in
    every peer's recv buffers, fenced by barriers."""
    key = (op, seq)
    table = _rendezvous_table(mpi, key)
    table[mpi.rank] = (recvbufs, recv_dt, tuple(recv_counts))
    yield mpi.barrier()
    moves = []
    for peer in range(mpi.size):
        tbufs, tdt, tcounts = table[peer]
        if send_counts[peer] == 0 and tcounts[mpi.rank] == 0:
            continue
        moves.append((
            one_sided_move(
                mpi.proc, sendbufs[peer], send_dt, send_counts[peer],
                mpi.world.procs[peer], tbufs[mpi.rank], tdt,
                tcounts[mpi.rank], "put",
            ),
            f"coll.{op}.put r{mpi.rank}->r{peer}",
        ))
    yield from _run_moves(mpi, moves)
    yield mpi.barrier()
    _rendezvous_close(mpi, key)


def _a2av_hierarchical(
    mpi, op, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts, seq
):
    """Leader-per-node alltoall(v) (arXiv 2503.24230's locality ladder).

    Phase 0 (tag slot 1): every rank ships its per-destination blocks to
    its node leader, which lands them packed in one staging region per
    destination node.  Phase 1 (slot 2): leaders exchange exactly one
    aggregated message per peer node — both sides derive the identical
    region layout from the metadata table, so one packed datatype
    describes it.  Phase 2 (slot 3): leaders scatter the per-destination
    blocks to their local ranks.  The metadata table is closed by a
    trailing barrier.
    """
    world = mpi.world
    rank = mpi.rank
    size = mpi.size
    my_node = mpi.node_index
    local = mpi.node_ranks
    leader = local[0]
    t0 = _op_tag(op, seq, 1)
    t1 = _op_tag(op, seq, 2)
    t2 = _op_tag(op, seq, 3)
    key = (op, "hier", seq)
    table = _rendezvous_table(mpi, key)
    table[rank] = (send_dt, tuple(send_counts), recv_dt, tuple(recv_counts))
    yield mpi.barrier()
    node_ids = sorted({world.node_index(r) for r in range(size)})

    def blk_bytes(src: int, dest: int) -> int:
        sdt, scnts = table[src][0], table[src][1]
        return sdt.size * scnts[dest]

    def blk_type(src: int, dest: int) -> Datatype:
        sdt, scnts = table[src][0], table[src][1]
        return _packed_type(sdt, scnts[dest])

    reqs = []
    # phase 0: everyone (leader included, via self-sends) ships blocks up
    for d in range(size):
        if send_counts[d]:
            reqs.append(
                mpi.isend(sendbufs[d], send_dt, send_counts[d],
                          dest=leader, tag=t0)
            )

    regions: dict = {}
    src_block: dict = {}
    if rank == leader:
        proc = mpi.proc
        kind = "device" if mpi.gpu is not None else "host"
        # region layouts, derived identically on every leader from the
        # shared table: outbound regions are (local source-major, peer
        # destination-minor); the inbound region for node n mirrors it
        out_parts: dict = {}
        in_parts: dict = {}
        for n in node_ids:
            off = 0
            parts = []
            for lr in local:
                for d in world.ranks_on_node(n):
                    nb = blk_bytes(lr, d)
                    if nb:
                        src_block[(lr, d)] = ("out", n, off, nb)
                        parts.append((table[lr][0], table[lr][1][d]))
                        off += nb
            out_parts[n] = (parts, off)
            if n != my_node:
                off = 0
                parts = []
                for s in world.ranks_on_node(n):
                    for lr in local:
                        nb = blk_bytes(s, lr)
                        if nb:
                            src_block[(s, lr)] = ("in", n, off, nb)
                            parts.append((table[s][0], table[s][1][lr]))
                            off += nb
                in_parts[n] = (parts, off)
        for n in node_ids:
            if out_parts[n][1]:
                regions[("out", n)] = proc.acquire_staging(
                    kind, max(out_parts[n][1], 256)
                )
            if n != my_node and in_parts[n][1]:
                regions[("in", n)] = proc.acquire_staging(
                    kind, max(in_parts[n][1], 256)
                )
        # phase-0 receives: per source, blocks arrive in destination
        # order (matching the sender's post order pairwise-FIFO)
        recvs0 = []
        for lr in local:
            for d in range(size):
                nb = blk_bytes(lr, d)
                if not nb:
                    continue
                _dirn, n, off, _nb = src_block[(lr, d)]
                recvs0.append(mpi.irecv(
                    regions[("out", n)][off:off + nb], blk_type(lr, d), 1,
                    source=lr, tag=t0,
                ))
        yield mpi.wait_all(*(reqs + recvs0))
        reqs = []
        # phase 1: one aggregated message per peer node, between leaders
        if len(node_ids) > 1:
            reqs1 = []
            for n in node_ids:
                if n == my_node:
                    continue
                peer = world.ranks_on_node(n)[0]
                parts, total = out_parts[n]
                if total:
                    rtype = _packed_for_signature(_parts_signature(parts))
                    reqs1.append(mpi.isend(
                        regions[("out", n)][:total], rtype, 1,
                        dest=peer, tag=t1,
                    ))
                parts, total = in_parts[n]
                if total:
                    rtype = _packed_for_signature(_parts_signature(parts))
                    reqs1.append(mpi.irecv(
                        regions[("in", n)][:total], rtype, 1,
                        source=peer, tag=t1,
                    ))
            if reqs1:
                yield mpi.wait_all(*reqs1)
        # phase 2: scatter each (source, local destination) block down
        for lr in local:
            for s in range(size):
                nb = blk_bytes(s, lr)
                if not nb:
                    continue
                dirn, n, off, _nb = src_block[(s, lr)]
                reqs.append(mpi.isend(
                    regions[(dirn, n)][off:off + nb], blk_type(s, lr), 1,
                    dest=lr, tag=t2,
                ))
    # every rank receives its final blocks from its leader
    for s in range(size):
        if recv_counts[s]:
            reqs.append(mpi.irecv(
                recvbufs[s], recv_dt, recv_counts[s], source=leader, tag=t2
            ))
    if reqs:
        yield mpi.wait_all(*reqs)
    yield mpi.barrier()
    _rendezvous_close(mpi, key)
    if rank == leader:
        kind = "device" if mpi.gpu is not None else "host"
        for region in regions.values():
            mpi.proc.release_staging(kind, region)
