"""Well-formedness of the collective schedules, without a simulator.

Every shape in :mod:`repro.mpi.collectives` compiles one call into a
per-rank list of rounds of legs ``(send, peer, (buf, dt, count))``.
Across all ranks of a world, a schedule must

* pair up: each (src, dst) has as many send legs as receive legs,
  and the k-th send matches the k-th receive (MPI's non-overtaking
  order) with equal bytes;
* drain under strict rendezvous: a leg completes only once its peer has
  posted the matching leg, and a rank posts its next round only when
  every leg of the current one has completed.
"""

from __future__ import annotations

import pytest

from repro.datatype.ddt import contiguous
from repro.datatype.primitives import DOUBLE
from repro.mpi.collectives import _fan_in, _fan_out, _flat, _ordered, _tree

DT = contiguous(3, DOUBLE).commit()
SIZES = range(1, 9)


def _block(tag, count=1):
    return (tag, DT, count)


def _ragged(size):
    """alltoallv counts with zeros: rank s sends (s + d) % 3 to d."""
    return [[(s + d) % 3 for d in range(size)] for s in range(size)]


def _uniform(size):
    return [[1] * size for _ in range(size)]


def _a2a_blocks(rank, size, counts):
    sends = [_block(("s", rank, d), counts[rank][d]) for d in range(size)]
    recvs = [_block(("r", rank, s), counts[s][rank]) for s in range(size)]
    return sends, recvs


def _allgather_blocks(rank, size):
    return [_block(("s", rank))] * size, [
        _block(("r", rank, s)) for s in range(size)
    ]


def _cases():
    """(label, size, build(rank) -> rounds) for every shape."""
    for size in SIZES:
        for root in range(size):
            yield f"tree root={root}", size, lambda r, s=size, rt=root: _tree(
                r, s, rt, _block("b")
            )
            yield f"fan_out root={root}", size, lambda r, s=size, rt=root: _fan_out(
                r, s, rt, _block("b")
            )
            for serial in (False, True):
                yield f"fan_in root={root} serial={serial}", size, (
                    lambda r, s=size, rt=root, se=serial: _fan_in(
                        r, s, rt, _block(("s", r)),
                        [_block(("r", x)) for x in range(s)] if r == rt else None,
                        se,
                    )
                )
        yield "flat allgather", size, lambda r, s=size: _flat(
            r, s, *_allgather_blocks(r, s), drop_empty=False
        )
        yield "ring", size, lambda r, s=size: _ordered(
            r, s, *_allgather_blocks(r, s), ring=True
        )
        for name, counts in (("uniform", _uniform(size)), ("ragged", _ragged(size))):
            for drop in (False, True):
                yield f"flat {name} drop_empty={drop}", size, (
                    lambda r, s=size, c=counts, d=drop: _flat(
                        r, s, *_a2a_blocks(r, s, c), drop_empty=d
                    )
                )
            yield f"pairwise {name}", size, lambda r, s=size, c=counts: _ordered(
                r, s, *_a2a_blocks(r, s, c), ring=False
            )


CASES = list(_cases())


def _channels(schedules):
    """Send and receive legs per (src, dst), each in post order."""
    sends: dict = {}
    recvs: dict = {}
    for rank, rounds in enumerate(schedules):
        for r, legs in enumerate(rounds):
            for i, (send, peer, (_buf, dt, count)) in enumerate(legs):
                if send:
                    key, table = (rank, peer), sends
                else:
                    key, table = (peer, rank), recvs
                table.setdefault(key, []).append(((rank, r, i), dt.size * count))
    return sends, recvs


def _drains(schedules, sends, recvs) -> bool:
    """Run the rounds under strict rendezvous; True when all finish."""
    partner = {}
    for key, legs in sends.items():
        for (s_at, _nb), (r_at, _nb2) in zip(legs, recvs[key]):
            partner[s_at] = r_at
            partner[r_at] = s_at
    pos = [0] * len(schedules)

    def posted(at) -> bool:
        rank, r, _i = at
        return pos[rank] >= r

    progress = True
    while progress:
        progress = False
        for rank, rounds in enumerate(schedules):
            r = pos[rank]
            if r == len(rounds):
                continue
            if all(posted(partner[(rank, r, i)]) for i in range(len(rounds[r]))):
                pos[rank] = r + 1
                progress = True
    return all(pos[rank] == len(rounds) for rank, rounds in enumerate(schedules))


@pytest.mark.parametrize(
    "label, size, build", CASES, ids=[f"{c[0]} n={c[1]}" for c in CASES]
)
def test_schedule_is_well_formed(label, size, build):
    schedules = [build(rank) for rank in range(size)]
    for rounds in schedules:
        assert all(rounds), "empty rounds must be left out"
    sends, recvs = _channels(schedules)
    assert sends.keys() == recvs.keys()
    for key, legs in sends.items():
        assert len(legs) == len(recvs[key]), key
        for (_s, s_nb), (_r, r_nb) in zip(legs, recvs[key]):
            assert s_nb == r_nb, key
    assert _drains(schedules, sends, recvs)


def test_drain_check_catches_a_head_to_head_wait():
    """Two ranks that each wait for their own send before receiving
    never drain — proof the rendezvous check can fail."""
    legs = [
        [[(True, 1, _block("a"))], [(False, 1, _block("a"))]],
        [[(True, 0, _block("b"))], [(False, 0, _block("b"))]],
    ]
    sends, recvs = _channels(legs)
    assert not _drains(legs, sends, recvs)


def test_cases_cover_every_shape():
    labels = {label.split()[0] for label, _size, _build in CASES}
    assert labels == {"tree", "fan_out", "fan_in", "flat", "ring", "pairwise"}
    assert len(CASES) > 150
