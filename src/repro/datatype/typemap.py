"""Span algebra: the flattened typemap of a derived datatype.

A committed datatype's layout is a sequence of byte *spans* —
``(displacement, length)`` pairs **in pack order** (the order the MPI
typemap defines, which is not necessarily ascending displacement: a struct
may legally visit memory backwards).  Spans are held as a pair of int64
NumPy arrays so constructing the typemap of a million-block type (e.g. the
paper's matrix-transpose datatype, N^2 single-element blocks) is a handful
of vectorized operations rather than a Python loop.

Adjacent-in-order spans that touch in memory are coalesced — the same
normalization Open MPI's datatype optimizer performs, and the reason a
``vector`` with ``stride == blocklength`` behaves exactly like a
``contiguous``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Spans", "coalesce", "concat", "tile"]


@dataclass(frozen=True)
class Spans:
    """Byte spans in pack order.  Immutable; arrays must not be mutated."""

    disps: np.ndarray  # int64 byte displacements
    lens: np.ndarray  # int64 byte lengths, all > 0

    def __post_init__(self) -> None:
        d = np.asarray(self.disps, dtype=np.int64)
        l = np.asarray(self.lens, dtype=np.int64)
        if d.shape != l.shape or d.ndim != 1:
            raise ValueError("disps/lens must be equal-length 1-D arrays")
        object.__setattr__(self, "disps", d)
        object.__setattr__(self, "lens", l)

    # -- basic facts ----------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.disps.size)

    @property
    def size(self) -> int:
        """Total payload bytes."""
        return int(self.lens.sum()) if self.count else 0

    @property
    def true_lb(self) -> int:
        return int(self.disps.min()) if self.count else 0

    @property
    def true_ub(self) -> int:
        return int((self.disps + self.lens).max()) if self.count else 0

    def packed_offsets(self) -> np.ndarray:
        """Packed-stream offset of each span (exclusive prefix sum)."""
        out = np.empty(self.count, dtype=np.int64)
        if self.count:
            np.cumsum(self.lens[:-1], out=out[1:])
            out[0] = 0
        return out

    # -- transforms ------------------------------------------------------
    def shift(self, delta: int) -> "Spans":
        """The same spans displaced by ``delta`` bytes."""
        return Spans(self.disps + int(delta), self.lens)

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(displacement, length)`` tuples in pack order."""
        for d, l in zip(self.disps.tolist(), self.lens.tolist()):
            yield d, l

    def overlaps_self(self) -> bool:
        """True if any two spans touch the same byte (illegal for recv types)."""
        order = np.argsort(self.disps, kind="stable")
        d = self.disps[order]
        e = d + self.lens[order]
        return bool(np.any(d[1:] < e[:-1]))

    @staticmethod
    def empty() -> "Spans":
        z = np.empty(0, dtype=np.int64)
        return Spans(z, z)

    def __repr__(self) -> str:
        return f"Spans(count={self.count}, size={self.size})"


def coalesce(spans: Spans) -> Spans:
    """Merge runs of spans that are consecutive in order *and* in memory."""
    n = spans.count
    if n <= 1:
        return spans
    d, l = spans.disps, spans.lens
    # break before i when span i does not start where span i-1 ended
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    breaks[1:] = d[1:] != d[:-1] + l[:-1]
    if breaks.all():
        return spans
    starts = np.flatnonzero(breaks)
    return Spans(d[starts], np.add.reduceat(l, starts))


def concat(parts: Iterable[Spans]) -> Spans:
    """Concatenate span lists in order, dropping empty parts."""
    parts = [p for p in parts if p.count]
    if not parts:
        return Spans.empty()
    if len(parts) == 1:
        return parts[0]
    return Spans(
        np.concatenate([p.disps for p in parts]),
        np.concatenate([p.lens for p in parts]),
    )


def tile(spans: Spans, count: int, stride_bytes: int) -> Spans:
    """Repeat a span list ``count`` times, offsetting each copy by the stride.

    This is the workhorse for ``contiguous``/``vector``/send-count
    replication: one broadcasted add instead of a Python loop.  A single
    gap-free span tiled at its own length is one longer span, built in
    closed form: committing ``contiguous(n, BYTE)`` costs the same for
    every ``n``, where the broadcast would build ``n`` spans only for
    :func:`coalesce` to merge them again.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0 or spans.count == 0:
        return Spans.empty()
    if count == 1:
        return spans
    if spans.count == 1 and int(spans.lens[0]) == stride_bytes > 0:
        return Spans(spans.disps, spans.lens * np.int64(count))
    offsets = (np.arange(count, dtype=np.int64) * np.int64(stride_bytes))[:, None]
    disps = (spans.disps[None, :] + offsets).reshape(-1)
    lens = np.broadcast_to(spans.lens, (count, spans.count)).reshape(-1)
    return coalesce(Spans(disps, np.ascontiguousarray(lens)))
