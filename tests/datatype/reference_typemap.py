"""Frozen span tiling and coalescing — the reference the closed form matches.

This is a verbatim copy of ``tile`` and ``coalesce`` from
:mod:`repro.datatype.typemap` as they stood before a dense tile was built
in closed form: ``tile`` broadcasts one span per copy and hands the result
to ``coalesce``, which sums each run with ``np.add.at``.
``tests/datatype/test_typemap.py`` requires the current functions to
return identical arrays, dtype included, and committed datatypes, send
count typemaps and canonical keys built with these to equal the ones
built with the current code.

Do **not** "improve" this file — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.datatype.typemap import Spans

__all__ = ["coalesce", "tile"]


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
    group = np.cumsum(breaks) - 1
    n_groups = int(group[-1]) + 1
    out_d = d[breaks]
    out_l = np.zeros(n_groups, dtype=np.int64)
    np.add.at(out_l, group, l)
    return Spans(out_d, out_l)


def tile(spans: Spans, count: int, stride_bytes: int) -> Spans:
    """Repeat a span list ``count`` times, offsetting each copy by the stride.

    This is the workhorse for ``contiguous``/``vector``/send-count
    replication: one broadcasted add instead of a Python loop.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0 or spans.count == 0:
        return Spans.empty()
    if count == 1:
        return spans
    offsets = (np.arange(count, dtype=np.int64) * np.int64(stride_bytes))[:, None]
    disps = (spans.disps[None, :] + offsets).reshape(-1)
    lens = np.broadcast_to(spans.lens, (count, spans.count)).reshape(-1)
    return coalesce(Spans(disps, np.ascontiguousarray(lens)))
