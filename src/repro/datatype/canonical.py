"""Canonical datatype IR: a TEMPI-style normal form with compiled pack plans.

Every committed datatype flattens to a coalesced span typemap in pack
order (:mod:`repro.datatype.typemap`).  That typemap — *not* the
constructor tree that produced it — is what pack/unpack behaviour
depends on, so it is the right identity for caching and kernel
selection.  This module canonicalizes ``(datatype, count)`` into a small
normal-form IR (the spirit of TEMPI's "canonical representation of
CUDA-aware datatypes", arXiv 2012.14363) and derives from it

* a **stable, hashable canonical key** — :func:`canonical_key` — used by
  :class:`repro.gpu_engine.cache.DevCache` and the convertor's fast-path
  selection in place of the old identity-based ``type_id`` key, so two
  structurally identical datatypes built separately (two tenants, a
  re-run workload, ``vector`` vs an equivalent ``hindexed``) share
  cached CUDA_DEV descriptors and gather maps instead of silently
  re-paying the first-iteration cost forever (the paper's Fig 6/7
  "cached" argument only works if the cache can actually hit);
* a **menu of compiled pack plans** — :func:`select_cpu_plan` /
  :func:`select_gpu_plan` — chosen by a small byte-cost model
  (:func:`plan_cost`), so contiguous, strided and irregular layouts each
  get their first-class fast path.

Normalization rules (applied by construction — the span algebra performs
them during :meth:`~repro.datatype.ddt.Datatype.commit`, and
:func:`canonicalize` classifies the result):

* **contiguous-collapse** — adjacent-in-order spans that touch in memory
  are merged (``vector`` with ``stride == blocklength`` *is* a
  ``contiguous``); a single gap-free span canonicalizes to ``contig``;
* **vector/hvector unification** — strides are reduced to bytes, so
  ``vector(c, b, s, base)`` and ``hvector(c, b, s * extent, base)`` are
  the same ``vector`` form;
* **hindexed run-merging** — touching ``hindexed``/``indexed`` blocks
  coalesce into maximal runs before classification;
* **struct flattening** — ``struct``/``subarray``/nesting disappear: only
  the flattened pack-order spans matter;
* **resized/dup erasure** — ``resized`` changes only ``lb``/``extent``
  and ``dup`` only identity; for ``count == 1`` both canonicalize
  identically to their base, and for ``count > 1`` the extent enters the
  form only through the tiled span layout it actually produces.

Everything above depends on the layout alone, so it is compiled once per
``(datatype, count)`` into a :class:`StreamPlan` (:func:`stream_plan`)
cached on the datatype object; pack jobs and convertors only bind a plan
to a buffer.  Irregular layouts are keyed by a digest of their span
arrays (BLAKE2b over the little-endian int64 bytes), which is
deterministic across processes and platforms — unlike ``hash()``/``id()``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.datatype.ddt import Datatype, VectorShape, _detect_vector
from repro.datatype.typemap import Spans

__all__ = [
    "CanonicalForm",
    "StreamPlan",
    "stream_plan",
    "canonicalize",
    "canonical_key",
    "display_id",
    "CPU_PLANS",
    "GPU_PLANS",
    "PLAN_MEMCPY",
    "PLAN_STRIDED2D",
    "PLAN_VECTOR_KERNEL",
    "PLAN_GATHER",
    "plan_cost",
    "select_cpu_plan",
    "select_gpu_plan",
    "feasible_gpu_plans",
]

# -- the pack-plan menu -------------------------------------------------------

#: single gap-free block: one memcpy (CPU) / one-row kernel pass (GPU)
PLAN_MEMCPY = "memcpy"
#: 2-D lattice: strided slice copies over one view (cudaMemcpy2D analogue)
PLAN_STRIDED2D = "strided2d"
#: uniform vector on the GPU: the specialized vector pack kernel (Sec 3.1)
PLAN_VECTOR_KERNEL = "vector_kernel"
#: irregular runs: precompiled gather map (CPU) / CUDA_DEV work list (GPU)
PLAN_GATHER = "gather"

#: plans the CPU convertor can execute, in typical cost order; the
#: gather is always feasible (at byte granularity, for any base offset)
CPU_PLANS = (PLAN_MEMCPY, PLAN_STRIDED2D, PLAN_GATHER)
#: plans the GPU datatype engine can execute
GPU_PLANS = (PLAN_MEMCPY, PLAN_VECTOR_KERNEL, PLAN_GATHER)


@dataclass(frozen=True)
class CanonicalForm:
    """Normal form of ``count`` elements of a datatype.

    ``kind`` is one of:

    * ``"empty"``  — zero payload bytes;
    * ``"contig"`` — one gap-free block of ``size`` bytes at ``first_disp``;
    * ``"vector"`` — ``blocks`` equal blocks of ``blocklength`` bytes on a
      constant positive ``stride`` from ``first_disp``;
    * ``"runs"``   — anything else: ``blocks`` maximal coalesced runs,
      identified by a digest of the span arrays.

    ``key`` is the stable, hashable identity two structurally identical
    layouts share — the thing caches and plan selection key on.
    """

    kind: str
    size: int  # total payload bytes
    blocks: int  # number of coalesced runs
    first_disp: int  # displacement of the first block (pack order)
    blocklength: int  # uniform block bytes (contig/vector; 0 for runs)
    stride: int  # bytes between block starts (vector; 0 otherwise)
    key: tuple  # stable hashable identity

    @property
    def vector_shape(self) -> Optional[VectorShape]:
        """The uniform-vector view, for the strided/vector-kernel plans."""
        if self.kind == "contig":
            return VectorShape(1, self.size, self.size, self.first_disp)
        if self.kind == "vector":
            return VectorShape(
                self.blocks, self.blocklength, self.stride, self.first_disp
            )
        return None

    def __repr__(self) -> str:
        return (
            f"CanonicalForm({self.kind}, size={self.size}B, "
            f"blocks={self.blocks})"
        )


def _runs_digest(spans: Spans) -> str:
    """Deterministic digest of the span arrays (platform-independent)."""
    h = hashlib.blake2b(digest_size=12)
    h.update(np.ascontiguousarray(spans.disps, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(spans.lens, dtype="<i8").tobytes())
    return h.hexdigest()


def _classify(spans: Spans) -> CanonicalForm:
    """Classify coalesced pack-order spans into their normal form."""
    n = spans.count
    if n == 0:
        return CanonicalForm("empty", 0, 0, 0, 0, 0, key=("empty",))
    if n == 1:
        length = int(spans.lens[0])
        disp = int(spans.disps[0])
        return CanonicalForm(
            "contig", length, 1, disp, length, 0,
            key=("contig", length, disp),
        )
    shape = _detect_vector(spans)
    if shape is not None:
        return CanonicalForm(
            "vector",
            shape.count * shape.blocklength,
            shape.count,
            shape.first_disp,
            shape.blocklength,
            shape.stride,
            key=(
                "vector",
                shape.count,
                shape.blocklength,
                shape.stride,
                shape.first_disp,
            ),
        )
    return CanonicalForm(
        "runs",
        spans.size,
        n,
        int(spans.disps[0]),
        0,
        0,
        key=("runs", n, spans.size, _runs_digest(spans)),
    )


class Lattice(NamedTuple):
    """``rows`` rows of ``per_row`` one-unit elements, element ``(r, c)`` at
    byte ``first + r * row_stride + c * elem_stride``, none overlapping."""

    rows: int
    per_row: int
    row_stride: int
    elem_stride: int
    first: int


def _lattice(
    form: CanonicalForm, unit: int, spans: Optional[Spans] = None
) -> Optional[Lattice]:
    """The form's lattice, if any: a vector's rows are its blocks; a runs
    form's ``spans``, each one unit wide, must follow the formula."""
    if form.kind == "vector":
        if math.gcd(form.blocklength, form.stride, form.first_disp) % unit:
            return None
        lat = Lattice(form.blocks, form.blocklength // unit, form.stride,
                      unit, form.first_disp)
    elif form.kind == "runs" and spans is not None and (spans.lens == unit).all():
        d = spans.disps
        es = int(d[1] - d[0])
        # a row ends where the element stride first breaks
        breaks = np.flatnonzero(d[2:] - d[1:-1] != es)
        per_row = int(breaks[0]) + 2 if breaks.size else form.blocks
        rs = int(d[per_row % form.blocks] - d[0])
        lat = Lattice(form.blocks // per_row, per_row, rs, es, int(d[0]))
        grid = np.add.outer(np.arange(lat.rows) * rs, np.arange(per_row) * es)
        if not np.array_equal(d, grid.ravel() + lat.first):  # also if ragged
            return None
    else:
        return None
    # elements (r, c) and (r', c') coincide iff (r - r', c' - c) is a
    # nonzero multiple of (elem_stride, row_stride) / g
    g = math.gcd(lat.row_stride, lat.elem_stride)
    if g and (abs(lat.elem_stride) // g >= lat.rows
              or abs(lat.row_stride) // g >= lat.per_row):
        return lat
    return None


def _spans_to_indices(spans: Spans, unit: int) -> np.ndarray:
    """Expand byte spans into per-element user offsets (in units)."""
    if spans.count == 0:
        return np.empty(0, dtype=np.int64)
    counts = spans.lens // unit
    starts = spans.disps // unit
    total = int(counts.sum())
    # idx = repeat(starts) + intra-span ramp
    idx = np.repeat(starts, counts)
    ramp = np.arange(total, dtype=np.int64)
    span_first = np.repeat(np.cumsum(counts) - counts, counts)
    idx += ramp - span_first
    return idx


class StreamPlan:
    """Everything about ``count`` elements of a datatype that depends only
    on the layout, compiled once and shared by every later message.

    The moral equivalent of the paper's cached CUDA_DEV description: it
    never looks at a buffer address, so a convertor or pack job only has
    to bind it to a buffer.  Built by :func:`stream_plan`; treat it as
    immutable (the gather map is filled in on first use).
    """

    __slots__ = (
        "count",
        "spans",
        "unit",
        "true_lb",
        "true_ub",
        "form",
        "vector_shape",
        "lattice",
        "cpu_plan",
        "gpu_plan",
        "_gather",
    )

    def __init__(self, dt: Datatype, count: int) -> None:
        spans = dt.spans_for_count(count)
        unit = dt.granularity()
        if count > 1:
            # element k lives at k * extent, so the unit must divide the
            # extent too (a resized type may have any byte extent)
            unit = math.gcd(unit, abs(dt.extent)) or 1
        form = _classify(spans)
        self.count = count
        #: the tiled, coalesced pack-order spans of the whole stream
        self.spans = spans
        #: byte granularity of the packed stream
        self.unit = unit
        self.true_lb = spans.true_lb
        self.true_ub = spans.true_ub
        self.form = form
        self.vector_shape = form.vector_shape
        #: the 2-D lattice the ``strided2d`` plan moves, if the layout is one
        self.lattice = _lattice(form, unit, spans)
        #: cheapest CPU plan for a unit-aligned base offset
        self.cpu_plan = select_cpu_plan(form, unit, lattice=self.lattice)
        #: cheapest GPU plan when the DEV-path ablation does not pin it
        self.gpu_plan = select_gpu_plan(form)
        self._gather: Optional[np.ndarray] = None

    def gather_map(self) -> np.ndarray:
        """``idx[k]``: user offset (in ``unit`` elements) of the ``k``-th
        packed element.  Built on first use — the memcpy and strided plans
        never need it (for a 4096^2 sub-matrix it is 16M int64 entries)."""
        if self._gather is None:
            self._gather = _spans_to_indices(self.spans, self.unit)
        return self._gather

    def __repr__(self) -> str:
        return (
            f"StreamPlan({self.form!r} x{self.count}, unit={self.unit}, "
            f"cpu={self.cpu_plan}, gpu={self.gpu_plan})"
        )


#: stream plans one datatype keeps; cleared when full.  A steady workload
#: sends a handful of counts per type, but counts redrawn on every call
#: (an alltoallv's) would otherwise keep a plan, gather map included, per
#: count for as long as the type lives.
_PLANS_MAX = 64


def stream_plan(dt: Datatype, count: int = 1) -> StreamPlan:
    """The compiled stream plan of ``count`` elements of ``dt``.

    Cached per ``count`` on the datatype object (at most
    :data:`_PLANS_MAX` counts): the first call walks the tiled spans,
    every later call is a dict lookup.
    """
    plans = dt._plans
    plan = plans.get(count)
    if plan is None:
        dt.commit()
        if len(plans) >= _PLANS_MAX:
            plans.clear()
        plan = plans[count] = StreamPlan(dt, count)
    return plan


def canonicalize(dt: Datatype, count: int = 1) -> CanonicalForm:
    """Normal form of ``count`` elements of a committed datatype."""
    return stream_plan(dt, count).form


def canonical_key(dt: Datatype, count: int, unit_size: int) -> tuple:
    """Stable cache key for ``(datatype, count, S)``.

    Structure-based: any two datatypes whose ``count`` elements flatten
    to the same pack-order layout get the same key, whoever built them
    and however (``vector`` vs ``hindexed`` runs, struct-wrapped,
    resized, dup'ed).  The CUDA_DEV work list depends only on the spans
    and ``S``, so sharing entries across such types is exact, and the
    DEV validator's cache-hit rebuild check cross-verifies it.
    """
    return (canonicalize(dt, count).key, unit_size)


def display_id(dt: Datatype) -> str:
    """Short, stable display id derived from the canonical key.

    Unlike the old ``#<type_id>`` global-counter suffix, this does not
    change with construction order, so reprs embedded in traces, logs
    and bench output diff cleanly across runs and test orderings.
    """
    if not dt.committed:
        return "uncommitted"
    key = canonicalize(dt, 1).key
    h = hashlib.blake2b(repr(key).encode(), digest_size=4)
    return h.hexdigest()


# -- cost model --------------------------------------------------------------
#
# Relative per-byte costs of each plan's inner loop, in arbitrary units.
# Only the ordering matters for selection; the constants encode what the
# paper (and the repo's own benchmarks) measured: one big copy beats
# row-wise strided copies, which beat an element-granular gather.
# Per-block overheads make many-tiny-block layouts prefer the gather map
# once rows get small.

_BYTE_COST = {
    PLAN_MEMCPY: 1.0,
    PLAN_STRIDED2D: 1.2,
    PLAN_VECTOR_KERNEL: 1.2,
    PLAN_GATHER: 4.0,
}
#: fixed per-block overhead (loop iteration / descriptor fetch)
_BLOCK_COST = {
    PLAN_MEMCPY: 0.0,
    PLAN_STRIDED2D: 16.0,
    PLAN_VECTOR_KERNEL: 16.0,
    PLAN_GATHER: 8.0,
}


def plan_cost(form: CanonicalForm, plan: str) -> float:
    """Modelled cost (arbitrary units) of executing ``plan`` on ``form``."""
    return form.size * _BYTE_COST[plan] + form.blocks * _BLOCK_COST[plan]


def select_cpu_plan(
    form: CanonicalForm, unit: int, lattice: Optional[Lattice] = None,
) -> str:
    """Cheapest feasible CPU pack plan for ``form`` at granularity ``unit``
    and a unit-aligned base offset (a convertor whose base is not runs
    the gather at byte granularity).

    A runs form is a ``lattice`` only when the caller found one in its
    spans (:attr:`StreamPlan.lattice`); a vector form is its own.
    """
    feasible = []
    if form.kind == "contig" and math.gcd(form.size, form.first_disp) % unit == 0:
        feasible.append(PLAN_MEMCPY)
    if (lattice or _lattice(form, unit)) is not None:
        feasible.append(PLAN_STRIDED2D)
    feasible.append(PLAN_GATHER)
    return min(feasible, key=lambda p: plan_cost(form, p))


#: GPU gather surcharge per block: CUDA_DEV descriptor emission + upload.
#: The vector/memcpy kernels need no DEV preparation at all (Section 3.1),
#: which is why they win whenever the form admits them.
_GPU_DEV_PREP_COST = 24.0


def feasible_gpu_plans(form: CanonicalForm) -> tuple[str, ...]:
    """Every GPU plan able to execute ``form`` exactly: the menu
    :func:`select_gpu_plan` chooses from by modelled cost.  The empty
    form packs zero bytes — call it a memcpy."""
    if form.kind == "empty":
        return (PLAN_MEMCPY,)
    if form.kind == "contig":
        return (PLAN_GATHER, PLAN_MEMCPY)
    if form.kind == "vector":
        return (PLAN_GATHER, PLAN_VECTOR_KERNEL)
    return (PLAN_GATHER,)


def select_gpu_plan(form: CanonicalForm, force_dev: bool = False) -> str:
    """Cheapest feasible GPU pack plan for ``form``.

    ``force_dev`` pins the generic CUDA_DEV path (the paper's ablation
    knob).
    """
    if force_dev:
        return PLAN_GATHER

    def cost(plan: str) -> float:
        c = plan_cost(form, plan)
        if plan == PLAN_GATHER:
            c += form.blocks * _GPU_DEV_PREP_COST
        return c

    return min(feasible_gpu_plans(form), key=cost)
