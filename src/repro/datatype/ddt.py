"""Derived datatype constructors and the :class:`Datatype` object.

Mirrors the MPI constructor algebra (MPI-3.1 chapter 4): ``contiguous``,
``vector``/``hvector``, ``indexed``/``hindexed``/``indexed_block``,
``struct``, ``subarray`` and ``resized``.  A datatype must be
:meth:`~Datatype.commit`\\ ted before use; committing flattens the type to
its coalesced span typemap (see :mod:`repro.datatype.typemap`) and
precomputes the properties the engines need — size, extent, signature,
and the uniform-vector description the GPU engine's specialized kernel
consumes when one exists.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from repro.datatype.primitives import Primitive
from repro.datatype.typemap import Spans, coalesce, concat, tile

__all__ = [
    "Datatype",
    "VectorShape",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct",
    "subarray",
    "resized",
    "require_datatypes",
    "require_ints",
    "require_lists",
]

# Per-object identity counter.  INTERNAL to repro.datatype: it is unique
# per constructed object, so keying anything on it defeats structural
# sharing, and its value depends on construction order, so nothing
# user-visible may derive from it (use the canonical key / ``display_id``
# instead; ``repro.sanitize.lint`` rule SAN-L004 enforces this outside
# this package).
_type_ids = itertools.count()


class VectorShape:
    """A uniform-vector description: ``count`` blocks of ``blocklength``
    bytes spaced ``stride`` bytes apart starting at ``first_disp``.

    The GPU engine's specialized vector kernel (Section 3.1) handles any
    datatype reducible to this shape without DEV preparation.
    """

    __slots__ = ("count", "blocklength", "stride", "first_disp")

    def __init__(self, count: int, blocklength: int, stride: int, first_disp: int):
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.first_disp = first_disp

    def __repr__(self) -> str:
        return (
            f"VectorShape(count={self.count}, blocklength={self.blocklength}B, "
            f"stride={self.stride}B, first={self.first_disp})"
        )


class Datatype:
    """An MPI datatype (primitive wrapper or derived)."""

    def __init__(
        self,
        kind: str,
        build_spans: Callable[[], Spans],
        size: int,
        lb: int,
        ub: int,
        signature: tuple[tuple[str, int], ...],
        children: Sequence["Datatype"] = (),
        params: Optional[dict] = None,
    ) -> None:
        self.type_id = next(_type_ids)
        self.kind = kind
        self._build_spans = build_spans
        self.size = int(size)  # payload bytes per element of this type
        self.lb = int(lb)
        self.ub = int(ub)
        self.signature = signature
        self.children = tuple(children)
        self.params = params or {}
        self.committed = False
        self._spans: Optional[Spans] = None
        self._contig: Optional[bool] = None
        #: per-count compiled stream plans (repro.datatype.canonical)
        self._plans: dict = {}

    # -- extent ------------------------------------------------------------
    @property
    def extent(self) -> int:
        return self.ub - self.lb

    @property
    def true_lb(self) -> int:
        return self.spans.true_lb

    @property
    def true_ub(self) -> int:
        return self.spans.true_ub

    @property
    def is_contiguous(self) -> bool:
        """True when one element is a single gap-free span starting at 0."""
        cached = self._contig
        if cached is None:
            s = self.spans
            cached = self._contig = (
                s.count == 1 and int(s.disps[0]) == 0 and int(s.lens[0]) == self.size
            )
        return cached

    # -- commit / typemap ----------------------------------------------------
    def commit(self) -> "Datatype":
        """Flatten and cache the typemap; idempotent, returns self."""
        if not self.committed:
            self._spans = coalesce(self._build_spans())
            if self._spans.size != self.size:
                raise AssertionError(
                    f"{self!r}: typemap size {self._spans.size} != "
                    f"declared size {self.size}"
                )
            self.committed = True
        return self

    @property
    def spans(self) -> Spans:
        if not self.committed:
            raise RuntimeError(f"{self!r} used before commit()")
        assert self._spans is not None
        return self._spans

    def spans_for_count(self, count: int) -> Spans:
        """Typemap of ``count`` consecutive elements (send-count semantics)."""
        return tile(self.spans, count, self.extent)

    # -- uniform-vector detection ------------------------------------------
    def as_vector(self, count: int = 1) -> Optional[VectorShape]:
        """Return the uniform-vector shape of ``count`` elements, if any.

        Delegates to the compiled stream plan
        (:mod:`repro.datatype.canonical`), cached per count — so the
        engines, the convertor and the cache key all agree on one normal
        form.
        """
        from repro.datatype.canonical import stream_plan

        return stream_plan(self, count).vector_shape

    # -- misc -----------------------------------------------------------------
    def granularity(self) -> int:
        """Largest power-of-two byte unit (at most 16) dividing every span
        disp/len.

        The stream plan's unit starts from this granularity; 8 for
        double-based types, smaller for packed char structs.  A power of
        two divides every value exactly when it divides the lowest set
        bit of their bitwise OR (two's complement keeps that true for
        negative displacements), so one OR-reduction replaces a gcd per
        span.
        """
        s = self.spans
        if s.count == 0:
            return 1
        bits = int(np.bitwise_or.reduce(s.disps) | np.bitwise_or.reduce(s.lens))
        return min(16, bits & -bits) if bits else 16

    def signature_primitive_count(self) -> int:
        """Total number of primitive elements in the signature."""
        return sum(c for _, c in self.signature)

    # -- introspection (MPI_Type_get_envelope / get_contents analogues) ----
    def envelope(self) -> tuple[str, dict]:
        """The combiner that built this type and its integer arguments."""
        plain = {
            k: v
            for k, v in self.params.items()
            if isinstance(v, (int, str, list, tuple))
        }
        return self.kind, plain

    def dup(self) -> "Datatype":
        """MPI_Type_dup: an identical committed copy with a fresh id."""
        clone = Datatype(
            kind=self.kind,
            build_spans=self._build_spans,
            size=self.size,
            lb=self.lb,
            ub=self.ub,
            signature=self.signature,
            children=self.children,
            params=dict(self.params),
        )
        if self.committed:
            clone.commit()
        return clone

    def describe(self, indent: int = 0) -> str:
        """Readable constructor tree, for debugging and docs."""
        pad = "  " * indent
        kind, env = self.envelope()
        args = ", ".join(
            f"{k}={v}" for k, v in env.items() if not isinstance(v, (list, tuple))
        )
        head = (
            f"{pad}{kind}({args}) size={self.size}B extent={self.extent}B"
        )
        parts = [head]
        seen = set()
        for child in self.children:
            if child.type_id in seen:
                continue
            seen.add(child.type_id)
            parts.append(child.describe(indent + 1))
        return "\n".join(parts)

    @property
    def display_id(self) -> str:
        """Stable short id derived from the canonical key (not the global
        construction counter, whose value depends on test/run ordering)."""
        from repro.datatype.canonical import display_id

        return display_id(self)

    def __repr__(self) -> str:
        return f"Datatype<{self.kind}@{self.display_id}, size={self.size}B>"


def _detect_vector(spans: Spans) -> Optional[VectorShape]:
    """Detect ``count`` equal blocks on a constant stride."""
    n = spans.count
    if n == 0:
        return None
    lens = spans.lens
    first_len = int(lens[0])
    if n == 1:
        return VectorShape(1, first_len, first_len, int(spans.disps[0]))
    if not bool((lens == first_len).all()):
        return None
    d = spans.disps
    stride = int(d[1] - d[0])
    if stride <= 0:
        return None
    if not bool((d[1:] - d[:-1] == stride).all()):
        return None
    return VectorShape(n, first_len, stride, int(d[0]))


# ---------------------------------------------------------------------------
# signature helpers
# ---------------------------------------------------------------------------


def _sig_primitive(p: Primitive, count: int) -> tuple[tuple[str, int], ...]:
    return ((p.mpi_name, count),)


def _sig_repeat(sig: tuple[tuple[str, int], ...], count: int):
    if count == 0 or not sig:
        return ()
    if len(sig) == 1:
        return ((sig[0][0], sig[0][1] * count),)
    return _sig_normalize(sig * count)


def _sig_normalize(sig) -> tuple[tuple[str, int], ...]:
    out: list[list] = []
    for name, cnt in sig:
        if cnt == 0:
            continue
        if out and out[-1][0] == name:
            out[-1][1] += cnt
        else:
            out.append([name, cnt])
    return tuple((n, c) for n, c in out)


def _as_datatype(t: "Datatype | Primitive") -> Datatype:
    if isinstance(t, Datatype):
        return t
    if isinstance(t, Primitive):
        return _primitive_datatype(t)
    raise TypeError(f"expected Datatype or Primitive, got {type(t).__name__}")


def require_datatypes(call: str, **args) -> None:
    """Raise ``TypeError`` naming ``call`` and the first of ``args`` that
    is not a :class:`Datatype`.  Sends, receives and collectives take
    derived types only; ``contiguous(1, p)`` wraps a primitive ``p``."""
    for name, value in args.items():
        if not isinstance(value, Datatype):
            raise TypeError(
                f"{call}: {name}={value!r} is a {type(value).__name__}, "
                "not a Datatype (wrap a primitive p as contiguous(1, p))"
            )


def require_ints(call: str, **args) -> None:
    """Raise ``TypeError`` naming ``call`` and the first of ``args`` that
    is not an integer: ranks, counts and tags take an ``int`` or a NumPy
    integer.  Callers test ``type(x) is int`` inline and call this only
    when that fails, so the message path runs no extra Python call."""
    for name, value in args.items():
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(
                f"{call}: {name}={value!r} is a {type(value).__name__}, "
                "not an integer"
            ) from None


def require_lists(call: str, **args) -> None:
    """Raise ``TypeError`` naming ``call`` and the first of ``args`` that
    has no length: buffer and count lists take one entry per rank."""
    for name, value in args.items():
        if not hasattr(value, "__len__"):
            raise TypeError(
                f"{call}: {name}={value!r} is a {type(value).__name__}, "
                "not a list"
            )


_PRIM_CACHE: dict[str, Datatype] = {}


def _primitive_datatype(p: Primitive) -> Datatype:
    if p.mpi_name not in _PRIM_CACHE:
        size = p.size

        def build(size=size) -> Spans:
            return Spans(np.zeros(1, dtype=np.int64), np.full(1, size, np.int64))

        dt = Datatype(
            kind=p.mpi_name,
            build_spans=build,
            size=size,
            lb=0,
            ub=size,
            signature=_sig_primitive(p, 1),
            params={"primitive": p},
        )
        dt.commit()
        _PRIM_CACHE[p.mpi_name] = dt
    return _PRIM_CACHE[p.mpi_name]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def contiguous(count: int, base: "Datatype | Primitive") -> Datatype:
    """MPI_Type_contiguous."""
    base = _as_datatype(base)
    if count < 0:
        raise ValueError("count must be >= 0")
    ext = base.extent

    def build() -> Spans:
        return tile(base.commit().spans, count, ext)

    lo = min(0, (count - 1) * ext) if count else 0
    hi = max(0, (count - 1) * ext) if count else 0
    return Datatype(
        kind="contiguous",
        build_spans=build,
        size=base.size * count,
        lb=base.lb + lo,
        ub=(base.ub + hi) if count else base.lb,
        signature=_sig_repeat(base.signature, count),
        children=(base,),
        params={"count": count},
    )


def hvector(count: int, blocklength: int, stride_bytes: int, base) -> Datatype:
    """MPI_Type_create_hvector (stride in bytes)."""
    base = _as_datatype(base)
    if count < 0 or blocklength < 0:
        raise ValueError("count/blocklength must be >= 0")
    block = contiguous(blocklength, base)

    def build() -> Spans:
        return tile(block.commit().spans, count, stride_bytes)

    # lb/ub from the extreme placements of the block (handles negative
    # strides: the last block may sit below the first)
    pos = [i * stride_bytes for i in (0, count - 1)] if count else [0]
    lbs = [p + block.lb for p in pos]
    ubs = [p + block.ub for p in pos]
    return Datatype(
        kind="hvector",
        build_spans=build,
        size=block.size * count,
        lb=min(lbs) if count else 0,
        ub=max(ubs) if count else 0,
        signature=_sig_repeat(block.signature, count),
        children=(base,),
        params={
            "count": count,
            "blocklength": blocklength,
            "stride_bytes": stride_bytes,
        },
    )


def vector(count: int, blocklength: int, stride: int, base) -> Datatype:
    """MPI_Type_vector (stride in elements of ``base``)."""
    base = _as_datatype(base)
    dt = hvector(count, blocklength, stride * base.extent, base)
    dt.params["stride"] = stride
    return dt


def hindexed(
    blocklengths: Sequence[int], displacements_bytes: Sequence[int], base
) -> Datatype:
    """MPI_Type_create_hindexed (displacements in bytes)."""
    base = _as_datatype(base)
    if len(blocklengths) != len(displacements_bytes):
        raise ValueError("blocklengths and displacements differ in length")
    bls = np.asarray(blocklengths, dtype=np.int64)
    disps = np.asarray(displacements_bytes, dtype=np.int64)
    if (bls < 0).any():
        raise ValueError("negative blocklength")
    base.commit()
    ext = base.extent

    def build() -> Spans:
        bspans = base.spans
        # Gap-free single-span base (primitives, contiguous doubles, ...):
        # tiling block i always coalesces to the single span
        # (disps[i] + d0, bls[i] * len0), so the whole typemap is two
        # vectorized expressions.  This is the hot path for the paper's
        # triangular/stair types (one block per column) — the per-block
        # tile+coalesce loop below made building an N=4096 triangular
        # type cost hundreds of milliseconds of CPU DEV-emission walk.
        if bspans.count == 1 and int(bspans.lens[0]) == ext:
            keep = bls > 0
            if not keep.any():
                return Spans.empty()
            return coalesce(
                Spans(
                    disps[keep] + int(bspans.disps[0]),
                    bls[keep] * int(bspans.lens[0]),
                )
            )
        parts = []
        # group identical blocklengths to keep this vectorized per distinct bl
        order = np.arange(len(bls))
        blocks: dict[int, Spans] = {}
        for i in order:
            bl = int(bls[i])
            if bl == 0:
                continue
            if bl not in blocks:
                blocks[bl] = tile(base.spans, bl, ext)
            parts.append(blocks[bl].shift(int(disps[i])))
        return coalesce(concat(parts))

    size = int(bls.sum()) * base.size
    if len(bls):
        lbs = disps + base.lb + np.minimum(0, (bls - 1) * ext)
        ubs = disps + base.ub + np.maximum(0, (bls - 1) * ext)
        nonzero = bls > 0
        lb = int(lbs[nonzero].min()) if nonzero.any() else 0
        ub = int(ubs[nonzero].max()) if nonzero.any() else 0
    else:
        lb = ub = 0
    return Datatype(
        kind="hindexed",
        build_spans=build,
        size=size,
        lb=lb,
        ub=ub,
        signature=_sig_repeat(base.signature, int(bls.sum())),
        children=(base,),
        params={"blocklengths": bls, "displacements_bytes": disps},
    )


def indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], base
) -> Datatype:
    """MPI_Type_indexed (displacements in elements of ``base``)."""
    base = _as_datatype(base)
    disps_b = [d * base.extent for d in displacements]
    dt = hindexed(blocklengths, disps_b, base)
    dt.params["displacements"] = np.asarray(displacements, dtype=np.int64)
    return dt


def indexed_block(
    blocklength: int, displacements: Sequence[int], base
) -> Datatype:
    """MPI_Type_create_indexed_block."""
    return indexed([blocklength] * len(displacements), displacements, base)


def struct(
    blocklengths: Sequence[int],
    displacements_bytes: Sequence[int],
    types: Sequence["Datatype | Primitive"],
) -> Datatype:
    """MPI_Type_create_struct."""
    if not (len(blocklengths) == len(displacements_bytes) == len(types)):
        raise ValueError("struct argument lists differ in length")
    dts = [_as_datatype(t).commit() for t in types]
    bls = [int(b) for b in blocklengths]
    disps = [int(d) for d in displacements_bytes]

    def build() -> Spans:
        parts = []
        for bl, disp, dt in zip(bls, disps, dts):
            if bl == 0:
                continue
            parts.append(tile(dt.spans, bl, dt.extent).shift(disp))
        return coalesce(concat(parts))

    size = sum(bl * dt.size for bl, dt in zip(bls, dts))
    lbs, ubs = [], []
    sig: list[tuple[str, int]] = []
    for bl, disp, dt in zip(bls, disps, dts):
        if bl == 0:
            continue
        lbs.append(disp + dt.lb + min(0, (bl - 1) * dt.extent))
        ubs.append(disp + dt.ub + max(0, (bl - 1) * dt.extent))
        sig.extend(_sig_repeat(dt.signature, bl))
    return Datatype(
        kind="struct",
        build_spans=build,
        size=size,
        lb=min(lbs) if lbs else 0,
        ub=max(ubs) if ubs else 0,
        signature=_sig_normalize(sig),
        children=tuple(dts),
        params={"blocklengths": bls, "displacements_bytes": disps},
    )


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    base,
    order: str = "C",
) -> Datatype:
    """MPI_Type_create_subarray.

    ``order='F'`` (column-major) matches the paper's ScaLAPACK-style
    sub-matrix workloads; the resulting type's extent is the full array,
    as the MPI standard requires.
    """
    base = _as_datatype(base).commit()
    ndim = len(sizes)
    if not (len(subsizes) == len(starts) == ndim):
        raise ValueError("sizes/subsizes/starts differ in length")
    for d in range(ndim):
        if not (0 <= starts[d] and starts[d] + subsizes[d] <= sizes[d]):
            raise ValueError(f"subarray dim {d} out of bounds")
        if subsizes[d] <= 0:
            raise ValueError("subsizes must be positive")
    if order not in ("C", "F"):
        raise ValueError("order must be 'C' or 'F'")

    # dimension order from fastest-varying to slowest
    dims = list(range(ndim - 1, -1, -1)) if order == "C" else list(range(ndim))
    # element strides per dimension (in elements of base)
    strides = {}
    acc = 1
    for d in dims:
        strides[d] = acc
        acc *= sizes[d]
    total_elems = acc

    inner = _as_datatype(base)
    # innermost contiguous run along the fastest dimension
    fast = dims[0]
    dt: Datatype = contiguous(subsizes[fast], inner)
    for d in dims[1:]:
        dt = hvector(subsizes[d], 1, strides[d] * base.extent, dt)
    start_off = sum(starts[d] * strides[d] for d in range(ndim)) * base.extent
    body = dt

    def build() -> Spans:
        return body.commit().spans.shift(start_off)

    sub_elems = 1
    for s in subsizes:
        sub_elems *= s
    out = Datatype(
        kind="subarray",
        build_spans=build,
        size=base.size * sub_elems,
        lb=0,
        ub=total_elems * base.extent,
        signature=_sig_repeat(base.signature, sub_elems),
        children=(base,),
        params={
            "sizes": list(sizes),
            "subsizes": list(subsizes),
            "starts": list(starts),
            "order": order,
        },
    )
    return out


def resized(base, lb: int, extent: int) -> Datatype:
    """MPI_Type_create_resized."""
    base = _as_datatype(base).commit()

    def build() -> Spans:
        return base.spans

    return Datatype(
        kind="resized",
        build_spans=build,
        size=base.size,
        lb=lb,
        ub=lb + extent,
        signature=base.signature,
        children=(base,),
        params={"lb": lb, "extent": extent},
    )
