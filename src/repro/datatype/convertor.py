"""Pack/unpack convertors: a compiled stream plan bound to one buffer.

Every pack and unpack runs a **compiled pack plan**, chosen once per
(datatype, count) from the canonical IR by its cost model and cached in
the datatype's :class:`~repro.datatype.canonical.StreamPlan`.  A
convertor binds that plan to a user buffer and runs the plan's executor
on every range:

- ``memcpy``    — single gap-free block: one slice copy per range;
- ``strided2d`` — a 2-D lattice (a vector's blocks, a transpose's
  columns): head/body/tail slice copies over one strided (row, element)
  view of the buffer (the CPU counterpart of ``cudaMemcpy2D``);
- ``gather``    — one fancy-index expression over the plan's gather map
  at the stream unit (8 B for double-based types) — the moral equivalent
  of the paper's cached CUDA_DEV list: it depends only on the type's
  *shape*, never on buffer addresses, so it is built once per
  (datatype, count) and reused for every later pack/unpack.

The gather also runs at byte granularity, over the same map expanded to
bytes: for a base offset that is not a multiple of the unit (for every
range), and for a streaming cut off the unit (for that range only).
Every executor is random-access, so ranges may come in any order.  A
memcpy or strided layout reaching past the end of the bound buffer runs
the bounds-checked gather executor instead.  The baselines move their
runs through the same :func:`strided_view`.

Property tests hold every executor to two oracles: a walk over the
typemap spans, and Open MPI's stack machine compiled from the
constructor tree (``tests/datatype/reference_stack.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import bytemove
from repro.datatype.canonical import (
    PLAN_GATHER,
    PLAN_MEMCPY,
    PLAN_STRIDED2D,
    stream_plan,
)
from repro.datatype.ddt import Datatype

__all__ = ["Convertor", "gather_indices", "pack_bytes", "strided_view",
           "unpack_bytes"]


def gather_indices(dt: Datatype, count: int = 1) -> tuple[np.ndarray, int]:
    """Element-granularity gather map for ``count`` elements of ``dt``.

    Returns ``(idx, unit)`` where ``idx[k]`` is the user-buffer offset (in
    ``unit``-byte elements) of the ``k``-th packed element.  Cached in the
    datatype's stream plan.
    """
    plan = stream_plan(dt, count)
    return plan.gather_map(), plan.unit


class Convertor:
    """Fragment-oriented pack/unpack bound to one user buffer.

    The protocols drive this exactly like Open MPI drives
    ``opal_convertor_pack``: ask for the next ``n`` bytes of the packed
    stream (pack), or deliver the next ``n`` bytes (unpack).  Fragment
    boundaries that are multiples of the stream unit run the plan's
    executor; any other cut moves its range through the byte gather.
    """

    def __init__(
        self,
        dt: Datatype,
        count: int,
        user_bytes: np.ndarray,
        direction: str = "pack",
        base_offset: int = 0,
    ) -> None:
        if direction not in ("pack", "unpack"):
            raise ValueError("direction must be 'pack' or 'unpack'")
        sp = stream_plan(dt, count)
        if base_offset + sp.true_lb < 0:
            raise ValueError("datatype reaches below the start of the buffer")
        self.dt = dt
        self.count = count
        self.user = user_bytes
        self.direction = direction
        self.base_offset = base_offset
        #: the compiled (datatype, count) plan this convertor binds
        self.stream_plan = sp
        self.total_bytes = dt.size * count
        self.position = 0
        self._unit = sp.unit
        self._packing = direction == "pack"
        #: buffer-bound views, built on first use by their executor
        self._idx: Optional[np.ndarray] = None
        self._user_elems: Optional[np.ndarray] = None
        self._rows_view: Optional[np.ndarray] = None
        #: the whole layout lies inside the buffer; otherwise only the
        #: bounds-checked gather may touch it (a prefix of a short buffer)
        self._fits = base_offset + sp.true_ub <= len(user_bytes)
        misaligned = base_offset % sp.unit
        plan = sp.cpu_plan
        if misaligned or not self._fits:
            plan = PLAN_GATHER
        #: the CPU pack plan this convertor executes
        self.plan = plan
        # the executor is kept as the plain function: a bound method of
        # self would make every convertor a reference cycle
        if plan == PLAN_MEMCPY:
            self._origin = base_offset + sp.vector_shape.first_disp
            self._exec = Convertor._memcpy
        elif plan == PLAN_STRIDED2D:
            self._exec = Convertor._strided
        elif misaligned:
            # the unit map cannot express a sub-unit shift
            self._exec = Convertor._bytes
        else:
            self._exec = Convertor._gather

    # -- buffer-bound views ------------------------------------------------
    def _elems(self) -> np.ndarray:
        if self._user_elems is None:
            u = self._unit
            usable = len(self.user) // u * u
            self._user_elems = self.user[:usable].view(_unit_dtype(u))
        return self._user_elems

    def _indices(self) -> np.ndarray:
        """User-buffer-absolute gather indices (element granularity)."""
        if self._idx is None:
            idx = self.stream_plan.gather_map()
            if self.base_offset:
                idx = idx + self.base_offset // self._unit
            self._idx = idx
        return self._idx

    def _rows(self) -> np.ndarray:
        """Strided 2-D (row, element) view of the user buffer's lattice."""
        if self._rows_view is None:
            lat = self.stream_plan.lattice
            self._rows_view = strided_view(
                self.user,
                self.base_offset + lat.first,
                (lat.rows, lat.per_row),
                (lat.row_stride, lat.elem_stride),
                self._unit,
            )
        return self._rows_view

    # -- executors: move packed range [lo, hi) to/from ``buf`` --------------
    def _memcpy(self, buf: np.ndarray, lo: int, hi: int) -> None:
        a = self._origin + lo
        if self._packing:
            bytemove.move(buf, self.user[a : a + hi - lo])
        else:
            bytemove.move(self.user[a : a + hi - lo], buf)

    def _strided(self, buf: np.ndarray, lo: int, hi: int) -> None:
        """Every fragment of a lattice decomposes into (head partial row,
        whole rows, tail partial row) — three NumPy slice copies instead
        of a fancy-index gather over every element.  The partial rows are
        at most one row each and move inline; the rest go to the byte
        mover, which tests the whole fragment's size."""
        rows = self._rows()
        epb = rows.shape[1]
        o = buf.view(rows.dtype)
        pack = self._packing
        r0, c0 = divmod(lo // self._unit, epb)
        r1, c1 = divmod(hi // self._unit, epb)
        if r0 == r1:
            if pack:
                bytemove.move(o, rows[r0, c0:c1])
            else:
                bytemove.move(rows[r0, c0:c1], o)
            return
        pos = 0
        if c0:
            n0 = epb - c0
            if pack:
                o[:n0] = rows[r0, c0:]
            else:
                rows[r0, c0:] = o[:n0]
            pos = n0
            r0 += 1
        nmid = r1 - r0
        if nmid > 0:
            mid = o[pos : pos + nmid * epb].reshape(nmid, epb)
            if pack:
                bytemove.move(mid, rows[r0:r1], hi - lo)
            else:
                bytemove.move(rows[r0:r1], mid, hi - lo)
            pos += nmid * epb
        if c1:
            if pack:
                o[pos : pos + c1] = rows[r1, :c1]
            else:
                rows[r1, :c1] = o[pos : pos + c1]

    def _gather(self, buf: np.ndarray, lo: int, hi: int) -> None:
        u = self._unit
        idx = self._indices()[lo // u : hi // u]
        if self._packing:
            # straight into ``buf``; unchecked ("clip") only when every
            # index is known to lie inside the buffer
            bytemove.take(
                self._elems(), idx, buf.view(_unit_dtype(u)),
                "clip" if self._fits else "raise",
            )
        else:
            bytemove.scatter(
                self._elems(), idx, buf.view(_unit_dtype(u)),
                self.stream_plan.increasing,
            )

    def _bytes(self, buf: np.ndarray, lo: int, hi: int) -> None:
        """The gather at byte granularity: the unit map's slice covering
        [lo, hi), expanded to byte offsets and trimmed to the range."""
        u = self._unit
        idx = self.stream_plan.gather_map()[lo // u : -(-hi // u)]
        idx = np.add.outer(idx * u, np.arange(u)).ravel()[lo % u :][: hi - lo]
        idx += self.base_offset
        if self._packing:
            self.user.take(idx, out=buf, mode="clip" if self._fits else "raise")
        else:
            self.user[idx] = buf

    # -- API ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.position >= self.total_bytes

    def _next(self, buf: np.ndarray, max_bytes: Optional[int]) -> int:
        """Move the next bytes of the stream to/from ``buf``; returns count."""
        n = min(
            self.total_bytes - self.position,
            len(buf) if max_bytes is None else min(max_bytes, len(buf)),
        )
        if n <= 0:
            return 0
        lo, hi = self.position, self.position + n
        u = self._unit
        if lo % u or hi % u:
            # a cut off the stream unit: this range alone moves bytewise
            Convertor._bytes(self, buf[:n], lo, hi)
        else:
            self._exec(self, buf[:n], lo, hi)
        self.position = hi
        return n

    def pack(self, out: np.ndarray, max_bytes: Optional[int] = None) -> int:
        """Produce the next packed bytes into ``out``; returns count."""
        if not self._packing:
            raise RuntimeError("convertor was created for unpack")
        return self._next(out, max_bytes)

    def unpack(self, data: np.ndarray, max_bytes: Optional[int] = None) -> int:
        """Consume the next packed bytes from ``data``; returns count."""
        if self._packing:
            raise RuntimeError("convertor was created for pack")
        return self._next(data, max_bytes)

    def _range(self, buf: np.ndarray, lo: int, hi: int, what: str) -> None:
        u = self._unit
        if lo % u or hi % u:
            raise ValueError(f"{what} requires granularity-aligned bounds")
        if lo == hi:
            return
        self._exec(self, buf[: hi - lo], lo, hi)

    def pack_range(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Random-access pack of packed-stream range [lo, hi) (aligned)."""
        self._range(out, lo, hi, "pack_range")

    def unpack_range(self, data: np.ndarray, lo: int, hi: int) -> None:
        """Random-access unpack of packed-stream range [lo, hi) (aligned)."""
        self._range(data, lo, hi, "unpack_range")


_UNIT_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _unit_dtype(u: int):
    dt = _UNIT_DTYPES.get(u)
    if dt is None:
        # non-power-of-two granularity: fall back to byte records
        return np.dtype((np.void, u))
    return dt


def strided_view(buf: np.ndarray, offset: int, shape, strides, unit: int):
    """``shape`` view of ``unit``-byte elements of ``buf``, the first at byte
    ``offset``, each axis stepping ``strides`` bytes (either sign).  NumPy
    checks the extent: one reaching outside ``buf`` raises ``ValueError``."""
    return np.ndarray(
        shape, _unit_dtype(unit), buffer=buf, offset=offset, strides=strides
    )


def pack_bytes(dt: Datatype, count: int, user_bytes: np.ndarray) -> np.ndarray:
    """One-shot pack of ``count`` elements; returns the packed stream."""
    conv = Convertor(dt, count, user_bytes, "pack")
    out = np.empty(conv.total_bytes, dtype=np.uint8)
    conv.pack(out)
    return out


def unpack_bytes(
    dt: Datatype, count: int, user_bytes: np.ndarray, packed: np.ndarray
) -> None:
    """One-shot unpack of a packed stream into the user layout."""
    conv = Convertor(dt, count, user_bytes, "unpack")
    n = conv.unpack(packed)
    if n != conv.total_bytes:
        raise ValueError(
            f"packed stream holds {len(packed)} bytes; type needs "
            f"{conv.total_bytes}"
        )
