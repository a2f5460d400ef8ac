"""Frozen stack machine — the pack oracle compiled from the constructor tree.

This is a verbatim copy of ``repro.datatype.stack`` as it stood when the
convertor stopped running it: every pack and unpack now runs a compiled
plan (memcpy, strided2d or gather) built from the type's flattened
spans.  ``reference_pack`` (``tests/datatype/strategies.py``) walks
those same spans, so it cannot see a bug in them; this program is
compiled from the constructor tree instead, so it can.
``tests/datatype/test_stack.py`` pins the machine itself, and the
convertor tests require every plan to move exactly its bytes.

Do **not** "improve" this file — its value is that it does not change.
A new constructor kind gets its own ``_compile`` case; the existing
cases stay as they are.

The stack-based datatype representation and pack/unpack state machine.

This is a faithful reduction of Open MPI's ``opal_convertor``: a datatype
compiles to a linear *program* of descriptors —

* ``ElemDesc(count, blocklen, extent, disp)``: ``count`` contiguous blocks
  of ``blocklen`` bytes, consecutive blocks ``extent`` bytes apart,
  starting ``disp`` bytes from the enclosing frame's base;
* ``LoopDesc(loops, extent, items, disp)`` … ``EndLoopDesc``: repeat the
  enclosed ``items`` descriptors ``loops`` times, advancing the frame base
  by ``extent`` per iteration.

The :class:`StackMachine` walks the program with an explicit stack of
loop frames and can *pause at any byte position* and resume later — the
property Open MPI's fragmentation pipeline depends on, and the one the
paper's CPU stage exploits when it "converts only a part of the datatype"
to overlap DEV preparation with GPU kernels (Section 3.2).

The paper notes that porting this stack walk directly to the GPU
"generates too many conditional operations, which are not GPU friendly" —
hence the two-stage design reproduced in :mod:`repro.gpu_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.datatype.ddt import Datatype

__all__ = ["ElemDesc", "LoopDesc", "EndLoopDesc", "compile_datatype", "StackMachine"]


@dataclass(frozen=True)
class ElemDesc:
    count: int  # number of blocks
    blocklen: int  # bytes per block
    extent: int  # byte distance between successive block starts
    disp: int  # byte offset from the enclosing frame base


@dataclass(frozen=True)
class LoopDesc:
    loops: int  # iterations
    extent: int  # frame-base advance per iteration
    items: int  # number of descriptors in the body (excl. EndLoop)
    disp: int  # body base offset for the first iteration


@dataclass(frozen=True)
class EndLoopDesc:
    items: int


Desc = Union[ElemDesc, LoopDesc, EndLoopDesc]


def compile_datatype(dt: Datatype, count: int = 1) -> list[Desc]:
    """Compile ``count`` elements of ``dt`` into a descriptor program."""
    dt.commit()
    body = _compile(dt)
    if count != 1:
        body = _loop(count, dt.extent, body)
    return body


def _loop(loops: int, extent: int, body: list[Desc], disp: int = 0) -> list[Desc]:
    if loops == 1 and disp == 0:
        return body
    # single-ELEM body folds into the ELEM itself when shapes allow
    if len(body) == 1 and isinstance(body[0], ElemDesc):
        e = body[0]
        if e.count == 1:
            return [ElemDesc(loops, e.blocklen, extent, disp + e.disp)]
        if e.count * e.extent == extent or loops == 1:
            pass  # falls through to generic loop
    return [LoopDesc(loops, extent, len(body), disp), *body, EndLoopDesc(len(body))]


def _compile(dt: Datatype) -> list[Desc]:
    kind = dt.kind
    if kind.startswith("MPI_"):
        return [ElemDesc(1, dt.size, dt.size, 0)]
    if kind == "contiguous":
        base = dt.children[0]
        n = dt.params["count"]
        if n == 0:
            return []
        inner = _compile(base)
        if len(inner) == 1 and isinstance(inner[0], ElemDesc):
            e = inner[0]
            # gap-free base: fold the repetition into a longer block
            if e.count == 1 and e.blocklen == base.extent and e.disp == 0:
                return [ElemDesc(1, e.blocklen * n, e.blocklen * n, 0)]
            # strided base: fold into a block run
            if e.count == 1:
                return [ElemDesc(n, e.blocklen, base.extent, e.disp)]
        return _loop(n, base.extent, inner)
    if kind == "hvector":
        base = dt.children[0]
        n = dt.params["count"]
        bl = dt.params["blocklength"]
        stride = dt.params["stride_bytes"]
        if n == 0 or bl == 0:
            return []
        inner = _compile(base)
        if len(inner) == 1 and isinstance(inner[0], ElemDesc):
            e = inner[0]
            if e.count == 1 and e.blocklen == base.extent and e.disp == 0:
                # classic vector of a contiguous base
                return [ElemDesc(n, e.blocklen * bl, stride, 0)]
        block = _loop(bl, base.extent, inner)
        return _loop(n, stride, block)
    if kind == "hindexed":
        base = dt.children[0]
        bls = dt.params["blocklengths"]
        disps = dt.params["displacements_bytes"]
        inner = _compile(base)
        out: list[Desc] = []
        simple = (
            len(inner) == 1
            and isinstance(inner[0], ElemDesc)
            and inner[0].count == 1
            and inner[0].blocklen == base.extent
            and inner[0].disp == 0
        )
        for bl, disp in zip(bls.tolist(), disps.tolist()):
            if bl == 0:
                continue
            if simple:
                out.append(ElemDesc(1, base.extent * bl, base.extent * bl, disp))
            else:
                out.extend(_loop(bl, base.extent, inner, disp=disp))
        return out
    if kind == "struct":
        out = []
        for bl, disp, child in zip(
            dt.params["blocklengths"], dt.params["displacements_bytes"], dt.children
        ):
            if bl == 0:
                continue
            inner = _compile(child)
            out.extend(_loop(bl, child.extent, inner, disp=disp))
        return out
    if kind == "resized":
        return _compile(dt.children[0])
    if kind == "subarray":
        # recompile from the recorded geometry (the body was built from
        # nested hvectors at construction time)
        base = dt.children[0]
        sizes = dt.params["sizes"]
        subsizes = dt.params["subsizes"]
        starts = dt.params["starts"]
        order = dt.params["order"]
        ndim = len(sizes)
        dims = list(range(ndim - 1, -1, -1)) if order == "C" else list(range(ndim))
        strides = {}
        acc = 1
        for d in dims:
            strides[d] = acc
            acc *= sizes[d]
        inner = _compile(base)
        prog: list[Desc]
        if (
            len(inner) == 1
            and isinstance(inner[0], ElemDesc)
            and inner[0].blocklen == base.extent
            and inner[0].disp == 0
        ):
            prog = [
                ElemDesc(
                    1,
                    base.extent * subsizes[dims[0]],
                    base.extent * subsizes[dims[0]],
                    0,
                )
            ]
        else:
            prog = _loop(subsizes[dims[0]], base.extent, inner)
        for d in dims[1:]:
            prog = _loop(subsizes[d], strides[d] * base.extent, prog)
        start_off = sum(starts[d] * strides[d] for d in range(ndim)) * base.extent
        if start_off:
            prog = _loop(1, 0, prog, disp=start_off)
        return prog
    raise NotImplementedError(f"cannot compile datatype kind {kind!r}")


@dataclass
class _Frame:
    pc: int  # index of the LoopDesc
    remaining: int
    base: int  # frame base displacement


class StackMachine:
    """Resumable pack/unpack over a compiled descriptor program.

    ``direction='pack'`` gathers from the described layout into a
    contiguous stream; ``'unpack'`` scatters a contiguous stream back.
    """

    def __init__(
        self,
        program: list[Desc],
        user_bytes: np.ndarray,
        direction: str = "pack",
        base_disp: int = 0,
    ) -> None:
        if direction not in ("pack", "unpack"):
            raise ValueError("direction must be 'pack' or 'unpack'")
        self.program = program
        self.user = user_bytes
        self.direction = direction
        self.base = base_disp
        # execution state
        self.pc = 0
        self.stack: list[_Frame] = []
        self.frame_base = base_disp
        self.block_i = 0  # progress within the current ElemDesc
        self.block_off = 0
        self.bytes_done = 0
        self.finished = not program

    def advance(self, stream: np.ndarray, max_bytes: Optional[int] = None) -> int:
        """Pack into / unpack from ``stream``; returns bytes processed.

        Stops when ``max_bytes`` is reached or the program completes.
        ``stream`` must hold the *next* fragment only — its offset in the
        packed message is implicit in the machine's progress.
        """
        if self.finished:
            return 0
        budget = len(stream) if max_bytes is None else min(max_bytes, len(stream))
        out_pos = 0
        user = self.user
        pack = self.direction == "pack"
        # keep walking zero-cost descriptors (loop bookkeeping) even once
        # the byte budget is exhausted, so an exact-size advance finishes
        while not self.finished:
            desc = self.program[self.pc]
            if isinstance(desc, ElemDesc):
                if budget <= 0 and self.block_i < desc.count:
                    break
                start = self.frame_base + desc.disp
                while self.block_i < desc.count and budget > 0:
                    src0 = start + self.block_i * desc.extent + self.block_off
                    n = min(desc.blocklen - self.block_off, budget)
                    if pack:
                        stream[out_pos : out_pos + n] = user[src0 : src0 + n]
                    else:
                        user[src0 : src0 + n] = stream[out_pos : out_pos + n]
                    out_pos += n
                    budget -= n
                    self.block_off += n
                    if self.block_off == desc.blocklen:
                        self.block_off = 0
                        self.block_i += 1
                if self.block_i == desc.count:
                    self.block_i = 0
                    self._next()
            elif isinstance(desc, LoopDesc):
                if desc.loops == 0:
                    self.pc += desc.items + 2  # skip body and EndLoop
                    self._check_done()
                else:
                    self.stack.append(
                        _Frame(self.pc, desc.loops, self.frame_base)
                    )
                    self.frame_base += desc.disp
                    self.pc += 1
            elif isinstance(desc, EndLoopDesc):
                frame = self.stack[-1]
                frame.remaining -= 1
                if frame.remaining > 0:
                    loop = self.program[frame.pc]
                    assert isinstance(loop, LoopDesc)
                    self.frame_base += loop.extent
                    self.pc = frame.pc + 1
                else:
                    self.stack.pop()
                    loop = self.program[frame.pc]
                    assert isinstance(loop, LoopDesc)
                    self.frame_base = frame.base
                    self._next()
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown descriptor {desc!r}")
        self.bytes_done += out_pos
        return out_pos

    def _next(self) -> None:
        self.pc += 1
        self._check_done()

    def _check_done(self) -> None:
        # unwind: if pc runs past the program with an empty stack, finish;
        # inside a loop the EndLoop descriptor handles continuation.
        if self.pc >= len(self.program) and not self.stack:
            self.finished = True
