"""The host byte mover: large copies on the message path use two cores.

The simulator moves real bytes, and on a large non-contiguous transfer
those copies are most of its wall time (docs/SIM_PERF.md).  NumPy
releases the interpreter lock inside slice copies, ``take`` and fancy
assignment, so a second thread can move half of a large copy while the
calling thread moves the other half.  Every bulk copy on the message
path goes through one of three entry points, each equal byte for byte
to the NumPy statement it stands for:

- :func:`move`    — ``dst[...] = src``;
- :func:`take`    — ``src.take(idx, out=out, mode=mode)``;
- :func:`scatter` — ``dst[idx] = src``.

A call splits when the process may run on at least two CPUs, the move
is at least :data:`SPLIT_BYTES`, and its two halves write disjoint bytes
that together equal the inline result:

- the destination cannot overlap a source (``np.may_share_memory``);
- a ``take`` runs in its in-bounds ``clip`` mode (``raise`` mode must
  fail before any byte moves);
- a scatter's index map is strictly increasing (the caller's fact,
  decided once per stream plan) and lies inside the destination.

Any other call runs the NumPy statement inline, with its result and its
error.  A split cuts the move in two along its first axis, queues the
second half to one helper thread, moves the first half itself and
returns only when both halves have ended, re-raising an exception from
either.  The helper is a daemon thread started under a lock at the
first split, never at import; a forked child starts its own.

Nothing here reads or advances simulated time, and callers record
their sanitizer hooks before they call, on their own thread: the split
changes wall time only.  This is the one module of the package that
may start a thread (lint rule ``SAN-L007``).
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Optional

import numpy as np

__all__ = ["CPUS", "SPLIT_BYTES", "move", "scatter", "take"]

#: the smallest move that splits.  Below it the hand-off to the helper
#: costs more than the second core saves when the bytes are hot in
#: cache: a 512 KiB copy took 15.1 us inline and 31.2 us split
#: (docs/SIM_PERF.md, "Large byte moves use two cores")
SPLIT_BYTES = 1 << 20


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


#: CPUs this process may run on, read once at import; with one, no move
#: splits and the helper never starts
CPUS = _available_cpus()

_start_lock = threading.Lock()
#: the helper's job queue; None until the first split
_jobs: Optional[queue.SimpleQueue] = None


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread: run each queued half, then post its outcome."""
    while True:
        fn, args, reply = jobs.get()
        try:
            fn(*args)
        except BaseException as exc:  # re-raised by the waiting caller
            reply.put(exc)
        else:
            reply.put(None)


def _helper() -> queue.SimpleQueue:
    """The helper's job queue, starting the helper on first use."""
    global _jobs
    with _start_lock:
        if _jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(jobs,), name="repro-bytemove",
                daemon=True,
            ).start()
            _jobs = jobs
    return _jobs


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist here,
    and the start lock may have been held at the fork."""
    global _jobs, _start_lock
    _jobs = None
    _start_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _split(fn, mine: tuple, theirs: tuple) -> None:
    """``fn(*mine)`` here and ``fn(*theirs)`` on the helper; return when
    both have ended.  The caller's own exception wins over the helper's."""
    jobs = _jobs
    if jobs is None:
        jobs = _helper()
    reply: queue.SimpleQueue = queue.SimpleQueue()
    jobs.put((fn, theirs, reply))
    try:
        fn(*mine)
    finally:
        # the helper's half may still be writing: wait for it either way
        err = reply.get()
    if err is not None:
        raise err


def _assign(dst: np.ndarray, src: np.ndarray) -> None:
    dst[...] = src


def _take_clip(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    src.take(idx, out=out, mode="clip")


def _scatter(dst: np.ndarray, idx: np.ndarray, src: np.ndarray) -> None:
    dst[idx] = src


def move(dst: np.ndarray, src: np.ndarray, nbytes: Optional[int] = None) -> None:
    """``dst[...] = src``.

    ``nbytes`` is the size the split test reads, by default
    ``dst.nbytes``; a strided executor passes its whole fragment's, so
    the rows between a fragment's partial head and tail split as the
    fragment does.  ``dst`` must not overlap itself, which no writable
    view of a buffer or of a non-overlapping lattice does.
    """
    if (
        (dst.nbytes if nbytes is None else nbytes) < SPLIT_BYTES
        or CPUS < 2
        or dst.shape != src.shape
        or np.may_share_memory(dst, src)
    ):
        dst[...] = src
        return
    h = len(dst) // 2
    _split(_assign, (dst[:h], src[:h]), (dst[h:], src[h:]))


def take(
    src: np.ndarray, idx: np.ndarray, out: np.ndarray, mode: str = "raise"
) -> None:
    """``src.take(idx, out=out, mode=mode)``: the gather of a pack."""
    if (
        mode != "clip"
        or out.nbytes < SPLIT_BYTES
        or CPUS < 2
        or idx.shape != out.shape
        or np.may_share_memory(out, src)
        or np.may_share_memory(out, idx)
    ):
        src.take(idx, out=out, mode=mode)
        return
    h = len(out) // 2
    _split(_take_clip, (src, idx[:h], out[:h]), (src, idx[h:], out[h:]))


def scatter(
    dst: np.ndarray, idx: np.ndarray, src: np.ndarray, increasing: bool = False
) -> None:
    """``dst[idx] = src``: the scatter of an unpack.

    ``increasing`` is the caller's word that ``idx`` is strictly
    increasing, so no element is written twice; the bounds are checked
    here, from its first and last entries.
    """
    if (
        not increasing
        or src.nbytes < SPLIT_BYTES
        or CPUS < 2
        or idx.shape != src.shape
        or idx[0] < 0
        or idx[-1] >= len(dst)
        or np.may_share_memory(dst, src)
        or np.may_share_memory(dst, idx)
    ):
        dst[idx] = src
        return
    h = len(idx) // 2
    _split(_scatter, (dst, idx[:h], src[:h]), (dst, idx[h:], src[h:]))
