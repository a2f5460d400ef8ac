"""Tests for the host byte mover (:mod:`repro.bytemove`).

Each entry point must equal the NumPy statement it stands for, byte for
byte, whether it splits or not; the split cases run with the module's
CPU count set to 2, so they split on any machine.  A spy on the split
tells which path a call took.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

from repro import bytemove
from repro.datatype.canonical import stream_plan
from repro.datatype.ddt import hindexed
from repro.datatype.primitives import DOUBLE
from repro.workloads.matrices import lower_triangular_type

SPLIT = bytemove.SPLIT_BYTES
#: byte sizes just under and just over the split threshold (whole uint64s)
SIZES = pytest.mark.parametrize("nbytes", [SPLIT - 8, SPLIT + 8],
                                ids=["under", "over"])


@pytest.fixture
def splits(monkeypatch):
    """Two CPUs, and the name of each split's worker function, in order."""
    calls = []
    real = bytemove._split

    def spy(fn, mine, theirs):
        calls.append(fn.__name__)
        real(fn, mine, theirs)

    monkeypatch.setattr(bytemove, "CPUS", 2)
    monkeypatch.setattr(bytemove, "_split", spy)
    return calls


def words(rng, n):
    return rng.integers(0, 2**63, n, dtype=np.uint64)


class TestEqualsInline:
    @SIZES
    def test_move_1d(self, splits, rng, nbytes):
        src = rng.integers(0, 256, nbytes, dtype=np.uint8)
        dst = np.zeros(nbytes, np.uint8)
        want = np.zeros(nbytes, np.uint8)
        want[...] = src
        bytemove.move(dst, src)
        assert np.array_equal(dst, want)
        assert splits == (["_assign"] if nbytes >= SPLIT else [])

    @pytest.mark.parametrize("direction", ["pack", "unpack"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("rows", [SPLIT // 512 - 1, SPLIT // 512 + 1],
                             ids=["under", "over"])
    def test_move_2d_strided(self, splits, rng, direction, sign, rows):
        """Every other 8-byte element of 128-element rows: 64 per row,
        walked forwards or with both strides negative."""
        base0, flat0 = words(rng, (rows, 128)), words(rng, (rows, 64))
        results = []
        for split in (True, False):
            base, flat = base0.copy(), flat0.copy()
            view = base[:, ::2] if sign > 0 else base[::-1, ::-2]
            dst, src = (flat, view) if direction == "pack" else (view, flat)
            if split:
                bytemove.move(dst, src)
            else:
                dst[...] = src
            results.append((base, flat))
        assert all(np.array_equal(a, b) for a, b in zip(*results))
        assert splits == (["_assign"] if rows * 512 >= SPLIT else [])

    def test_move_tests_the_size_it_is_given(self, splits, rng):
        """A strided executor passes its whole fragment's size: the rows
        between a partial head and tail split as the fragment does."""
        src = words(rng, (126, 1025))
        dst = np.zeros_like(src)
        bytemove.move(dst, src, SPLIT)
        assert np.array_equal(dst, src) and splits == ["_assign"]
        bytemove.move(dst, src, SPLIT - 1)
        assert splits == ["_assign"]

    @SIZES
    def test_take(self, splits, rng, nbytes):
        """Clip mode, indices past both ends included."""
        n = nbytes // 8
        src = words(rng, 3 * n)
        idx = rng.integers(-5, 3 * n + 5, n)
        out, want = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
        src.take(idx, out=want, mode="clip")
        bytemove.take(src, idx, out, "clip")
        assert np.array_equal(out, want)
        assert splits == (["_take_clip"] if nbytes >= SPLIT else [])

    @SIZES
    def test_scatter(self, splits, rng, nbytes):
        n = nbytes // 8
        idx = np.sort(rng.choice(3 * n, n, replace=False))
        src = words(rng, n)
        dst = words(rng, 3 * n)
        want = dst.copy()
        want[idx] = src
        bytemove.scatter(dst, idx, src, True)
        assert np.array_equal(dst, want)
        assert splits == (["_scatter"] if nbytes >= SPLIT else [])


class TestInlineCases:
    """Where the halves could differ from the inline result, the call runs
    inline, with the inline result and error type."""

    N = 2 * SPLIT // 8  # uint64 elements: every case is over the threshold

    def test_overlapping_source_and_destination(self, splits, rng):
        a = words(rng, self.N + 1)
        want = a.copy()
        want[1:] = want[:-1]  # NumPy moves overlapping bytes as memmove
        bytemove.move(a[1:], a[:-1])
        assert np.array_equal(a, want) and splits == []

    def test_non_increasing_scatter_map(self, splits, rng):
        idx = rng.integers(0, self.N, self.N)  # repeats: last write wins
        src, dst = words(rng, self.N), words(rng, self.N)
        want = dst.copy()
        want[idx] = src
        bytemove.scatter(dst, idx, src, False)
        assert np.array_equal(dst, want) and splits == []

    @pytest.mark.parametrize("first, last", [(-1, 0), (0, 1)],
                             ids=["negative", "past-the-end"])
    def test_out_of_bounds_scatter_map(self, splits, rng, first, last):
        """An increasing map whose ends leave the destination: a negative
        index wraps (and may meet a positive one), one past the end
        raises ``IndexError`` as inline."""
        idx = np.arange(first, self.N + first)
        idx[-1] = self.N - 1 + last
        src, dst = words(rng, self.N), words(rng, self.N)
        want = dst.copy()
        try:
            want[idx] = src
            err = None
        except IndexError as exc:
            err = type(exc)
        if err is None:
            bytemove.scatter(dst, idx, src, True)
        else:
            with pytest.raises(err):
                bytemove.scatter(dst, idx, src, True)
        assert np.array_equal(dst, want) and splits == []

    def test_raise_mode_take(self, splits, rng):
        src = words(rng, self.N)
        idx = np.arange(self.N)
        idx[-1] = self.N  # one past the end
        out, want = np.zeros(self.N, np.uint64), np.zeros(self.N, np.uint64)
        with pytest.raises(IndexError):
            src.take(idx, out=want, mode="raise")
        with pytest.raises(IndexError):
            bytemove.take(src, idx, out, "raise")
        assert np.array_equal(out, want)
        idx[-1] = 0
        bytemove.take(src, idx, out, "raise")
        assert np.array_equal(out, src.take(idx)) and splits == []

    def test_one_cpu(self, splits, monkeypatch, rng):
        monkeypatch.setattr(bytemove, "CPUS", 1)
        src = words(rng, self.N)
        dst, out = np.zeros_like(src), np.zeros_like(src)
        bytemove.move(dst, src)
        idx = np.arange(self.N)
        bytemove.take(src, idx, out, "clip")
        bytemove.scatter(dst, idx, src[::-1].copy(), True)
        assert np.array_equal(out, src)
        assert np.array_equal(dst, src[::-1]) and splits == []

    def test_one_cpu_never_starts_the_helper(self):
        code = textwrap.dedent("""
            import threading
            import numpy as np
            from repro import bytemove
            bytemove.CPUS = 1
            src = np.ones(4 << 20, np.uint8)
            dst = np.zeros_like(src)
            idx = np.arange(src.size)
            bytemove.move(dst, src)
            bytemove.take(src, idx, dst, "clip")
            bytemove.scatter(dst, idx, src, True)
            assert (dst == 1).all()
            assert threading.active_count() == 1, threading.enumerate()
            assert bytemove._jobs is None
        """)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_stream_plan_decides_increasing_once(self):
        """The unpack's scatter may split only over a strictly increasing
        gather map, decided when the plan builds it."""
        tri = stream_plan(lower_triangular_type(64), 1)
        rev = stream_plan(hindexed([1, 1], [8, 0], DOUBLE).commit(), 1)
        for plan, want in ((tri, True), (rev, False)):
            assert plan.increasing is False  # no map built yet
            plan.gather_map()
            assert plan.increasing is want


class TestConcurrency:
    def test_helper_exception_reaches_the_caller(self, splits):
        """Only the helper's (second) half fails: the caller still gets
        the inline error type, after its own half has moved."""
        src = np.zeros(SPLIT, dtype=object)
        src[-1] = "x"
        dst = np.full(SPLIT, 7, np.uint8)
        with pytest.raises(ValueError, match="invalid literal"):
            np.full(SPLIT, 7, np.uint8)[...] = src
        with pytest.raises(ValueError, match="invalid literal"):
            bytemove.move(dst, src)
        assert splits == ["_assign"]
        assert not dst[: SPLIT // 2].any()

    def test_caller_exception_waits_for_the_helper(self, splits):
        """The caller's half fails at once; the move still returns only
        after the helper's half has ended."""
        src = np.ones(SPLIT, dtype=object)
        src[0] = "x"
        dst = np.zeros(SPLIT, np.uint8)
        with pytest.raises(ValueError, match="invalid literal"):
            bytemove.move(dst, src)
        assert splits == ["_assign"]
        assert (dst[SPLIT // 2:] == 1).all()

    def test_more_callers_than_cores(self, monkeypatch):
        """Callers share the one helper, each waiting on its own
        completion: a misrouted completion returns a move before its
        bytes are there, which the check right after it sees."""
        monkeypatch.setattr(bytemove, "CPUS", 2)
        n_callers = max(4, (os.cpu_count() or 1) + 2)
        n = SPLIT // 8
        failures = []

        def caller(k: int) -> None:
            try:
                idx = np.arange(n)
                for i in range(12):
                    src = np.full(n, 1 + k * 1000 + i, np.uint64)
                    for op in ("move", "take", "scatter"):
                        dst = np.zeros(n, np.uint64)
                        if op == "move":
                            bytemove.move(dst, src)
                        elif op == "take":
                            bytemove.take(src, idx, dst, "clip")
                        else:
                            bytemove.scatter(dst, idx, src, True)
                        if not np.array_equal(dst, src):
                            failures.append((k, i, op))
                            return
            except Exception as exc:  # reported by the main thread
                failures.append((k, exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(n_callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_import_starts_no_thread(self):
        """Importing the package starts nothing; the first split starts one
        daemon helper, and later splits reuse it."""
        code = textwrap.dedent("""
            import threading
            import numpy as np
            import repro, repro.bench, repro.mpi
            from repro import bytemove
            assert threading.active_count() == 1, threading.enumerate()
            assert bytemove._jobs is None
            bytemove.CPUS = 2
            src = np.ones(2 << 20, np.uint8)
            for _ in range(3):
                dst = np.zeros_like(src)
                bytemove.move(dst, src)
                assert (dst == 1).all()
            helpers = [t for t in threading.enumerate()
                       if t is not threading.main_thread()]
            assert len(helpers) == 1 and helpers[0].daemon, helpers
        """)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    @pytest.mark.skipif(sys.platform != "linux", reason="os.fork, Linux only")
    def test_forked_child_completes_a_split_move(self, monkeypatch):
        monkeypatch.setattr(bytemove, "CPUS", 2)
        src = np.arange(2 * SPLIT, dtype=np.uint64).view(np.uint8)[: 2 * SPLIT]
        bytemove.move(np.empty_like(src), src)
        assert bytemove._jobs is not None  # the parent's helper runs
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a threaded process may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 1
            try:
                fresh = bytemove._jobs is None
                dst = np.zeros_like(src)
                bytemove.move(dst, src)
                code = 0 if fresh and np.array_equal(dst, src) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's split move did not end in 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
