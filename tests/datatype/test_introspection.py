"""Tests for datatype introspection, dup, and the trace exporter."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import DOUBLE
from repro.sim.trace import Tracer, save_chrome_trace, to_chrome_trace


class TestEnvelope:
    def test_combiner_and_args(self):
        dt = vector(4, 2, 8, DOUBLE).commit()
        kind, env = dt.envelope()
        assert kind == "hvector"
        assert env["count"] == 4 and env["blocklength"] == 2

    def test_primitive_envelope(self):
        dt = contiguous(1, DOUBLE).children[0]
        kind, _ = dt.envelope()
        assert kind == "MPI_DOUBLE"


class TestDup:
    def test_dup_is_equal_but_distinct(self, rng):
        dt = vector(4, 2, 8, DOUBLE).commit()
        clone = dt.dup()
        assert clone.type_id != dt.type_id
        assert clone.size == dt.size and clone.extent == dt.extent
        assert clone.signature == dt.signature
        user = rng.integers(0, 255, dt.extent, dtype=np.uint8)
        assert np.array_equal(
            pack_bytes(clone, 1, user), pack_bytes(dt, 1, user)
        )

    def test_dup_of_uncommitted_stays_uncommitted(self):
        dt = vector(4, 2, 8, DOUBLE)
        assert not dt.dup().committed

    def test_dup_caches_are_independent(self):
        dt = vector(4, 2, 8, DOUBLE).commit()
        from repro.datatype.convertor import gather_indices

        gather_indices(dt, 1)
        assert dt._plans[1]._gather is not None
        clone = dt.dup()
        assert not clone._plans


class TestDescribe:
    def test_tree_rendering(self):
        dt = contiguous(3, vector(4, 2, 8, DOUBLE)).commit()
        text = dt.describe()
        assert "contiguous" in text
        assert "hvector" in text
        assert "MPI_DOUBLE" in text
        assert f"size={dt.size}B" in text


class TestChromeTrace:
    def test_events_match_spans(self):
        t = Tracer()
        t.record("gpu", 0.0, 1e-3, "pack", nbytes=100)
        t.record("pcie", 1e-3, 3e-3, "xfer", nbytes=100)
        events = to_chrome_trace(t)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        assert xs[0]["name"] == "pack"
        assert xs[0]["dur"] == pytest.approx(1e3)  # microseconds
        assert xs[1]["ts"] == pytest.approx(1e3)
        tids = {e["tid"] for e in xs}
        assert len(tids) == 2

    def test_save_round_trips_json(self, tmp_path):
        t = Tracer()
        t.record("gpu", 0.0, 1.0, "k")
        path = tmp_path / "trace.json"
        save_chrome_trace(t, str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded
        assert any(e.get("ph") == "X" for e in loaded["traceEvents"])
