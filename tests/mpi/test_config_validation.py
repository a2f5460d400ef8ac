"""MpiConfig / RetryPolicy / EngineOptions constructor validation (fail
fast, not deep inside a protocol coroutine with a cryptic
ZeroDivisionError)."""

from __future__ import annotations

import pytest

from repro.gpu_engine.engine import EngineOptions
from repro.mpi.config import MpiConfig, RetryPolicy


def test_defaults_are_valid():
    cfg = MpiConfig()
    assert cfg.frag_bytes > 0 and cfg.pipeline_depth > 0


def test_but_keeps_validation():
    cfg = MpiConfig().but(frag_bytes=4096)
    assert cfg.frag_bytes == 4096
    with pytest.raises(ValueError):
        MpiConfig().but(frag_bytes=0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(frag_bytes=0),
        dict(frag_bytes=-1),
        dict(pipeline_depth=0),
        dict(eager_limit=-1),
        dict(rdma_mode="push"),
        dict(coll_algorithm="bruck"),
        dict(coll_algorithm=""),
        # the leader-per-node rung, deleted with its executor
        dict(coll_algorithm="hierarchical"),
        # the one-sided rung, deleted with the RMA windows it shared
        dict(coll_algorithm="direct"),
        dict(coll_staged_threshold=-1),
    ],
    ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.values()))),
)
def test_bad_config_rejected(kw):
    with pytest.raises(ValueError):
        MpiConfig(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(rto=0.0),
        dict(rto=-1.0),
        dict(backoff=0.5),
        dict(max_retries=-1),
        dict(ipc_open_retries=-1),
    ],
)
def test_bad_retry_policy_rejected(kw):
    with pytest.raises(ValueError):
        RetryPolicy(**kw)


def test_retry_policy_defaults_valid():
    rp = RetryPolicy()
    assert rp.rto > 0 and rp.backoff >= 1.0 and rp.max_retries >= 0


@pytest.mark.parametrize(
    "name",
    ["auto", "pairwise", "nonblocking", "staged"],
)
def test_every_ladder_rung_accepted(name):
    assert MpiConfig(coll_algorithm=name).coll_algorithm == name



@pytest.mark.parametrize(
    "kw",
    [
        # divided by zero inside a vector launch; the send then deadlocked
        dict(grid_blocks=0),
        # priced a vector kernel with a negative bandwidth
        dict(grid_blocks=-4),
        # silently replaced by the default 4 KB CUDA_DEV unit
        dict(unit_size=0),
        dict(unit_size=-1),
    ],
    ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.values()))),
)
def test_bad_engine_options_rejected(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        EngineOptions(**kw)


def test_engine_options_bounds_accepted():
    assert EngineOptions().grid_blocks is None
    opts = EngineOptions(grid_blocks=1, unit_size=1)
    assert MpiConfig(engine=opts).engine.grid_blocks == 1
