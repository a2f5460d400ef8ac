"""Shared benchmark scenarios: one measurement core per paper figure.

Two consumers share this module:

* the pytest figure suites under ``benchmarks/`` import the measurement
  cores (``kernel_bandwidths``, ``engine_times``, ...) and wrap them in
  sweeps + paper-band assertions;
* the suite runner (``python -m repro.bench --suite``, see
  :mod:`repro.bench.suite`) runs the registered *scenarios* — thin
  wrappers that size a core from the active :class:`~repro.bench.profiles.Profile`
  and flatten the results into ``{metric_name: float}`` for the
  ``BENCH_*.json`` trajectory and the regression gate.

Every metric here is **simulated** time/bandwidth off the deterministic
virtual clock, so identical code produces bit-identical metrics on any
machine — which is what lets the regression gate use tight tolerances.
Scenarios that drive the full MPI ping-pong also report WorldStats-derived
health numbers (CUDA_DEV cache hit rate, pack/wire overlap fraction).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bench.harness import (
    make_env,
    matrix_buffers,
    mvapich_pingpong,
    pingpong,
    pingpong_stats,
)
from repro.bench.profiles import Profile
from repro.bench.reporting import Series
from repro.cuda.runtime import CudaContext, MemcpyKind
from repro.cuda.uma import map_host_buffer, unmap_host_buffer
from repro.datatype.ddt import contiguous, hvector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.gpu_engine import EngineOptions
from repro.mpi.config import MpiConfig
from repro.workloads.matrices import (
    MatrixWorkload,
    lower_triangular_type,
    stair_triangular_type,
    submatrix_type,
    transpose_type,
)

__all__ = [
    "SCENARIOS",
    "scenario",
    "scenario_names",
    "run_scenario",
    # measurement cores shared with benchmarks/
    "kernel_bandwidths",
    "engine_times",
    "memcpy2d_sweep",
    "pcie_bandwidths",
    "pingpong_times",
    "vc_times",
    "transpose_times",
    "pingpong_with_grid",
    "saturation_grid",
    "pingpong_under_contention",
    "pipeline_pingpong",
]

#: stair size = threads per CUDA block, as the paper prescribes (Fig 6)
STAIR_NB = 512
#: pipeline fragment used by the Fig 7 staged paths
PIPE_FRAG = 4 << 20
#: gap between blocks in the Fig 8 vector sweep
STRIDE_PAD = 64


# ---------------------------------------------------------------------------
# measurement cores (shared with benchmarks/test_fig*.py)
# ---------------------------------------------------------------------------


def kernel_bandwidths(n: int) -> dict[str, float]:
    """Fig 6: effective pack bandwidth (payload / kernel time) per layout."""
    env = make_env("sm-1gpu")
    gpu = env.gpu0
    proc = env.world.procs[0]
    sim = env.sim
    ld = n + 512

    out: dict[str, float] = {}
    cases = {
        "V": submatrix_type(n, ld),
        "T": lower_triangular_type(n),
        "T-stair": stair_triangular_type(n, STAIR_NB),
    }
    for name, dt in cases.items():
        src = proc.ctx.malloc(max(dt.extent, ld * ld * 8))
        dst = proc.ctx.malloc(dt.size)
        # measure the kernel alone: CUDA_DEVs cached (prep excluded), one
        # launch — this is what Fig 6 isolates
        proc.engine.warm_cache(dt, 1)
        job = proc.engine.pack_job(dt, 1, src, EngineOptions(use_cache=True))
        t0 = sim.now
        sim.run_until_complete(sim.spawn(job.process_all(dst)))
        out[name] = dt.size / (sim.now - t0)
        src.free()
        dst.free()

    # the reference: contiguous cudaMemcpy of the V payload size
    nbytes = n * n * 8
    a = proc.ctx.malloc(nbytes)
    b = proc.ctx.malloc(nbytes)
    t0 = sim.now
    sim.run_until_complete(gpu.memcpy_d2d(b, a))
    out["C-cudaMemcpy"] = nbytes / (sim.now - t0)
    env.world.close()
    return out


def _roundtrip(env, dt, src, options, frag, dst, warm_cache=False):
    """pack into dst then unpack back; returns simulated seconds."""
    proc = env.world.procs[0]
    sim = env.sim
    if warm_cache:
        proc.engine.warm_cache(dt, 1)

    def run():
        pj = proc.engine.pack_job(dt, 1, src, options)
        yield from pj.process_all(dst, frag)
        uj = proc.engine.unpack_job(dt, 1, src, options)
        yield from uj.process_all(dst, frag)

    t0 = sim.now
    sim.run_until_complete(sim.spawn(run()))
    return sim.now - t0


def engine_times(n: int) -> dict[str, float]:
    """Fig 7: pack+unpack time of the GPU datatype engine per path."""
    env = make_env("sm-1gpu")
    proc = env.world.procs[0]
    gpu = env.gpu0
    ld = n + 512
    V = submatrix_type(n, ld)
    T = lower_triangular_type(n)
    srcV = proc.ctx.malloc(ld * ld * 8)
    srcT = proc.ctx.malloc(n * n * 8)
    out: dict[str, float] = {}

    # ---- bypass CPU: pack into a GPU buffer -------------------------------
    dgpu = proc.ctx.malloc(V.size)
    no_cache = EngineOptions(use_cache=False, pipeline_prep=False)
    pipe = EngineOptions(use_cache=False, pipeline_prep=True)
    cached = EngineOptions(use_cache=True)
    out["V-d2d"] = _roundtrip(env, V, srcV, no_cache, None, dgpu)
    out["T-d2d"] = _roundtrip(env, T, srcT, no_cache, None, dgpu)
    out["T-d2d-pipeline"] = _roundtrip(env, T, srcT, pipe, PIPE_FRAG, dgpu)
    out["T-d2d-cached"] = _roundtrip(env, T, srcT, cached, None, dgpu, warm_cache=True)

    # ---- through host memory ------------------------------------------------
    # d2d2h: pack to GPU staging then explicit D2H (and H2D + unpack back)
    sim = env.sim
    hbuf = proc.node.host_memory.alloc(V.size)

    def d2d2h(dt, src, options, warm):
        if warm:
            proc.engine.warm_cache(dt, 1)

        def run():
            pj = proc.engine.pack_job(dt, 1, src, options)
            yield from pj.process_all(dgpu, PIPE_FRAG)
            yield gpu.memcpy_d2h(hbuf[: dt.size], dgpu[: dt.size])
            yield gpu.memcpy_h2d(dgpu[: dt.size], hbuf[: dt.size])
            uj = proc.engine.unpack_job(dt, 1, src, options)
            yield from uj.process_all(dgpu, PIPE_FRAG)

        t0 = sim.now
        sim.run_until_complete(sim.spawn(run()))
        return sim.now - t0

    out["V-d2d2h"] = d2d2h(V, srcV, pipe, warm=False)
    out["T-d2d2h-cached"] = d2d2h(T, srcT, cached, warm=True)

    # cpy: zero-copy — the kernel streams over PCIe itself
    zbuf = proc.node.host_memory.alloc(V.size)
    map_host_buffer(zbuf, gpu)
    out["V-cpy"] = _roundtrip(env, V, srcV, pipe, PIPE_FRAG, zbuf)
    out["T-cpy-cached"] = _roundtrip(
        env, T, srcT, cached, PIPE_FRAG, zbuf, warm_cache=True
    )
    unmap_host_buffer(zbuf)
    env.world.close()
    return out


def memcpy2d_sweep(
    n_blocks: int, block_sizes: Optional[list[int]] = None
) -> Series:
    """Fig 8: vector pack kernel vs ``cudaMemcpy2D`` over block sizes."""
    if block_sizes is None:
        block_sizes = [64, 96, 128, 192, 256, 448, 512, 1024, 4096]
    series = Series(
        f"Fig 8: vector pack vs cudaMemcpy2D, {n_blocks} blocks",
        "blockB",
        ["kernel-d2d", "mcp2d-d2d", "kernel-d2h(cpy)", "mcp2d-d2h", "mcp2d-d2d2h"],
    )
    for bs in block_sizes:
        env = make_env("sm-1gpu")
        proc = env.world.procs[0]
        gpu = env.gpu0
        ctx = CudaContext(gpu)
        sim = env.sim
        stride = bs + STRIDE_PAD
        dt = hvector(n_blocks, bs, stride, BYTE).commit()
        total = n_blocks * bs
        src = ctx.malloc(n_blocks * stride)
        dst = ctx.malloc(total)
        hdst = proc.node.host_memory.alloc(total)
        map_host_buffer(hdst, gpu)

        def timed(coro_or_fut):
            t0 = sim.now
            if hasattr(coro_or_fut, "add_callback"):
                sim.run_until_complete(coro_or_fut)
            else:
                sim.run_until_complete(sim.spawn(coro_or_fut))
            return sim.now - t0

        opts = EngineOptions(use_cache=True)
        proc.engine.warm_cache(dt, 1)
        job = proc.engine.pack_job(dt, 1, src, opts)
        kernel_d2d = timed(job.process_all(dst))
        job = proc.engine.pack_job(dt, 1, src, opts)
        kernel_d2h = timed(job.process_all(hdst))
        mcp_d2d = timed(
            ctx.memcpy2d(dst, bs, src, stride, bs, n_blocks, MemcpyKind.D2D)
        )
        mcp_d2h = timed(
            ctx.memcpy2d(hdst, bs, src, stride, bs, n_blocks, MemcpyKind.D2H)
        )

        # d2d2h: pack in-device with memcpy2d, then one contiguous D2H
        def d2d2h():
            yield ctx.memcpy2d(dst, bs, src, stride, bs, n_blocks, MemcpyKind.D2D)
            yield gpu.memcpy_d2h(hdst, dst)

        mcp_d2d2h = timed(d2d2h())
        series.add(
            bs,
            **{
                "kernel-d2d": kernel_d2d,
                "mcp2d-d2d": mcp_d2d,
                "kernel-d2h(cpy)": kernel_d2h,
                "mcp2d-d2h": mcp_d2h,
                "mcp2d-d2d2h": mcp_d2d2h,
            },
        )
        unmap_host_buffer(hdst)
        env.world.close()
    return series


def pcie_bandwidths(n: int) -> dict[str, float]:
    """Fig 9: PCIe bandwidth achieved by the two-GPU ping-pong per layout."""
    out: dict[str, float] = {}
    for name, wl in (
        ("V", MatrixWorkload.submatrix(n, n + 512)),
        ("T", MatrixWorkload.triangular(n)),
        ("C", MatrixWorkload.contiguous_matrix(n)),
    ):
        env = make_env("sm-2gpu")
        b0, b1 = matrix_buffers(env, wl)
        t = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
        env.world.close()
        # ping-pong moves the payload twice per iteration
        out[name] = 2 * wl.payload_bytes / t
    return out


def pingpong_times(env_kind: str, n: int) -> dict[str, float]:
    """Fig 10: V/T ping-pong round-trip, ours vs the MVAPICH baseline."""
    out: dict[str, float] = {}
    for name, wl in (
        ("V", MatrixWorkload.submatrix(n, n + 512)),
        ("T", MatrixWorkload.triangular(n)),
    ):
        env = make_env(env_kind)
        b0, b1 = matrix_buffers(env, wl)
        out[name] = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
        env.world.close()
        env2 = make_env(env_kind)
        c0, c1 = matrix_buffers(env2, wl)
        out[f"{name}-MVAPICH"] = mvapich_pingpong(
            env2, c0, wl.datatype, 1, c1, wl.datatype, 1, iters=1
        )
        env2.world.close()
    return out


def vc_times(env_kind: str, n: int) -> dict[str, float]:
    """Fig 11: vector<->contiguous (FFT reshape) ping-pong, ours vs MVAPICH."""
    wl = MatrixWorkload.submatrix(n, n + 512)
    C = contiguous(n * n, DOUBLE).commit()
    out = {}
    env = make_env(env_kind)
    b0, b1 = matrix_buffers(env, wl)
    # rank 0: vector; rank 1: contiguous (only n*n*8 bytes are used)
    out["V<->C"] = pingpong(env, b0, wl.datatype, 1, b1, C, 1, iters=2)
    env.world.close()
    env2 = make_env(env_kind)
    c0, c1 = matrix_buffers(env2, wl)
    out["V<->C-MVAPICH"] = mvapich_pingpong(env2, c0, wl.datatype, 1, c1, C, 1, iters=1)
    env2.world.close()
    return out


def transpose_times(env_kind: str, n: int) -> dict[str, float]:
    """Fig 12: contiguous->transpose ping-pong (N^2 single-element blocks).

    Verifies the transpose semantics on both implementations before
    reporting — a wrong answer must never look like a fast answer.
    """
    import numpy as np

    C = contiguous(n * n, DOUBLE).commit()
    TR = transpose_type(n)
    out = {}
    env = make_env(env_kind)
    p0, p1 = env.world.procs
    b0 = p0.ctx.malloc(n * n * 8)
    b0.write(np.random.default_rng(7).random(n * n))
    b1 = p1.ctx.malloc(n * n * 8)
    out["transpose"] = pingpong(env, b0, C, 1, b1, TR, 1, iters=2)
    a = b0.view("f8").reshape(n, n)
    b = b1.view("f8").reshape(n, n)
    assert np.array_equal(b, a.T), "transpose semantics broken"
    env.world.close()

    env2 = make_env(env_kind)
    q0, q1 = env2.world.procs
    c0 = q0.ctx.malloc(n * n * 8)
    c0.write(np.random.default_rng(8).random(n * n))
    c1 = q1.ctx.malloc(n * n * 8)
    out["transpose-MVAPICH"] = mvapich_pingpong(env2, c0, C, 1, c1, TR, 1, iters=1)
    a = c0.view("f8").reshape(n, n)
    b = c1.view("f8").reshape(n, n)
    assert np.array_equal(b, a.T), "MVAPICH transpose semantics broken"
    env2.world.close()
    return out


def pingpong_with_grid(grid_blocks: int, n: int = 2048) -> float:
    """Section 5.3: two-GPU V ping-pong with a capped engine grid."""
    cfg = MpiConfig(engine=EngineOptions(grid_blocks=grid_blocks))
    env = make_env("sm-2gpu", config=cfg)
    wl = MatrixWorkload.submatrix(n, n + 512)
    b0, b1 = matrix_buffers(env, wl)
    t = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
    env.world.close()
    return t


def saturation_grid(grids: list[int]) -> int:
    """Blocks needed for kernel bw to cross PCIe bw (model prediction)."""
    env = make_env("sm-2gpu")
    gpu = env.gpu0
    pcie = gpu.d2h_link.bandwidth
    for g in grids:
        if gpu.kernel_bandwidth(g) >= pcie:
            return g
    return grids[-1]


def pingpong_under_contention(level: float, n: int = 2048) -> float:
    """Section 5.4: two-GPU V ping-pong with a co-running app's GPU share."""
    env = make_env("sm-2gpu")
    for gpu in (env.gpu0, env.gpu1):
        gpu.contention = level
    wl = MatrixWorkload.submatrix(n, n + 512)
    b0, b1 = matrix_buffers(env, wl)
    t = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
    env.world.close()
    return t


def pipeline_pingpong(
    frag_bytes: int,
    depth: int,
    env_kind: str = "sm-2gpu",
    n: int = 2048,
    contention: float = 0.0,
) -> float:
    """Pipeline ablation: V ping-pong with explicit fragment size / depth."""
    cfg = MpiConfig(frag_bytes=frag_bytes, pipeline_depth=depth)
    env = make_env(env_kind, config=cfg)
    if contention:
        for gpu in (env.gpu0, env.gpu1):
            gpu.contention = contention
    wl = MatrixWorkload.submatrix(n, n + 512)
    b0, b1 = matrix_buffers(env, wl)
    t = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
    env.world.close()
    return t


# ---------------------------------------------------------------------------
# suite scenario registry
# ---------------------------------------------------------------------------

#: name -> scenario function (profile) -> flat {metric: float}
SCENARIOS: dict[str, Callable[[Profile], dict[str, float]]] = {}


def scenario(name: str):
    """Register a suite scenario under ``name`` (decorator)."""

    def deco(fn: Callable[[Profile], dict[str, float]]):
        SCENARIOS[name] = fn
        return fn

    return deco


def scenario_names() -> list[str]:
    """Registered scenario names, in registration (suite) order."""
    return list(SCENARIOS)


def run_scenario(name: str, profile: Profile) -> dict[str, float]:
    """Run one registered scenario; returns its flat metric mapping."""
    return SCENARIOS[name](profile)


def _slug(text: str) -> str:
    """Metric-name-safe version of a column label (``V<->C`` -> ``V_C``)."""
    out = []
    prev_us = False
    for ch in str(text):
        if ch.isalnum() or ch in ".":
            out.append(ch)
            prev_us = False
        elif not prev_us:
            out.append("_")
            prev_us = True
    return "".join(out).strip("_")


@scenario("fig6_kernel_bw")
def _fig6(profile: Profile) -> dict[str, float]:
    n = profile.pick(4096, 1024)
    bw = kernel_bandwidths(n)
    return {f"{_slug(k)}_bw": v for k, v in bw.items()}


@scenario("fig7_engine_time")
def _fig7(profile: Profile) -> dict[str, float]:
    n = profile.pick(4096, 1024)
    return {f"{_slug(k)}_s": v for k, v in engine_times(n).items()}


@scenario("fig8_memcpy2d")
def _fig8(profile: Profile) -> dict[str, float]:
    n_blocks = profile.pick(8192, 1024)
    sizes = profile.pick([64, 96, 192, 512, 4096], [96, 192, 4096])
    series = memcpy2d_sweep(n_blocks, sizes)
    out: dict[str, float] = {}
    for col in series.columns:
        for bs, v in zip(series.x, series.column(col)):
            out[f"{_slug(col)}_{bs}B_s"] = v
    return out


@scenario("fig9_pcie_bw")
def _fig9(profile: Profile) -> dict[str, float]:
    n = profile.pick(3072, 1024)
    return {f"{_slug(k)}_bw": v for k, v in pcie_bandwidths(n).items()}


@scenario("fig10_pingpong")
def _fig10(profile: Profile) -> dict[str, float]:
    n = profile.pick(2048, 1024)
    kinds = profile.pick(["sm-1gpu", "sm-2gpu", "ib"], ["sm-1gpu", "sm-2gpu"])
    out: dict[str, float] = {}
    for kind in kinds:
        for k, v in pingpong_times(kind, n).items():
            out[f"{_slug(kind)}_{_slug(k)}_s"] = v
    return out


@scenario("fig11_vector_contiguous")
def _fig11(profile: Profile) -> dict[str, float]:
    n = profile.pick(2048, 1024)
    kinds = profile.pick(["sm-2gpu", "ib"], ["sm-2gpu"])
    out: dict[str, float] = {}
    for kind in kinds:
        for k, v in vc_times(kind, n).items():
            out[f"{_slug(kind)}_{_slug(k)}_s"] = v
    return out


@scenario("fig12_transpose")
def _fig12(profile: Profile) -> dict[str, float]:
    n = profile.pick(1024, 512)
    kinds = profile.pick(["sm-2gpu", "ib"], ["sm-2gpu"])
    out: dict[str, float] = {}
    for kind in kinds:
        for k, v in transpose_times(kind, n).items():
            out[f"{_slug(kind)}_{_slug(k)}_s"] = v
    return out


@scenario("sec53_min_resources")
def _sec53(profile: Profile) -> dict[str, float]:
    grids = profile.pick([1, 2, 4, 8, 16, 32, 64, 120], [1, 8, 120])
    n = profile.pick(2048, 1024)
    out: dict[str, float] = {}
    for g in grids:
        out[f"grid{g}_s"] = pingpong_with_grid(g, n)
    out["saturation_blocks"] = float(saturation_grid(grids))
    return out


@scenario("sec54_contention")
def _sec54(profile: Profile) -> dict[str, float]:
    levels = profile.pick([0.0, 0.25, 0.5, 0.75, 0.9, 0.97], [0.0, 0.5, 0.97])
    n = profile.pick(2048, 1024)
    return {
        f"contention{int(lv * 100)}_s": pingpong_under_contention(lv, n)
        for lv in levels
    }


@scenario("ablation_pipeline")
def _pipeline(profile: Profile) -> dict[str, float]:
    n = profile.pick(2048, 1024)
    frags = profile.pick(
        [64 << 10, 256 << 10, 1 << 20, 4 << 20, 64 << 20],
        [64 << 10, 1 << 20, 64 << 20],
    )
    depths = profile.pick([1, 2, 4, 8], [1, 4])
    out: dict[str, float] = {}
    for f in frags:
        out[f"frag{f >> 10}KiB_s"] = pipeline_pingpong(f, 4, n=n)
    for d in depths:
        out[f"depth{d}_s"] = pipeline_pingpong(1 << 20, d, n=n)
    return out


@scenario("world_stats")
def _world_stats(profile: Profile) -> dict[str, float]:
    """Ping-pong the triangular type and report the WorldStats health row.

    The cache hit rate and pack/wire overlap fraction are the paper's two
    engine-health invariants: the warmup must fill the CUDA_DEV cache so
    the measured run hits it, and the fragment pipeline must overlap
    packing with the wire.  Both are deterministic, so the regression
    gate holds them to the tight tolerance.
    """
    n = profile.pick(2048, 1024)
    wl = MatrixWorkload.triangular(n)
    # tracing on: the overlap fraction is read off the cluster tracer
    env = make_env("sm-2gpu", config=MpiConfig(frag_bytes=1 << 20), trace=True)
    b0, b1 = matrix_buffers(env, wl)
    per_iter, ws = pingpong_stats(
        env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2
    )
    env.world.close()
    return {
        "T_pingpong_s": per_iter,
        "cache_hit_rate": ws.cache_hit_rate,
        "overlap_fraction": ws.pack_wire_overlap_fraction,
        "total_gbytes": ws.total_bytes / 1e9,
    }


@scenario("cache_reuse")
def _cache_reuse(profile: Profile) -> dict[str, float]:
    """Two tenants, structurally identical types: the cross-construction
    reuse the canonical-keyed DevCache exists for.

    Tenant 1 (COMM_WORLD) and tenant 2 (a dup'ed communicator) each
    build their *own* ``lower_triangular_type(n)`` — distinct objects,
    identical layout, exactly what two libraries in one application do.
    Under the old identity-based ``type_id`` key tenant 2 missed on
    every rank and silently re-paid the CUDA_DEV preparation; under the
    canonical key its misses are zero and its first iteration already
    runs at cached speed.
    """
    n = profile.pick(2048, 1024)
    env = make_env("sm-2gpu")
    world = env.world
    wl = MatrixWorkload.triangular(n)
    b0, b1 = matrix_buffers(env, wl)

    def tenant_programs(comm, dt0, dt1, tag):
        def rank0(mpi):
            yield mpi.send(b0, dt0, 1, dest=1, tag=tag, comm=comm)
            yield mpi.recv(b0, dt0, 1, source=1, tag=tag + 1, comm=comm)

        def rank1(mpi):
            yield mpi.recv(b1, dt1, 1, source=0, tag=tag, comm=comm)
            yield mpi.send(b1, dt1, 1, dest=0, tag=tag + 1, comm=comm)

        return [rank0, rank1]

    # tenant 1: cold caches — its misses fill them
    t1 = world.run(
        tenant_programs(
            world.comm_world,
            lower_triangular_type(n),
            lower_triangular_type(n),
            tag=1,
        )
    )
    c1 = world.stats().cache

    # tenant 2: fresh communicator, fresh (structurally identical) types
    world.reset_stats()
    t2 = world.run(
        tenant_programs(
            world.comm_world.dup(),
            lower_triangular_type(n),
            lower_triangular_type(n),
            tag=3,
        )
    )
    c2 = world.stats().cache
    env.world.close()
    assert c2.misses == 0 and c2.hits > 0, (
        f"tenant 2 should reuse tenant 1's descriptors "
        f"(hits={c2.hits}, misses={c2.misses})"
    )
    return {
        "tenant1_s": t1,
        "tenant2_s": t2,
        "tenant1_hits": float(c1.hits),
        "tenant1_misses": float(c1.misses),
        "tenant2_hits": float(c2.hits),
        "tenant2_misses": float(c2.misses),
        "tenant2_hit_rate": c2.hit_rate,
    }


@scenario("world_scale")
def _world_scale(profile: Profile) -> dict[str, float]:
    """Simulator-core scale: events/sec and wall clock at world width.

    Mixed pingpong + bcast load over host memory with ``transfer_log``
    off (see :mod:`repro.bench.world_scale`).  The event/transfer counts
    and simulated elapsed time are deterministic and tightly gated; the
    ``*_wall_s`` / ``*_per_wall_s`` metrics carry the machine-dependent
    throughput and are gated loosely by the regress naming convention.
    """
    from repro.bench.world_scale import world_scale_metrics

    sizes = profile.pick([256, 1024, 4096], [256, 1024])
    out: dict[str, float] = {}
    for ranks in sizes:
        for k, v in world_scale_metrics(ranks).items():
            out[f"ranks{ranks}_{k}"] = v
    return out


@scenario("coll_crossover")
def _coll_crossover(profile: Profile) -> dict[str, float]:
    """Rank-count x message-size sweep of the alltoall algorithm ladder.

    Times the staged (batched copy-to-host) and nonblocking (every
    two-sided leg in flight) alltoall — the two rungs ``"auto"`` picks
    between — over mostly-inter-node topologies and reports the first
    per-peer block size where nonblocking beats staged, the crossover
    ``coll_staged_threshold`` stands for.  Every time is off the
    deterministic virtual clock, so the gate holds the crossover point
    itself to the tight tolerance.
    """
    from repro.bench.harness import alltoall_times
    from repro.mpi.collectives import CollAlgorithm

    sizes = profile.pick(
        [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10],
        [4 << 10, 16 << 10, 64 << 10],
    )
    topos = profile.pick([(4, 1), (4, 2), (8, 1)], [(4, 2)])
    algos = [CollAlgorithm.STAGED, CollAlgorithm.NONBLOCKING]
    out: dict[str, float] = {}
    for n_nodes, gpn in topos:
        crossover = 0.0
        for nbytes in sizes:
            times = alltoall_times(
                nbytes, algos, n_nodes=n_nodes, gpus_per_node=gpn
            )
            for algo, t in times.items():
                out[f"n{n_nodes}x{gpn}_{nbytes >> 10}kb_{algo}_s"] = t
            if not crossover and times["nonblocking"] < times["staged"]:
                crossover = float(nbytes)
        out[f"n{n_nodes}x{gpn}_crossover_bytes"] = crossover
    return out


@scenario("traffic_mix")
def _traffic_mix(profile: Profile) -> dict[str, float]:
    """Multi-tenant traffic replay under the static default config.

    The seeded generator (:mod:`repro.workloads.traffic`) drives mixed
    eager/rendezvous/vector traffic over several dup'ed communicators;
    everything reported is off the virtual clock, so the gate holds the
    replay's elapsed time and byte volume to the tight tolerance.  The
    structurally-identical per-tenant datatypes must reuse each other's
    cached device descriptors — the cross-tenant hit rate rides along
    as a health metric.
    """
    from repro.workloads.traffic import TrafficSpec, run_traffic

    spec = TrafficSpec(
        rounds=profile.pick(6, 3),
        tenants=profile.pick(4, 3),
    )
    out = run_traffic(spec)
    assert out["cache_hits"] > 0, "tenants should share cached descriptors"
    return out
