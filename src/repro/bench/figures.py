"""Self-contained figure generators for the CLI report.

Compact versions of the sweeps under ``benchmarks/`` (which additionally
assert the paper's claims); ``python -m repro.bench`` runs these and
prints every table.  Sizes are chosen to finish in seconds while showing
each figure's shape.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    make_env,
    matrix_buffers,
    mvapich_pingpong,
    pingpong,
)
from repro.bench.reporting import Series
from repro.gpu_engine import EngineOptions
from repro.mpi.config import MpiConfig
from repro.workloads.matrices import (
    MatrixWorkload,
    lower_triangular_type,
    stair_triangular_type,
    submatrix_type,
)

__all__ = ["FIGURES", "run_figure", "run_all"]


def fig6(sizes=(512, 1024, 2048, 4096)) -> Series:
    """GPU memory bandwidth of packing kernels (GB/s)."""
    series = Series(
        "Fig 6: pack-kernel bandwidth (GB/s)",
        "N",
        ["V", "T", "T-stair", "C-cudaMemcpy"],
    )
    for n in sizes:
        env = make_env("sm-1gpu")
        proc = env.world.procs[0]
        sim = env.sim
        out = {}
        cases = {
            "V": submatrix_type(n, n + 512),
            "T": lower_triangular_type(n),
            "T-stair": stair_triangular_type(n, 512),
        }
        for name, dt in cases.items():
            src = proc.ctx.malloc(max(dt.extent, 256))
            dst = proc.ctx.malloc(dt.size)
            proc.engine.warm_cache(dt, 1)
            job = proc.engine.pack_job(dt, 1, src, EngineOptions(use_cache=True))
            t0 = sim.now
            sim.run_until_complete(sim.spawn(job.process_all(dst)))
            out[name] = dt.size / (sim.now - t0)
            src.free()
            dst.free()
        a = proc.ctx.malloc(n * n * 8)
        b = proc.ctx.malloc(n * n * 8)
        t0 = sim.now
        sim.run_until_complete(env.gpu0.memcpy_d2d(b, a))
        out["C-cudaMemcpy"] = n * n * 8 / (sim.now - t0)
        env.world.close()
        series.add(n, **out)
    return series


def fig9(sizes=(512, 1024, 2048)) -> Series:
    """PCI-E bandwidth of the two-GPU ping-pong (GB/s)."""
    series = Series("Fig 9: ping-pong PCIe bandwidth (GB/s)", "N", ["V", "T", "C"])
    for n in sizes:
        row = {}
        for name, wl in (
            ("V", MatrixWorkload.submatrix(n, n + 512)),
            ("T", MatrixWorkload.triangular(n)),
            ("C", MatrixWorkload.contiguous_matrix(n)),
        ):
            env = make_env("sm-2gpu")
            b0, b1 = matrix_buffers(env, wl)
            t = pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2)
            env.world.close()
            row[name] = 2 * wl.payload_bytes / t
        series.add(n, **row)
    return series


def fig10(sizes=(512, 1024, 2048)) -> list[Series]:
    """Ping-pong vs the MVAPICH-style baseline in all three environments."""
    out = []
    for kind, label in (
        ("sm-1gpu", "Fig 10a (SM, one GPU)"),
        ("sm-2gpu", "Fig 10b (SM, two GPUs)"),
        ("ib", "Fig 10c (InfiniBand)"),
    ):
        series = Series(label, "N", ["V", "V-MVAPICH", "T", "T-MVAPICH"])
        for n in sizes:
            row = {}
            for name, wl in (
                ("V", MatrixWorkload.submatrix(n, n + 512)),
                ("T", MatrixWorkload.triangular(n)),
            ):
                env = make_env(kind)
                b0, b1 = matrix_buffers(env, wl)
                row[name] = pingpong(
                    env, b0, wl.datatype, 1, b1, wl.datatype, 1, iters=2
                )
                env.world.close()
                env2 = make_env(kind)
                c0, c1 = matrix_buffers(env2, wl)
                row[f"{name}-MVAPICH"] = mvapich_pingpong(
                    env2, c0, wl.datatype, 1, c1, wl.datatype, 1, iters=1
                )
                env2.world.close()
            series.add(n, **row)
        out.append(series)
    return out


def sec53(grids=(1, 2, 4, 8, 16, 32, 64, 120), n=2048) -> Series:
    """S5.3: ping-pong time vs CUDA blocks granted to the engine."""
    series = Series(
        f"S5.3: ping-pong (V, N={n}) vs CUDA blocks granted", "blocks", ["time"]
    )
    for g in grids:
        cfg = MpiConfig(engine=EngineOptions(grid_blocks=g))
        env = make_env("sm-2gpu", config=cfg)
        wl = MatrixWorkload.submatrix(n, n + 512)
        b0, b1 = matrix_buffers(env, wl)
        series.add(g, time=pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, 2))
        env.world.close()
    return series


def sec54(levels=(0.0, 0.25, 0.5, 0.75, 0.9, 0.97), n=2048) -> Series:
    """S5.4: ping-pong time under a co-running GPU application."""
    series = Series(
        f"S5.4: ping-pong (V, N={n}) vs co-running GPU load", "load", ["time"]
    )
    for lvl in levels:
        env = make_env("sm-2gpu")
        for gpu in (env.gpu0, env.gpu1):
            gpu.contention = lvl
        wl = MatrixWorkload.submatrix(n, n + 512)
        b0, b1 = matrix_buffers(env, wl)
        series.add(
            f"{int(lvl * 100)}%",
            time=pingpong(env, b0, wl.datatype, 1, b1, wl.datatype, 1, 2),
        )
        env.world.close()
    return series


def fig7(sizes=(1024, 2048, 4096)) -> Series:
    """Pack+unpack engine time: pipeline and cache effects (bypass CPU)."""
    series = Series(
        "Fig 7a: pack+unpack, bypass CPU",
        "N",
        ["V-d2d", "T-d2d", "T-d2d-pipeline", "T-d2d-cached"],
    )
    for n in sizes:
        env = make_env("sm-1gpu")
        proc = env.world.procs[0]
        sim = env.sim
        V = submatrix_type(n, n + 512)
        T = lower_triangular_type(n)
        srcV = proc.ctx.malloc(V.extent)
        srcT = proc.ctx.malloc(n * n * 8)
        dst = proc.ctx.malloc(V.size)

        def roundtrip(dt, src, options, frag=None, warm=False):
            if warm:
                proc.engine.warm_cache(dt, 1)

            def run():
                pj = proc.engine.pack_job(dt, 1, src, options)
                yield from pj.process_all(dst, frag)
                uj = proc.engine.unpack_job(dt, 1, src, options)
                yield from uj.process_all(dst, frag)

            t0 = sim.now
            sim.run_until_complete(sim.spawn(run()))
            return sim.now - t0

        no_pipe = EngineOptions(use_cache=False, pipeline_prep=False)
        pipe = EngineOptions(use_cache=False, pipeline_prep=True)
        cached = EngineOptions(use_cache=True)
        series.add(
            n,
            **{
                "V-d2d": roundtrip(V, srcV, no_pipe),
                "T-d2d": roundtrip(T, srcT, no_pipe),
                "T-d2d-pipeline": roundtrip(T, srcT, pipe, frag=4 << 20),
                "T-d2d-cached": roundtrip(T, srcT, cached, warm=True),
            },
        )
        env.world.close()
    return series


def fig12(sizes=(256, 512, 1024)) -> Series:
    """Matrix-transpose ping-pong, ours vs the MVAPICH-style baseline."""
    import numpy as np

    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE
    from repro.workloads.matrices import transpose_type

    series = Series(
        "Fig 12: matrix transpose ping-pong (SM, two GPUs)",
        "N",
        ["transpose", "transpose-MVAPICH"],
    )
    for n in sizes:
        C = contiguous(n * n, DOUBLE).commit()
        TR = transpose_type(n)
        env = make_env("sm-2gpu")
        b0 = env.world.procs[0].ctx.malloc(n * n * 8)
        b0.write(np.random.default_rng(0).random(n * n))
        b1 = env.world.procs[1].ctx.malloc(n * n * 8)
        ours = pingpong(env, b0, C, 1, b1, TR, 1, iters=2)
        env2 = make_env("sm-2gpu")
        c0 = env2.world.procs[0].ctx.malloc(n * n * 8)
        c1 = env2.world.procs[1].ctx.malloc(n * n * 8)
        theirs = mvapich_pingpong(env2, c0, C, 1, c1, TR, 1, iters=1)
        env.world.close()
        env2.world.close()
        series.add(n, transpose=ours, **{"transpose-MVAPICH": theirs})
    return series


def energy(n: int = 1024) -> Series:
    """Extension: dynamic energy of a V transfer, GPU engine vs CPU path."""
    import numpy as np

    from repro.hw.energy import energy_report
    from repro.hw.node import Cluster
    from repro.mpi.world import MpiWorld

    series = Series(
        f"Extension: dynamic energy of one V transfer (N={n})",
        "path",
        ["millijoules", "time_ms"],
    )
    for label, placements in (
        ("GPU engine (2 GPUs)", [(0, 0), (0, 1)]),
        ("CPU datatype engine", [(0, None), (0, None)]),
    ):
        cluster = Cluster(1, 2, trace=True)
        world = MpiWorld(cluster, placements)
        ld = n + 512
        V = submatrix_type(n, ld)
        bufs = []
        for rank in range(2):
            proc = world.procs[rank]
            buf = (
                proc.ctx.malloc(ld * ld * 8)
                if proc.gpu is not None
                else proc.node.host_memory.alloc(ld * ld * 8)
            )
            bufs.append(buf)
        bufs[0].write(np.random.default_rng(0).random(ld * ld))

        def s(mpi):
            yield mpi.send(bufs[0], V, 1, dest=1, tag=0)

        def r(mpi):
            yield mpi.recv(bufs[1], V, 1, source=0, tag=0)

        world.run([s, r])
        cluster.tracer.clear()
        elapsed = world.run([s, r])
        rep = energy_report(cluster.tracer)
        world.close()
        series.add(
            label,
            millijoules=rep.total_joules * 1e3,
            time_ms=elapsed * 1e3,
        )
    return series


def fig8(block_sizes=(64, 96, 192, 512, 4096), n_blocks=8192) -> Series:
    """Vector kernel vs cudaMemcpy2D (the 64 B alignment sawtooth)."""
    from repro.cuda.runtime import CudaContext, MemcpyKind
    from repro.cuda.uma import map_host_buffer, unmap_host_buffer
    from repro.datatype.ddt import hvector
    from repro.datatype.primitives import BYTE

    series = Series(
        f"Fig 8: vector pack vs cudaMemcpy2D ({n_blocks} blocks)",
        "blockB",
        ["kernel-d2d", "mcp2d-d2d", "kernel-d2h(cpy)", "mcp2d-d2h"],
    )
    for bs in block_sizes:
        env = make_env("sm-1gpu")
        proc = env.world.procs[0]
        gpu = env.gpu0
        ctx = CudaContext(gpu)
        sim = env.sim
        stride = bs + 64
        dt = hvector(n_blocks, bs, stride, BYTE).commit()
        src = ctx.malloc(n_blocks * stride)
        dst = ctx.malloc(n_blocks * bs)
        hdst = proc.node.host_memory.alloc(n_blocks * bs)
        map_host_buffer(hdst, gpu)
        proc.engine.warm_cache(dt, 1)

        def timed(target):
            t0 = sim.now
            if hasattr(target, "add_callback"):
                sim.run_until_complete(target)
            else:
                sim.run_until_complete(sim.spawn(target))
            return sim.now - t0

        row = {
            "kernel-d2d": timed(
                proc.engine.pack_job(dt, 1, src, EngineOptions()).process_all(dst)
            ),
            "kernel-d2h(cpy)": timed(
                proc.engine.pack_job(dt, 1, src, EngineOptions()).process_all(hdst)
            ),
            "mcp2d-d2d": timed(
                ctx.memcpy2d(dst, bs, src, stride, bs, n_blocks, MemcpyKind.D2D)
            ),
            "mcp2d-d2h": timed(
                ctx.memcpy2d(hdst, bs, src, stride, bs, n_blocks, MemcpyKind.D2H)
            ),
        }
        unmap_host_buffer(hdst)
        env.world.close()
        series.add(bs, **row)
    return series


def fig11(sizes=(512, 1024, 2048)) -> Series:
    """Vector <-> contiguous (FFT reshape) ping-pong vs the baseline."""
    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE

    series = Series(
        "Fig 11 (SM): vector<->contiguous ping-pong",
        "N",
        ["V<->C", "V<->C-MVAPICH"],
    )
    for n in sizes:
        wl = MatrixWorkload.submatrix(n, n + 512)
        C = contiguous(n * n, DOUBLE).commit()
        env = make_env("sm-2gpu")
        b0, b1 = matrix_buffers(env, wl)
        ours = pingpong(env, b0, wl.datatype, 1, b1, C, 1, iters=2)
        env2 = make_env("sm-2gpu")
        c0, c1 = matrix_buffers(env2, wl)
        theirs = mvapich_pingpong(env2, c0, wl.datatype, 1, c1, C, 1, iters=1)
        env.world.close()
        env2.world.close()
        series.add(n, **{"V<->C": ours, "V<->C-MVAPICH": theirs})
    return series


FIGURES: dict[str, Callable] = {
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "sec5.3": sec53,
    "sec5.4": sec54,
    "energy": energy,
}


def run_figure(name: str) -> list[Series]:
    """Run one named figure; returns its series list."""
    result = FIGURES[name]()
    return result if isinstance(result, list) else [result]


def run_all() -> list[Series]:
    """Run every registered figure."""
    out: list[Series] = []
    for name in FIGURES:
        out.extend(run_figure(name))
    return out
