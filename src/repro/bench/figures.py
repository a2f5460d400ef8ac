"""Figure tables for the CLI report.

Each figure is a sweep over the measurement core that the suite
scenarios and the pytest figure suites under ``benchmarks/`` (which
additionally assert the paper's claims) share, from
:mod:`repro.bench.scenarios`; ``python -m repro.bench`` runs them and
prints every table.  Sizes are chosen to finish in seconds while showing
each figure's shape.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.bench.reporting import Series
from repro.bench.scenarios import (
    engine_times,
    kernel_bandwidths,
    memcpy2d_sweep,
    pcie_bandwidths,
    pingpong_times,
    pingpong_under_contention,
    pingpong_with_grid,
    transpose_times,
    vc_times,
)

__all__ = ["FIGURES", "run_figure", "run_all"]


def _sweep(
    title: str,
    x_name: str,
    columns: list[str],
    xs: Iterable,
    core: Callable[..., dict[str, float]],
) -> Series:
    """One series: ``core(x)``'s named values at every ``x``."""
    series = Series(title, x_name, columns)
    for x in xs:
        series.add(x, **core(x))
    return series


def fig6(sizes=(512, 1024, 2048, 4096)) -> Series:
    """GPU memory bandwidth of packing kernels (GB/s)."""
    return _sweep(
        "Fig 6: pack-kernel bandwidth (GB/s)",
        "N",
        ["V", "T", "T-stair", "C-cudaMemcpy"],
        sizes,
        kernel_bandwidths,
    )


def fig7(sizes=(1024, 2048, 4096)) -> list[Series]:
    """Pack+unpack engine time: bypassing the CPU, and through the host."""
    bypass = Series(
        "Fig 7a: pack+unpack, bypass CPU",
        "N",
        ["V-d2d", "T-d2d", "T-d2d-pipeline", "T-d2d-cached"],
    )
    host = Series(
        "Fig 7b: pack+unpack through host memory",
        "N",
        ["V-d2d2h", "T-d2d2h-cached", "V-cpy", "T-cpy-cached"],
    )
    for n in sizes:
        times = engine_times(n)
        bypass.add(n, **times)
        host.add(n, **times)
    return [bypass, host]


def fig8(block_sizes=(64, 96, 192, 512, 4096), n_blocks=8192) -> Series:
    """Vector kernel vs cudaMemcpy2D (the 64 B alignment sawtooth)."""
    return memcpy2d_sweep(n_blocks, list(block_sizes))


def fig9(sizes=(512, 1024, 2048)) -> Series:
    """PCI-E bandwidth of the two-GPU ping-pong (GB/s)."""
    return _sweep(
        "Fig 9: ping-pong PCIe bandwidth (GB/s)", "N", ["V", "T", "C"],
        sizes, pcie_bandwidths,
    )


def fig10(sizes=(512, 1024, 2048)) -> list[Series]:
    """Ping-pong vs the MVAPICH-style baseline in all three environments."""
    return [
        _sweep(
            label, "N", ["V", "V-MVAPICH", "T", "T-MVAPICH"], sizes,
            partial(pingpong_times, kind),
        )
        for kind, label in (
            ("sm-1gpu", "Fig 10a (SM, one GPU)"),
            ("sm-2gpu", "Fig 10b (SM, two GPUs)"),
            ("ib", "Fig 10c (InfiniBand)"),
        )
    ]


def fig11(sizes=(512, 1024, 2048)) -> Series:
    """Vector <-> contiguous (FFT reshape) ping-pong vs the baseline."""
    return _sweep(
        "Fig 11 (SM): vector<->contiguous ping-pong", "N",
        ["V<->C", "V<->C-MVAPICH"], sizes, partial(vc_times, "sm-2gpu"),
    )


def fig12(sizes=(256, 512, 1024)) -> Series:
    """Matrix-transpose ping-pong, ours vs the MVAPICH-style baseline."""
    return _sweep(
        "Fig 12: matrix transpose ping-pong (SM, two GPUs)", "N",
        ["transpose", "transpose-MVAPICH"], sizes,
        partial(transpose_times, "sm-2gpu"),
    )


def sec53(grids=(1, 2, 4, 8, 16, 32, 64, 120), n=2048) -> Series:
    """S5.3: ping-pong time vs CUDA blocks granted to the engine."""
    return _sweep(
        f"S5.3: ping-pong (V, N={n}) vs CUDA blocks granted", "blocks",
        ["time"], grids,
        lambda g: {"time": pingpong_with_grid(g, n)},
    )


def sec54(levels=(0.0, 0.25, 0.5, 0.75, 0.9, 0.97), n=2048) -> Series:
    """S5.4: ping-pong time under a co-running GPU application."""
    series = Series(
        f"S5.4: ping-pong (V, N={n}) vs co-running GPU load", "load", ["time"]
    )
    for lvl in levels:
        series.add(
            f"{int(lvl * 100)}%", time=pingpong_under_contention(lvl, n)
        )
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
