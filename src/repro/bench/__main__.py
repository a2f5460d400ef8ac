"""CLI report: regenerate the paper's evaluation tables.

Usage::

    python -m repro.bench                 # every figure
    python -m repro.bench fig6 fig10      # a subset
    python -m repro.bench --list

    # benchmark suite + perf-regression gate (BENCH_<label>.json)
    python -m repro.bench --suite --quick --check benchmarks/baseline.json
    python -m repro.bench --suite --quick --update-baseline
    python -m repro.bench --list-scenarios

    # cProfile one suite scenario (writes a sorted-by-cumtime report)
    python -m repro.bench --profile world_scale --quick

For the full per-figure sweeps with assertions, run
``pytest benchmarks/ --benchmark-only -s`` instead.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.figures import FIGURES, run_figure
from repro.bench.reporting import fmt_time

#: where --update-baseline writes, and the conventional --check target
BASELINE_PATH = os.path.join("benchmarks", "baseline.json")


def run_suite_cli(parser: argparse.ArgumentParser, args) -> int:
    """Handle ``--suite``: run, write JSON (+ trace), optionally gate."""
    from repro.bench import profiles, regress
    from repro.bench.suite import run_suite, write_suite_json, write_suite_trace

    if args.quick and args.profile and args.profile != "quick":
        parser.error(f"--quick conflicts with --profile {args.profile}")
    if args.quick:
        profile = profiles.QUICK
    elif args.profile:
        try:
            profile = profiles.get(args.profile)
        except ValueError as err:
            parser.error(str(err))
    else:
        profile = profiles.current()

    try:
        doc = run_suite(profile, names=args.scenario, label=args.label)
    except ValueError as err:  # unknown scenario names
        parser.error(str(err))
    path = write_suite_json(doc, args.json)
    print(f"suite: wrote {path} "
          f"({len(doc['scenarios'])} scenarios, profile={profile.name}, "
          f"{doc['harness']['wall_seconds']:.1f}s wall)")

    if args.trace_out:
        trace = write_suite_trace(
            os.path.join(args.trace_out, "suite-pingpong.trace.json")
        )
        print(f"suite: wrote {trace}")

    if args.update_baseline:
        out = dict(doc)
        try:
            # a *missing* baseline is a fresh start; a *malformed* one is
            # a real problem the refresh must not paper over silently
            prev = regress.load_baseline(BASELINE_PATH)
        except OSError:
            prev = {}
        except ValueError as err:
            print(f"error: refusing to overwrite a malformed baseline: {err}",
                  file=sys.stderr)
            return 1
        # hand-tuned per-metric tolerances survive a refresh — they
        # encode review decisions, not measurements
        if prev.get("tolerances"):
            out["tolerances"] = prev["tolerances"]
        write_suite_json(out, BASELINE_PATH)
        print(f"suite: updated {BASELINE_PATH}")

    if args.check:
        # a --scenario subset is gated against just those baseline records
        return regress.run_check(doc, args.check, only=args.scenario)
    return 0


def run_profile_cli(parser: argparse.ArgumentParser, args) -> int:
    """Handle ``--profile <scenario>`` without ``--suite``: cProfile it.

    Runs one registered suite scenario under :mod:`cProfile` and writes
    a sorted-by-cumulative-time report (the artifact CI uploads next to
    the ``BENCH_*.json``), echoing the hottest frames to stdout.
    """
    import cProfile
    import io
    import pstats
    import time

    from repro.bench import profiles
    from repro.bench.scenarios import SCENARIOS

    name = args.profile
    if name not in SCENARIOS:
        parser.error(
            f"--profile without --suite expects a scenario name; "
            f"unknown scenario {name!r} (known: {', '.join(SCENARIOS)})"
        )
    size = profiles.QUICK if args.quick else profiles.current()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    metrics = SCENARIOS[name](size)
    prof.disable()
    wall = time.perf_counter() - t0

    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(60)
    header = (
        f"# cProfile: scenario={name} profile={size.name} "
        f"wall={wall:.2f}s metrics={len(metrics)}\n"
    )
    path = args.profile_out or f"PROFILE_{name}.txt"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(buf.getvalue())
    print(header, end="")
    print("\n".join(buf.getvalue().splitlines()[:25]))
    print(f"profile: wrote {path}")
    return 0


def main(argv=None) -> int:
    """Entry point: run the requested figures and print tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the HPDC'16 GPU-datatype evaluation tables "
        "on the simulated cluster.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"which figures to run (default: all of {', '.join(FIGURES)})",
    )
    parser.add_argument("--list", action="store_true", help="list figures")
    parser.add_argument(
        "--suite",
        action="store_true",
        help="run the benchmark suite and write a BENCH_<label>.json "
        "trajectory point (simulated metrics + harness phase timings)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --suite: use the quick (CI) size profile",
    )
    parser.add_argument(
        "--profile",
        metavar="NAME",
        default=None,
        help="with --suite: explicit profile name (full|quick); "
        "default comes from REPRO_BENCH_PROFILE, else full. "
        "Without --suite: cProfile the named suite *scenario* and "
        "write a sorted-by-cumtime report (see --profile-out)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="with --profile <scenario> (no --suite): where to write "
        "the cProfile report (default: PROFILE_<scenario>.txt)",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        action="append",
        default=None,
        help="with --suite: run only this scenario (repeatable)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the suite scenario names and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with --suite: where to write the suite document "
        "(default: BENCH_<label>.json in the current directory)",
    )
    parser.add_argument(
        "--label",
        metavar="LABEL",
        default=None,
        help="with --suite: trajectory label (default: REPRO_BENCH_LABEL, "
        "else the short git hash)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="with --suite: compare the run against a baseline JSON and "
        "exit nonzero on regression",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"with --suite: also write the run to {BASELINE_PATH}",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one traced transfer per protocol and verify the "
        "stats/trace plumbing instead of regenerating figures",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="with --smoke or --suite: directory to keep the "
        "Chrome/Perfetto trace JSON files in (--smoke default: a "
        "temporary directory; --suite default: no trace)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        nargs="?",
        const="",
        default=None,
        help="with --smoke: run the chaos leg instead — inject "
        "seeded faults (drop/dup/delay/ipc-open/staging) and assert "
        "byte-exact delivery; SPEC is 'key=value,...' overriding the "
        "chaos defaults, e.g. 'seed=3,am_drop=0.2'",
    )
    parser.add_argument(
        "--sanitize",
        metavar="WHICH",
        nargs="?",
        const="all",
        default=None,
        help="install the repro.sanitize checkers for the run "
        "(WHICH: 'all' or a csv of mem,race,dev; default all); any "
        "violation aborts with a non-zero exit.  Off by default — "
        "benchmark numbers are only meaningful uninstrumented",
    )
    args = parser.parse_args(argv)

    if args.sanitize is not None:
        from repro import sanitize
        from repro.sanitize.options import SanitizeOptions

        sanitize.enable(SanitizeOptions.parse(args.sanitize))

    if args.list_scenarios:
        from repro.bench.scenarios import scenario_names

        for name in scenario_names():
            print(name)
        return 0

    if args.smoke:
        if args.faults is not None:
            from repro.bench.smoke import run_faults_smoke

            return run_faults_smoke(args.faults)
        from repro.bench.smoke import run_smoke

        return run_smoke(trace_dir=args.trace_out)

    if args.faults is not None:
        parser.error("--faults requires --smoke")

    if args.suite:
        return run_suite_cli(parser, args)
    if args.profile:
        return run_profile_cli(parser, args)
    for flag in ("quick", "scenario", "json", "label", "check"):
        if getattr(args, flag):
            parser.error(f"--{flag.replace('_', '-')} requires --suite")
    if args.profile_out:
        parser.error("--profile-out requires --profile <scenario>")
    if args.update_baseline:
        parser.error("--update-baseline requires --suite")

    if args.list:
        for name in FIGURES:
            print(name)
        return 0

    names = args.figures or list(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    for name in names:
        for series in run_figure(name):
            fmt = fmt_time
            if "GB/s" in series.title:
                fmt = lambda v: f"{v / 1e9:.2f}"  # noqa: E731
            series.show(fmt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
