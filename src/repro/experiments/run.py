"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments.run --figure fig11 --scale full
    python -m repro.experiments.run --all --scale quick --jobs 4
    repro experiments --list                    # experiment index
    repro experiments --figure table01          # via the console script

Protocol cells are scheduled by :mod:`repro.experiments.matrix`: the cells
the selected figures need are enumerated up front, deduplicated (figures
11–14 share runs) and fanned out over ``--jobs`` worker processes.
Rendering then reads the hydrated in-process memo, so no cell runs twice.

Tables go to stdout, each followed by its render time; progress lines and
the matrix summary go to stderr.  Every table is a deterministic function
of the tree, identical across runs and ``--jobs`` values.  Per-cell and
total wall-times are written to ``benchmarks/results/BENCH_matrix.json``
(``--bench-json`` overrides the path) whenever at least one protocol cell
was needed.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError
from repro.experiments import common, matrix
from repro.experiments import (
    ablations,
    fig02,
    fig03,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    table01,
)

_MODULES = {
    "table01": table01,
    "fig02": fig02,
    "fig03": fig03,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "ablations": ablations,
}

EXPERIMENTS = {name: module.run for name, module in _MODULES.items()}


def describe(name: str) -> str:
    """One-line description of an experiment: its module docstring's head."""
    doc = _MODULES[name].__doc__ or ""
    first = doc.strip().splitlines()[0] if doc.strip() else ""
    return first.rstrip(".")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Regenerate the GCCDF paper's tables and figures.",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(EXPERIMENTS),
        action="append",
        help="experiment id (repeatable); see --list or DESIGN.md's index",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print experiment ids with one-line descriptions and exit",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(common.SCALES),
        default="quick",
        help="fidelity level (quick=seconds, full=the paper's protocol)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for protocol cells (default: CPU count)",
    )
    parser.add_argument(
        "--bench-json",
        default=matrix.DEFAULT_BENCH_PATH,
        metavar="PATH",
        help="where to write per-cell wall-times (default: %(default)s)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a merged JSONL trace of every cell's event stream "
        "(forces all cells to execute; see docs/observability.md)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name:<{width}}  {describe(name)}")
        return 0

    selected = sorted(EXPERIMENTS) if args.all else (args.figure or [])
    if not selected:
        parser.error("pass --figure <id> (repeatable), --all, or --list")

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        summary = matrix.run_matrix(
            selected,
            scale=args.scale,
            jobs=args.jobs,
            progress=progress,
            trace_path=args.trace,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    wrote = summary.write_json(args.bench_json)

    runs_after_matrix = common.protocol_runs()
    for name in selected:
        started = time.perf_counter()
        print(EXPERIMENTS[name](args.scale))
        elapsed = time.perf_counter() - started
        print(f"[{name} completed in {elapsed:.1f}s]\n")

    progress(
        "protocol re-runs while rendering (0 means the matrix covered "
        f"every cell): {common.protocol_runs() - runs_after_matrix}"
    )
    if wrote:
        progress(f"wall-times written to {args.bench_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
