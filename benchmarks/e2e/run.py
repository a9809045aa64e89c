#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the whole backup life cycle.

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--traced]
        [--seconds S] [--out PATH] [--history PATH] [--selfcheck] [--quick]

Each workload runs in its own fresh child process, sequentially: closed
loop, one client, no threads, ``run_fleet(jobs=1)``.  The benchmark
contract's form is the same command with ``--workload W --seed N
--seconds S --trace 0|1``; either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The harness writes nothing except the paths it is given.  See README.md
next to this file for the metric tables and how to state a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BASELINE = HERE / "baseline.json"
#: The contract lets one run take 180 s; leave room to report.
MAX_LIMIT_S = 150.0
QUICK_LIMIT_S = 60.0


def _child(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print its result as JSON."""
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lifecycle
    from catalog import BY_NAME

    import_s = time.perf_counter() - started
    workload = BY_NAME[args.workload]
    if args.quick:
        workload = workload.quick()
    result = lifecycle.measure(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        import_s=import_s,
        limit_s=args.limit,
        enforce_checks=not args.quick,
        spans_path=args.spans,
    )
    result["wall_s"] = time.perf_counter() - started
    print(json.dumps(result))
    return 0


def _wall_limit(name: str, args: argparse.Namespace) -> float:
    """Per-workload wall limit: 10x the recorded baseline."""
    if args.watchdog:
        return args.watchdog
    if args.quick:
        return QUICK_LIMIT_S
    try:
        recorded = json.loads(BASELINE.read_text())["workloads"][name]["wall_s"]
    except (OSError, KeyError, ValueError):
        return MAX_LIMIT_S
    return min(MAX_LIMIT_S, 10 * recorded)


def run_workload(name: str, args: argparse.Namespace, trace: int) -> dict:
    """Run one workload in a fresh child process and return its result."""
    limit = _wall_limit(name, args)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
        "--limit",
        str(limit),
    ]
    if args.quick:
        command.append("--quick")
    if args.spans and trace:
        command += ["--spans", args.spans]
    failure = {"workload": name, "seed": args.seed, "correct": False, "attempted": 1, "failed": 1}
    try:
        # The child enforces the limit itself (and reports what it had);
        # this timeout only catches a child that cannot even do that.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=limit + 20)
    except subprocess.TimeoutExpired:
        return {**failure, "errors": [f"child killed after {limit + 20:.0f} s"]}
    if done.returncode != 0 or not done.stdout.strip():
        return {**failure, "errors": [f"child exited with code {done.returncode}"], "crashed": True}
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    from catalog import HARNESS_VERSION

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "seed": seed,
        "harness_version": HARNESS_VERSION,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _table(title: str, values: dict, specs: list[dict], bounds: bool) -> None:
    print(f"  {title}")
    for spec in specs:
        name = spec["name"]
        if name not in values:
            continue
        bound = f"  (bound {spec['bound']:.0%}, {spec['better']} is better)" if bounds else ""
        print(f"    {name:<40} {values[name]:>16.6g} {spec['unit']}{bound}")


def report(result: dict, contract: dict) -> None:
    """Print one workload's metrics by name, with units and sample counts."""
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    if "end_to_end" not in result:
        print(f"  no result: {result.get('errors')}")
        return
    samples = result["samples"]
    print(
        f"  passes {result['passes']} (+{result['traced_passes']} traced), "
        f"pass {result['pass_s']:.2f} s, child {result['wall_s']:.1f} s; per pass: "
        f"{samples['ingests']} ingests, {samples['gc_cycles']} GC cycles, "
        f"{samples['restores']} restores, {samples['pread_cold']} cold + "
        f"{samples['pread_hot']} hot preads"
    )
    _table("end to end", result["end_to_end"], contract["end_to_end"], bounds=True)
    if result["per_layer"]:
        _table("per layer (traced passes)", result["per_layer"], contract["per_layer"], bounds=False)
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    print("  exercised")
    for row in result["exercised"]:
        print(f"    {'ok  ' if row['ok'] else 'FAIL'} {row['check']:<44} (= {row['value']:.6g})")
    for error in result["errors"]:
        print(f"  error: {error}")


def sweep(names: list[str], args: argparse.Namespace, contract: dict) -> dict[str, dict]:
    """Run the named workloads one after another; returns name → result."""
    results = {}
    for name in names:
        result = run_workload(name, args, trace=args.trace)
        if args.traced and "end_to_end" in result:
            traced = run_workload(name, args, trace=1)
            if "per_layer" in traced:
                result["per_layer"] = traced["per_layer"]
                result["traced_passes"] = traced["traced_passes"]
                result["exercised"] = traced["exercised"]
                result["attempted"] += traced["attempted"]
                result["failed"] += traced["failed"]
                result["correct"] = result["correct"] and traced["correct"]
                result["errors"] = list(dict.fromkeys(result["errors"] + traced["errors"]))
                result["wall_s"] += traced["wall_s"]
            else:
                result = traced
        report(result, contract)
        results[name] = result
    return results


def selfcheck(first: dict[str, dict], second: dict[str, dict], contract: dict) -> bool:
    """Two sweeps of the same code must agree within the benchmark's own
    bounds on every end-to-end metric, exactly on ``sim_*`` and counts."""
    from catalog import EXACT_END_TO_END
    unresolved = []
    print("== selfcheck: sweep 1 vs sweep 2 ==")
    for name, a in first.items():
        b = second[name]
        if "end_to_end" not in a or "end_to_end" not in b:
            unresolved.append(f"{name}: no result")
            continue
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            spread = abs(x - y) / min(abs(x), abs(y))
            limit = 0.0 if metric in EXACT_END_TO_END else spec["bound"]
            verdict = "ok" if spread <= limit else "UNRESOLVED"
            print(f"  {name:<20} {metric:<26} {x:>14.6g} {y:>14.6g}  {spread:7.2%} of {limit:.0%}  {verdict}")
            if spread > limit:
                unresolved.append(f"{name}/{metric}: {spread:.2%} > {limit:.0%}")
        # ``attempted`` grows with the number of passes a run fits in its
        # time; the per-pass op counts and the failures must repeat.
        if a["samples"] != b["samples"] or a["failed"] != b["failed"]:
            unresolved.append(f"{name}: op counts differ")
    for line in unresolved:
        print(f"  unresolved: {line}")
    return not unresolved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="report end-to-end and per-layer metrics (two children per workload)")
    parser.add_argument("--quick", action="store_true", help="self-test sizes, one pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and compare within the bounds")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--history", help="append the result as one JSON Lines row")
    parser.add_argument("--spans", help="write the last traced pass's spans as JSON Lines")
    parser.add_argument("--watchdog", type=float, help="per-workload wall limit in seconds")
    parser.add_argument("--list", action="store_true", help="list the workloads and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--limit", type=float, default=MAX_LIMIT_S, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from catalog import WORKLOADS, load_contract

    contract = load_contract()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(contract["run_seconds"])
    if args.list:
        for workload in WORKLOADS:
            print(f"{workload.name:<22} {workload.why}")
        return 0
    names = [workload.name for workload in WORKLOADS]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    if args.child:
        return _child(args)

    # Fail before spawning anything when the program is not there.
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    results = sweep(names, args, contract)
    agreed = True
    if args.selfcheck:
        agreed = selfcheck(results, sweep(names, args, contract), contract)

    row = {"environment": environment(args.seed), "quick": args.quick,
           "seconds": args.seconds, "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(row, indent=1, sort_keys=True) + "\n")
    if args.history:
        with open(args.history, "a") as history:
            history.write(json.dumps(row, sort_keys=True) + "\n")

    if any(result.get("crashed") for result in results.values()):
        return 1
    # The contract's line: --trace 0 → end-to-end, --trace 1 → per-layer
    # (--traced: both); metric names are prefixed when several workloads ran.
    kinds = [kind for kind, wanted in (("end_to_end", args.traced or not args.trace),
                                       ("per_layer", args.traced or args.trace)) if wanted]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for kind in kinds:
            values = result.get(kind) or {}  # absent when the workload produced no pass
            for spec in contract[kind]:
                if spec["name"] in values:
                    metrics[prefix + spec["name"]] = {
                        "value": values[spec["name"]], "unit": spec["unit"]}
    correct = agreed and all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
