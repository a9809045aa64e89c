"""Operator CLI: generate traces, simulate approaches, inspect layouts.

Four subcommands, usable as ``python -m repro.tools <cmd>`` or the
``repro`` console script:

* ``trace`` — materialise a dataset preset into a portable trace file
  (``repro trace --dataset mix --out mix.trace.gz``), or report statistics
  of an existing trace (``--stats``).
* ``simulate`` — run the rotation protocol for one approach over a preset
  or a trace file and print the result summary
  (``repro simulate --approach gccdf --dataset web``).
* ``inspect`` — run a small simulation and dump the analysis views:
  fragmentation profile, ownership stats, container purity, and (for small
  systems) the ASCII layout.  Every view reads containers, so it takes the
  container-based approaches only (not MFDedup's volumes).
* ``faults`` — crash-consistency smoke: inject a :class:`SimulatedCrash`
  at an armed point mid-protocol, run recovery, and verify zero errors
  (``repro faults --approach gccdf --point sweep.repoint``, or
  ``repro faults --matrix`` for every point × approach).

``repro`` is the package's one console script and the umbrella for its
other two tools: ``repro experiments`` and ``repro fleet`` forward their
remaining arguments to the corresponding tool's own parser.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.analysis.fragmentation import fragmentation_profile
from repro.analysis.layout import ownership_histogram, render_layout
from repro.analysis.ownership import container_purity, mean_purity, ownership_stats
from repro.backup.approaches import APPROACHES, make_service
from repro.backup.options import ServiceOptions
from repro.backup.driver import BackupSpec, RotationDriver
from repro.backup.verify import verify_service
from repro.config import SystemConfig
from repro.errors import SimulatedCrash
from repro.experiments.common import SCALES, get_scale
from repro.faults import CRASH_POINTS, FaultPlan, points_for, recover_service
from repro.util.units import format_bytes
from repro.workloads.datasets import DATASET_NAMES, dataset
from repro.workloads.trace import load_trace, save_trace, trace_stats


#: Approaches whose services store containers: every ``inspect`` view.
CONTAINER_APPROACHES = tuple(a for a in APPROACHES if a != "mfdedup")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, help="dataset preset")
    parser.add_argument("--trace", help="trace file to replay instead of a preset")
    parser.add_argument("--scale", type=float, default=0.25, help="workload scale")
    parser.add_argument("--backups", type=int, default=40, help="number of backups")
    parser.add_argument("--seed", type=int, default=2025, help="dataset seed")


def _workload(args: argparse.Namespace):
    if args.trace:
        return load_trace(args.trace)
    if not args.dataset:
        raise SystemExit("pass --dataset <preset> or --trace <file>")
    return dataset(
        args.dataset, scale=args.scale, num_backups=args.backups, seed=args.seed
    )


def _make_config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig.scaled(retained=args.retained, turnover=args.turnover)


def cmd_trace(args: argparse.Namespace) -> int:
    if args.stats:
        stats = trace_stats(args.stats)
        print(f"backups:             {stats['backups']}")
        print(f"chunks:              {stats['chunks']}")
        print(f"logical bytes:       {format_bytes(stats['logical_bytes'])}")
        print(f"unique fingerprints: {stats['unique_fingerprints']}")
        return 0
    if not args.out:
        raise SystemExit("pass --out <file> (or --stats <file>)")
    count = save_trace(args.out, _workload(args))
    print(f"wrote {count} backups to {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _make_config(args)
    service = make_service(args.approach, config)
    driver = RotationDriver(service, config.retention, dataset_name=args.dataset or "trace")
    result = driver.run(_workload(args))
    print(f"approach:            {result.approach}")
    print(f"backups ingested:    {len(result.ingest_reports)}")
    print(f"dedup ratio:         {result.dedup_ratio:.2f}")
    print(f"mean read amp:       {result.mean_read_amplification:.2f}")
    print(f"restore speed:       {result.restore_speed / (1 << 20):.1f} MiB/s (simulated)")
    print(f"GC rounds:           {len(result.gc_reports)}")
    for report in result.gc_reports:
        print(f"  {report.summary()}")
    print(f"final physical size: {format_bytes(result.physical_bytes)}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    config = _make_config(args)
    service = make_service(args.approach, config)
    driver = RotationDriver(service, config.retention, dataset_name=args.dataset or "trace")
    driver.run(_workload(args))

    stats = ownership_stats(service)
    print(stats.describe())
    purities = container_purity(service)
    print(f"containers: {len(purities)}, byte-weighted mean ownership purity "
          f"{mean_purity(purities):.2f}")
    live = service.live_backup_ids()
    if live:
        for backup_id in (live[0], live[-1]):
            profile = fragmentation_profile(service, backup_id)
            print(
                f"backup {backup_id}: amp {profile.read_amplification:.2f}, "
                f"{profile.containers_touched} containers, "
                f"mean utilization {profile.mean_utilization:.2f}"
            )
    print()
    print(ownership_histogram(service))
    if len(service.store) <= args.layout_limit:
        print()
        print(render_layout(service))
    return 0


#: Approaches the ``--matrix`` smoke covers: one classic-GC rewriter, the
#: paper's GCCDF, and the volume-structured MFDedup — together they reach
#: every crash point in :data:`~repro.faults.CRASH_POINTS`.
MATRIX_APPROACHES = ("capping", "gccdf", "mfdedup")

#: Hybrid-dedup spot rows added to the ``--matrix`` smoke: the two
#: approaches whose pipeline takes the hybrid path, armed at the coalesce
#: point, in both GC modes.
HYBRID_MATRIX_APPROACHES = ("naive", "gccdf")


def _duplicated_sources(backups):
    """Replay each backup under two source names (``…#a`` / ``…#b``).

    Hybrid ingest dedups a source's stream against its own neighbor
    window, so a single-source preset defers almost nothing; the mirrored
    second copy neighbor-misses everything, hits the ingest filter, and
    produces the deferred-duplicate population the ``gc.rededup`` point
    needs to actually fire.
    """
    for spec in backups:
        yield BackupSpec(source=f"{spec.source}#a", chunks=spec.chunks)
        yield BackupSpec(source=f"{spec.source}#b", chunks=spec.chunks)


def _fault_scenario(
    approach: str,
    point: str,
    occurrence: int,
    dataset_name: str,
    scale_name: str,
    gc_mode: str = "stw",
    dedup_mode: str = "inline",
) -> tuple[str, str]:
    """Run one crash/recover/verify scenario; return ``(status, detail)``.

    ``status`` is ``"ok"`` (crashed, recovered, verified clean),
    ``"skip"`` (the protocol finished before the armed occurrence was
    reached), or ``"fail"`` (verification errors survived recovery).

    In incremental GC mode the service runs a tightly budgeted
    :class:`~repro.gc.incremental.IncrementalGC` (so ``gc.increment``
    boundaries actually fire), and after recovery the interrupted cycle is
    *resumed* to completion and re-verified — the journal must end empty.

    In hybrid dedup mode the workload replays every backup under two
    source names (see :func:`_duplicated_sources`) so deferred duplicates
    exist and the ``gc.rededup`` point is reachable.
    """
    scale = get_scale(scale_name)
    plan = FaultPlan.single(point, occurrence)
    config = scale.config()
    gc_budget = None
    if gc_mode == "incremental":
        from repro.gc.incremental import GCBudget

        gc_budget = GCBudget(mark_recipes=3, sweep_containers=2, mfdedup_volumes=1)
    service = make_service(
        approach, config,
        ServiceOptions(
            faults=plan, gc_mode=gc_mode, gc_budget=gc_budget, dedup_mode=dedup_mode
        ),
    )
    driver = RotationDriver(service, config.retention, dataset_name=dataset_name)
    backups = dataset(
        dataset_name,
        scale=scale.workload_scale,
        num_backups=scale.num_backups(dataset_name),
    )
    if dedup_mode == "hybrid":
        backups = _duplicated_sources(backups)
    try:
        driver.run(backups)
    except SimulatedCrash as crash:
        report = recover_service(service)
        verification = verify_service(service)
        if verification.errors:
            first = verification.errors[0]
            return "fail", f"{len(verification.errors)} verify errors: {first}"
        detail = (
            f"crashed at sim_time={crash.context.get('sim_time', 0.0):.2f}s, "
            f"recovered ({report.summary()})"
        )
        if gc_mode == "incremental":
            service.run_gc()  # drains any journaled cycle left open by recovery
            followup = verify_service(service)
            if followup.errors:
                return "fail", (
                    f"{len(followup.errors)} verify errors after resume: "
                    f"{followup.errors[0]}"
                )
            journal = (
                service.volumes.journal
                if hasattr(service, "volumes")
                else service.store.journal
            )
            if len(journal):
                return "fail", f"{len(journal)} journal records left after resume"
            detail += ", cycle resumed to completion"
        return "ok", detail
    return "skip", f"point never reached (hits={plan.hits.get(point, 0)})"


def cmd_faults(args: argparse.Namespace) -> int:
    if args.matrix:
        scenarios = [
            (gc_mode, "inline", approach, point)
            for gc_mode in ("stw", "incremental")
            for approach in MATRIX_APPROACHES
            for point in points_for(approach, gc_mode=gc_mode)
        ]
        scenarios += [
            (gc_mode, "hybrid", approach, "gc.rededup")
            for gc_mode in ("stw", "incremental")
            for approach in HYBRID_MATRIX_APPROACHES
        ]
    elif args.point:
        scenarios = [(args.gc_mode, args.dedup_mode, args.approach, args.point)]
    else:
        raise SystemExit("pass --point <crash-point> or --matrix")

    failures = 0
    fired = 0
    for gc_mode, dedup_mode, approach, point in scenarios:
        status, detail = _fault_scenario(
            approach,
            point,
            args.occurrence,
            args.dataset,
            args.scale,
            gc_mode=gc_mode,
            dedup_mode=dedup_mode,
        )
        mode = gc_mode if dedup_mode == "inline" else f"{gc_mode}+hybrid"
        print(f"{status:<5} {mode:<18} {approach:<8} {point:<18} {detail}")
        if status == "fail":
            failures += 1
        elif status == "ok":
            fired += 1
    print(f"fired {fired}/{len(scenarios)} scenarios, {failures} failures")
    if failures:
        return 1
    if args.matrix and fired == 0:
        print("error: no scenario fired — the matrix exercised nothing")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCCDF reproduction toolbox (trace / simulate / inspect).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="write or inspect a backup trace")
    _add_workload_args(trace)
    trace.add_argument("--out", help="output trace path (.gz supported)")
    trace.add_argument("--stats", help="print statistics of an existing trace")
    trace.set_defaults(func=cmd_trace)

    for name, handler in (("simulate", cmd_simulate), ("inspect", cmd_inspect)):
        command = sub.add_parser(name, help=f"{name} an approach over a workload")
        _add_workload_args(command)
        command.add_argument(
            "--approach",
            choices=APPROACHES if name == "simulate" else CONTAINER_APPROACHES,
            default="gccdf",
            help="backup approach",
        )
        command.add_argument("--retained", type=int, default=20, help="retention window")
        command.add_argument("--turnover", type=int, default=5, help="deletions per round")
        if name == "inspect":
            command.add_argument(
                "--layout-limit",
                type=int,
                default=40,
                help="render the ASCII layout when at most this many containers",
            )
        command.set_defaults(func=handler)

    faults = sub.add_parser(
        "faults", help="inject a crash, recover, and verify consistency"
    )
    faults.add_argument(
        "--approach", choices=APPROACHES, default="gccdf", help="backup approach"
    )
    faults.add_argument(
        "--point", choices=CRASH_POINTS, help="crash point to arm (single scenario)"
    )
    faults.add_argument(
        "--occurrence", type=int, default=1, help="crash on the Nth hit of the point"
    )
    faults.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default="web",
        help="dataset preset (web reaches every crash point, including "
        "mfdedup.migrate)",
    )
    faults.add_argument(
        "--scale", choices=sorted(SCALES), default="quick", help="experiment scale"
    )
    faults.add_argument(
        "--gc-mode",
        choices=("stw", "incremental"),
        default="stw",
        help="GC mode for a single --point scenario (gc.increment only "
        "fires in incremental mode); --matrix always covers both",
    )
    faults.add_argument(
        "--dedup-mode",
        choices=("inline", "hybrid"),
        default="inline",
        help="dedup mode for a single --point scenario (gc.rededup only "
        "fires in hybrid mode, over a duplicated-source workload)",
    )
    faults.add_argument(
        "--matrix",
        action="store_true",
        help="run every crash point for capping, gccdf, and mfdedup, "
        "in both stop-the-world and incremental GC modes, plus hybrid-"
        "dedup gc.rededup spot rows for naive and gccdf",
    )
    faults.set_defaults(func=cmd_faults)

    # Forwarded tools appear in ``repro --help`` but are dispatched by
    # :func:`main` before argparse runs, each to its own parser.
    for name, (_, blurb) in sorted(FORWARDED_TOOLS.items()):
        sub.add_parser(name, help=blurb, add_help=False)
    return parser


#: Umbrella subcommands forwarded verbatim to another tool's parser:
#: name → (module whose ``main`` takes the remaining arguments, help blurb).
FORWARDED_TOOLS = {
    "experiments": ("repro.experiments.run", "paper figure/table runner"),
    "fleet": ("repro.fleet.cli", "sharded multi-tenant fleet"),
}


def _forwarded_main(tool: str):
    """The forwarded tool's ``main`` (imported lazily: the umbrella must
    not drag every tool's dependency graph into ``repro trace``)."""
    module, _ = FORWARDED_TOOLS[tool]
    return importlib.import_module(module).main


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in FORWARDED_TOOLS:
        return _forwarded_main(argv[0])(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
