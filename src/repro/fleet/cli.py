"""``repro fleet`` — run a sharded multi-tenant backup fleet.

Usage::

    repro fleet --preset quick --jobs 4
    repro fleet --tenants 1200 --shards 8 --domain shared --jobs 4 \\
        --out fleet.json --trace fleet_trace.jsonl
    python -m repro.tools fleet --preset quick --domain tenant

Presets fix a synthetic fleet's size (tenants, shards, per-tenant backup
counts, workload scale, stream pool); every knob can be overridden
individually.  The fleet result summary goes to stdout (byte-stable across
``--jobs`` values); progress lines go to stderr; ``--out`` writes the full
:class:`~repro.fleet.result.FleetResult` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.backup.approaches import APPROACHES
from repro.errors import ConfigError
from repro.fleet.runner import run_fleet
from repro.fleet.topology import DEDUP_DOMAINS, FleetConfig
from repro.util.units import format_bytes
from repro.workloads.datasets import DATASET_NAMES

#: Synthetic fleet presets: (tenants, shards, backups/tenant, workload
#: scale, stream pool, retained, turnover).  ``quick`` is the CI smoke;
#: ``medium`` is the headline scale (thousands of tenants, millions of
#: chunk ops); ``large`` is for dedicated machines.
FLEET_PRESETS = {
    "quick": dict(
        num_tenants=48, num_shards=6, backups_per_tenant=8,
        workload_scale=0.03, stream_pool=6, retained=4, turnover=2,
    ),
    "medium": dict(
        num_tenants=1200, num_shards=8, backups_per_tenant=10,
        workload_scale=0.05, stream_pool=12, retained=6, turnover=2,
    ),
    "large": dict(
        num_tenants=4000, num_shards=16, backups_per_tenant=12,
        workload_scale=0.05, stream_pool=16, retained=8, turnover=2,
    ),
}


def resolve_preset(name: str) -> dict:
    """The preset's parameter dict, or a :class:`ConfigError` naming the
    valid presets — never a silent fallback or a bare ``KeyError``."""
    try:
        return dict(FLEET_PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown fleet preset {name!r}; choose from {sorted(FLEET_PRESETS)}"
        ) from None


def build_config(args: argparse.Namespace) -> FleetConfig:
    """Resolve preset + overrides into a validated :class:`FleetConfig`."""
    params = resolve_preset(args.preset)
    if args.tenants is not None:
        params["num_tenants"] = args.tenants
    if args.shards is not None:
        params["num_shards"] = args.shards
    if args.backups is not None:
        params["backups_per_tenant"] = args.backups
    if args.workload_scale is not None:
        params["workload_scale"] = args.workload_scale
    if args.stream_pool is not None:
        params["stream_pool"] = args.stream_pool or None
    if args.retained is not None:
        params["retained"] = args.retained
    if args.turnover is not None:
        params["turnover"] = args.turnover
    datasets = tuple(
        name.strip() for name in args.datasets.split(",") if name.strip()
    )
    return FleetConfig.synthetic(
        params.pop("num_tenants"),
        params.pop("num_shards"),
        datasets=datasets,
        approach=args.approach,
        dedup_domain=args.domain,
        gc_mode=args.gc_mode,
        dedup_mode=args.dedup_mode,
        gc_step_period=args.gc_step_period,
        gc_mark_budget=args.gc_mark_budget,
        gc_sweep_budget=args.gc_sweep_budget,
        gc_trigger_deleted=args.gc_trigger,
        read_requests=args.reads,
        read_fraction=args.read_fraction,
        seed=args.seed,
        **params,
    )


def print_result(result, verbose: bool) -> None:
    print(f"approach:            {result.approach}")
    print(f"dedup domain:        {result.dedup_domain}")
    print(f"tenants / shards:    {result.num_tenants} / {result.num_shards}")
    print(f"requests executed:   {result.total_requests}")
    print(f"chunk operations:    {result.chunk_ops}")
    print(f"fleet dedup ratio:   {result.dedup_ratio:.2f}")
    print(f"mean read amp:       {result.mean_read_amplification:.2f}")
    print(f"restore speed:       {result.restore_speed / (1 << 20):.1f} MiB/s (simulated)")
    counters = result.metrics.get("counters", {})
    print(
        "workload cache:      "
        f"{counters.get('runtime.workload_cache.hits', 0)} hits / "
        f"{counters.get('runtime.workload_cache.misses', 0)} misses"
    )
    physical = counters.get("service.physical_bytes", 0)
    print(f"physical bytes:      {format_bytes(int(physical))}")
    if counters.get("read.requests", 0):
        quantiles = result.read_latency_quantiles()
        print(
            "read latency:        "
            f"p50 {quantiles['p50'] * 1000:.2f}ms / "
            f"p99 {quantiles['p99'] * 1000:.2f}ms / "
            f"max {quantiles['max'] * 1000:.2f}ms (simulated, "
            f"{int(counters['read.requests'])} reads)"
        )
    if verbose:
        for shard in result.shards:
            print(
                f"  shard {shard.shard_id}: {len(shard.tenants)} tenants, "
                f"{sum(shard.requests.values())} requests, "
                f"dedup {shard.dedup_ratio:.2f}, "
                f"{format_bytes(shard.stats.get('physical_bytes', 0))} stored"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Sharded multi-tenant backup fleet on simulated time.",
    )
    parser.add_argument(
        "--preset", default="quick",
        help=f"synthetic fleet size preset, one of {sorted(FLEET_PRESETS)} "
        "(default: %(default)s)",
    )
    parser.add_argument("--tenants", type=int, help="override tenant count")
    parser.add_argument("--shards", type=int, help="override shard count")
    parser.add_argument(
        "--approach", choices=APPROACHES, default="gccdf", help="backup approach"
    )
    parser.add_argument(
        "--domain", choices=DEDUP_DOMAINS, default="shared",
        help="dedup domain: shared (cross-tenant per shard) or tenant (isolated)",
    )
    parser.add_argument(
        "--datasets", default="web,mix,code,syn",
        help="comma-separated dataset presets tenants round-robin over",
    )
    parser.add_argument("--backups", type=int, help="override backups per tenant")
    parser.add_argument(
        "--workload-scale", type=float, help="override per-tenant workload scale"
    )
    parser.add_argument(
        "--stream-pool", type=int,
        help="distinct streams per dataset (0 = every tenant unique)",
    )
    parser.add_argument("--retained", type=int, help="override retention window")
    parser.add_argument("--turnover", type=int, help="override per-rotation deletions")
    parser.add_argument(
        "--gc-mode", choices=("stw", "incremental"), default="stw",
        help="GC execution mode: stop-the-world epochs or budgeted "
        "increments interleaved with foreground traffic (default: %(default)s)",
    )
    parser.add_argument(
        "--dedup-mode", choices=("inline", "hybrid"), default="inline",
        help="dedup mode: inline full-index probes, or hybrid "
        "neighbor/Bloom classification with GC-time coalescing "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--gc-step-period", type=float, default=0.25,
        help="simulated time between gc_step requests in incremental mode "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--gc-mark-budget", type=int, default=8,
        help="recipes marked per GC increment (default: %(default)s)",
    )
    parser.add_argument(
        "--gc-sweep-budget", type=int, default=4,
        help="sweep sources / MFDedup volumes per GC increment (default: %(default)s)",
    )
    parser.add_argument(
        "--gc-trigger", type=int, default=1,
        help="pending deletions required before an epoch starts a new "
        "incremental cycle (default: %(default)s)",
    )
    parser.add_argument(
        "--reads", type=int, default=0,
        help="jittered point reads per tenant against its oldest live "
        "backup, after the restore phase (default: %(default)s = none)",
    )
    parser.add_argument(
        "--read-fraction", type=float, default=0.0625,
        help="fraction of the backup's logical size each point read covers "
        "(default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=2025, help="fleet seed")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for shards (default: CPU count)",
    )
    parser.add_argument("--out", metavar="PATH", help="write FleetResult JSON here")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write the merged JSONL trace of every shard's event stream",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print per-shard summary lines"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    for name in args.datasets.split(","):
        if name.strip() and name.strip() not in DATASET_NAMES:
            parser.error(f"unknown dataset {name.strip()!r}; choose from {DATASET_NAMES}")

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        config = build_config(args)
        result = run_fleet(
            config, jobs=args.jobs, trace_path=args.trace, progress=progress
        )
    except ConfigError as exc:
        parser.error(str(exc))

    print_result(result, verbose=args.verbose)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        progress(f"result written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
