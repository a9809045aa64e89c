"""Design-choice ablations beyond the paper's own sensitivity study.

DESIGN.md §5 commits to five ablations of choices the paper makes but does
not individually quantify:

* **packing** — tree order (§5.4's implementation) vs the explicit greedy
  §4.2 strategy vs random, on every dataset (Fig. 15a does this on MIX only);
* **vc-table** — exact set vs Bloom filter in the mark stage: space saved
  vs dead chunks retained by false positives;
* **split-denial** — the Analyzer's leaf-size threshold (§5.3 ③): cluster
  count and read amplification across thresholds;
* **restore-cache** — bounded restore caches vs the read-once model: how
  cache pressure inflates effective read amplification per approach;
* **reference-check** — the Analyzer's exact interned-id sets (the default)
  vs the paper's per-recipe Bloom filters (§5.3 ①) at two false-positive
  rates: what the filters' false positives do to the layout, and what
  building and probing them costs this interpreter.

Each function returns a rendered table; ``run`` concatenates all five.
"""

from __future__ import annotations

from repro.experiments.common import run_protocol
from repro.metrics.table import Column, ResultTable, fmt_float, fmt_mib
from repro.obs.tracer import Tracer

DATASETS = ("wiki", "code", "mix", "syn")

#: Sweep points, shared with :mod:`repro.experiments.matrix` so the parallel
#: runner enumerates exactly the cells these ablations consume.
PACKINGS = ("greedy", "tree", "random")
VC_DATASETS = ("web", "mix")
VC_TABLES = ("exact", "bloom")
SPLIT_DATASET = "mix"
SPLIT_THRESHOLDS = (0, 2, 4, 16, 64)
RESTORE_CACHE_DATASET = "mix"
RESTORE_CACHE_APPROACHES = ("naive", "gccdf")
RESTORE_CACHE_SIZES = (4, 16, 64, None)
REFERENCE_CHECK_DATASETS = ("code", "mix")
#: label → GCCDF overrides; the first row is the default configuration.
REFERENCE_CHECKS = {
    "exact ids": {"exact_reference_check": True},
    "bloom 1e-3": {"exact_reference_check": False, "bloom_fp_rate": 1e-3},
    "bloom 1e-2": {"exact_reference_check": False, "bloom_fp_rate": 1e-2},
}


def packing_ablation(scale: str = "quick") -> str:
    """Tree vs greedy vs random packing on every dataset."""
    table = ResultTable(
        title=f"Ablation — packing strategy (scale={scale})",
        columns=[
            Column("dataset", align="<"),
            Column("packing", align="<"),
            Column("mean read amp", format=fmt_float(3)),
            Column("restore MiB/s", format=fmt_mib()),
        ],
    )
    for dataset_name in DATASETS:
        for packing in PACKINGS:
            result = run_protocol("gccdf", dataset_name, scale, packing=packing)
            table.add_row(
                dataset_name.upper(),
                packing,
                result.mean_read_amplification,
                result.restore_speed,
            )
    return table.render()


def vc_table_ablation(scale: str = "quick") -> str:
    """Exact vs Bloom VC table: reclaimed space and physical residue."""
    table = ResultTable(
        title=f"Ablation — VC table type (scale={scale})",
        columns=[
            Column("dataset", align="<"),
            Column("vc table", align="<"),
            Column("reclaimed bytes"),
            Column("final physical bytes"),
            Column("mean read amp", format=fmt_float(3)),
        ],
    )
    for dataset_name in VC_DATASETS:
        for vc_table in VC_TABLES:
            result = run_protocol("gccdf", dataset_name, scale, vc_table=vc_table)
            reclaimed = sum(r.reclaimed_bytes for r in result.gc_reports)
            table.add_row(
                dataset_name.upper(),
                vc_table,
                reclaimed,
                result.physical_bytes,
                result.mean_read_amplification,
            )
    return table.render()


def split_denial_ablation(scale: str = "quick") -> str:
    """Analyzer split-denial threshold sweep on MIX."""
    table = ResultTable(
        title=f"Ablation — Analyzer split-denial threshold, MIX (scale={scale})",
        columns=[
            Column("threshold"),
            Column("mean read amp", format=fmt_float(3)),
            Column("GC analyze ms", format=lambda s: f"{s * 1000:.1f}"),
        ],
    )
    for threshold in SPLIT_THRESHOLDS:
        result = run_protocol(
            "gccdf", SPLIT_DATASET, scale, split_denial_threshold=threshold
        )
        analyze = sum(r.analyze_seconds for r in result.gc_reports)
        table.add_row(threshold, result.mean_read_amplification, analyze)
    return table.render()


def restore_cache_ablation(scale: str = "quick") -> str:
    """Bounded restore caches: read-once model vs LRU pressure."""
    table = ResultTable(
        title=f"Ablation — restore cache size, MIX (scale={scale})",
        columns=[
            Column("approach", align="<"),
            Column("cache (containers)", align="<"),
            Column("mean read amp", format=fmt_float(3)),
        ],
    )
    for approach in RESTORE_CACHE_APPROACHES:
        for cache in RESTORE_CACHE_SIZES:
            result = run_protocol(
                approach,
                RESTORE_CACHE_DATASET,
                scale,
                restore_cache_containers=cache,
            )
            table.add_row(
                approach,
                "unbounded" if cache is None else str(cache),
                result.mean_read_amplification,
            )
    return table.render()


class _ClusterCounter(Tracer):
    """Sums the Analyzer's per-segment cluster counts over a whole run."""

    def __init__(self) -> None:
        self.clusters = 0

    def emit(self, name, sim_time, duration=0.0, io=None, fields=None) -> None:
        if name == "gc.segment":
            self.clusters += fields["clusters"]


def reference_check_ablation(scale: str = "quick") -> str:
    """Exact id sets vs Bloom filters in the Analyzer's reference check.

    Simulated analyze time charges the paper's cost model (one operation per
    filter entry built and per probe) whichever structure answers, so it
    moves only with the clustering; the measured column is this
    interpreter's wall time for the same stage.  Because that column is a
    measurement, the runs always execute here, in sequence, outside the
    matrix and the run cache (a traced ``run_protocol`` call never serves a
    memoised result) — it is the one table of this module whose last column
    differs between invocations.
    """
    table = ResultTable(
        title=f"Ablation — Analyzer reference check (scale={scale})",
        columns=[
            Column("dataset", align="<"),
            Column("reference check", align="<"),
            Column("clusters"),
            Column("mean read amp", format=fmt_float(3)),
            Column("GC analyze ms", format=lambda s: f"{s * 1000:.1f}"),
            Column("(measured ms)", format=lambda s: f"{s * 1000:.1f}"),
        ],
    )
    for dataset_name in REFERENCE_CHECK_DATASETS:
        for label, overrides in REFERENCE_CHECKS.items():
            counter = _ClusterCounter()
            result = run_protocol(
                "gccdf", dataset_name, scale, use_cache=False, tracer=counter, **overrides
            )
            table.add_row(
                dataset_name.upper(),
                label,
                counter.clusters,
                result.mean_read_amplification,
                sum(r.analyze_seconds for r in result.gc_reports),
                sum(r.analyze_cpu_seconds for r in result.gc_reports),
            )
    return table.render()


def run(scale: str = "quick") -> str:
    return "\n\n".join(
        [
            packing_ablation(scale),
            vc_table_ablation(scale),
            split_denial_ablation(scale),
            restore_cache_ablation(scale),
            reference_check_ablation(scale),
        ]
    )


def main() -> None:
    print(run("quick"))


if __name__ == "__main__":
    main()
