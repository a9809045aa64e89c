"""Fig. 14 — GC time-cost breakdown (§6.4).

Per approach and dataset: total seconds spent in the mark, analyze,
sweep-read and sweep-write stages, summed over all GC rounds.  All four
stages are in simulated seconds — the analyze stage converts the
Analyzer/Planner operation count through a modelled per-op cost so it is
comparable with the I/O stages.  Analyze is zero for every approach but
GCCDF, which has no such stage.

Expected shape: mark is approach-independent; GCCDF's analyze stage is a
small fraction of its total; GCCDF's sweep-read/sweep-write shrink from the
second round on because it reclaims and produces fewer containers
(Fig. 13), typically making its total GC time competitive with or better
than Naïve's despite the added analysis.
"""

from __future__ import annotations

from repro.experiments.common import run_protocol
from repro.metrics.table import Column, ResultTable

APPROACHES = ("naive", "capping", "har", "smr", "mfdedup", "gccdf")
DATASETS = ("wiki", "code", "mix", "syn")


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def run(scale: str = "quick") -> str:
    blocks = []
    for dataset_name in DATASETS:
        table = ResultTable(
            title=(
                f"Fig. 14 — GC time breakdown (ms, summed over rounds), "
                f"{dataset_name.upper()} (scale={scale})"
            ),
            columns=[
                Column("approach", align="<"),
                Column("mark", format=_ms),
                Column("analyze", format=_ms),
                Column("sweep-read", format=_ms),
                Column("sweep-write", format=_ms),
                Column("total", format=_ms),
            ],
        )
        for approach in APPROACHES:
            result = run_protocol(approach, dataset_name, scale)
            mark = sum(r.mark_seconds for r in result.gc_reports)
            analyze = sum(r.analyze_seconds for r in result.gc_reports)
            sweep_read = sum(r.sweep_read_seconds for r in result.gc_reports)
            sweep_write = sum(r.sweep_write_seconds for r in result.gc_reports)
            table.add_row(
                approach,
                mark,
                analyze,
                sweep_read,
                sweep_write,
                mark + analyze + sweep_read + sweep_write,
            )
        blocks.append(table.render())
    return "\n\n".join(blocks)


def main() -> None:
    print(run("quick"))


if __name__ == "__main__":
    main()
