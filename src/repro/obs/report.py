"""Rebuild the Fig. 14 GC breakdown from an emitted trace file alone.

A merged matrix trace (``repro experiments --trace runs.jsonl``) contains,
per protocol cell, the full span stream the instrumented pipeline emitted:
``gc.mark`` and ``gc.analyze`` spans carry their simulated duration, and
the ``gc.sweep`` span carries its phase-diffed I/O payload, whose
``read_seconds``/``write_seconds`` split is exactly the sweep-read /
sweep-write distinction of the paper's Fig. 14.  This module re-derives the
per-stage, per-approach, per-dataset breakdown *from the trace only* — no
run cache, no figure memo — which is the acceptance check that the trace
stream is a faithful record of the run.

Usage::

    python -m repro.obs.report runs.jsonl
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.metrics.table import Column, ResultTable
from repro.obs.tracer import read_trace


@dataclass
class StageTotals:
    """Summed simulated seconds per GC stage for one protocol cell."""

    mark: float = 0.0
    analyze: float = 0.0
    sweep_read: float = 0.0
    sweep_write: float = 0.0
    rounds: int = 0

    @property
    def total(self) -> float:
        return self.mark + self.analyze + self.sweep_read + self.sweep_write


@dataclass
class CellTrace:
    """One cell's identity and accumulated stage totals."""

    label: str
    approach: str
    dataset: str
    scale: str
    alias_of: str | None = None
    stages: StageTotals = field(default_factory=StageTotals)


def collect_cells(events: Iterable[Mapping]) -> list[CellTrace]:
    """Fold a merged trace's events into per-cell stage totals.

    ``cell`` header events delimit cells; config-dedup aliases (cells whose
    resolved configs shared one run) carry ``alias_of`` and inherit the
    representative's totals at resolution time.
    """
    cells: list[CellTrace] = []
    current: CellTrace | None = None
    for event in events:
        name = event["name"]
        if name == "cell":
            fields = event.get("fields", {})
            current = CellTrace(
                label=fields["label"],
                approach=fields["approach"],
                dataset=fields["dataset"],
                scale=fields["scale"],
                alias_of=fields.get("alias_of"),
            )
            cells.append(current)
            continue
        if current is None:
            continue
        stages = current.stages
        if name == "gc.mark":
            stages.mark += event["duration"]
            stages.rounds += 1
        elif name == "gc.analyze":
            stages.analyze += event["duration"]
        elif name == "gc.sweep":
            io = event.get("io") or {}
            stages.sweep_read += io.get("read_seconds", 0.0)
            stages.sweep_write += io.get("write_seconds", 0.0)
        elif name == "gc.purge":
            # MFDedup's deletion-only GC annotates its Fig. 14 sweep-write
            # accounting (seek-only metadata unlinks) on the purge span.
            # Container-based GC emits ``gc.purge`` as a plain point event,
            # so this adds nothing there.
            stages.sweep_write += event.get("fields", {}).get("sweep_write_seconds", 0.0)

    by_label = {cell.label: cell for cell in cells}
    for cell in cells:
        if cell.alias_of is not None and cell.alias_of in by_label:
            cell.stages = by_label[cell.alias_of].stages
    return cells


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def gc_breakdown(events: Iterable[Mapping]) -> str:
    """Render the per-stage GC time breakdown tables from trace events.

    Mirrors the Fig. 14 table shape (mark / analyze / sweep-read /
    sweep-write / total, in ms, summed over GC rounds), one block per
    dataset, approaches in first-seen order.  The measured-CPU column of
    the live figure is intentionally absent: wall-clock never enters the
    trace, so it cannot come back out.
    """
    cells = collect_cells(events)
    datasets: list[str] = []
    approaches: list[str] = []
    by_key: dict[tuple[str, str], CellTrace] = {}
    scale = cells[0].scale if cells else "?"
    for cell in cells:
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
        if cell.approach not in approaches:
            approaches.append(cell.approach)
        # Plain cells only: override cells (fig15/ablations) have the same
        # (approach, dataset) key and would double-count stages.
        by_key.setdefault((cell.approach, cell.dataset), cell)

    blocks = []
    for dataset in datasets:
        table = ResultTable(
            title=(
                f"GC time breakdown from trace (ms, summed over rounds), "
                f"{dataset.upper()} (scale={scale})"
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
        for approach in approaches:
            cell = by_key.get((approach, dataset))
            if cell is None:
                continue
            stages = cell.stages
            table.add_row(
                approach,
                stages.mark,
                stages.analyze,
                stages.sweep_read,
                stages.sweep_write,
                stages.total,
            )
        blocks.append(table.render())
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Rebuild the Fig. 14 GC breakdown from a trace file.",
    )
    parser.add_argument("trace", help="merged JSONL trace (repro experiments --trace)")
    args = parser.parse_args(argv)
    if not os.path.isfile(args.trace):
        parser.error(f"no such trace file: {args.trace}")
    print(gc_breakdown(read_trace(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
