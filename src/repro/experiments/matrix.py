"""Process-parallel experiment-matrix runner.

Figures 11–14, the ablations and the sensitivity sweep all project from the
same six-approach × four-dataset protocol runs, but the figure modules
execute cells lazily and serially.  This module turns the other side of
that coin into a scheduler:

1. :func:`cells_for` enumerates every protocol cell the selected
   experiments will request — declaratively, from the figure modules' own
   approach/dataset/sweep constants — and deduplicates across figures
   (fig12/13/14's cells are a subset of fig11's; the ablations share the
   plain GCCDF cells' datasets but carry overrides).
2. :func:`run_matrix` serves each cell from the per-process memo, merges
   cells whose resolved configurations are equal (config-dedup), and fans
   the remaining runs out over a
   :class:`~concurrent.futures.ProcessPoolExecutor`.
3. Completed runs are hydrated into ``common._RUN_CACHE`` under the exact
   keys :func:`~repro.experiments.common.run_protocol` computes, so the
   figure renderers run unmodified — and render in milliseconds.

Workers return :class:`~repro.backup.driver.RotationResult` as plain dicts
(``to_dict``/``from_dict``), which round-trip exactly, so a ``--jobs 4``
matrix renders byte-identical tables to a serial run.

With ``trace_path`` set, every cell runs under a
:class:`~repro.obs.tracer.TraceRecorder` (the memo is bypassed — a
memoised result has no events to replay) and the per-cell event streams are
merged into one JSON Lines file: cells in :func:`cells_for` enumeration
order, each introduced by a ``cell`` header event, sequence numbers
reassigned globally.  Because events carry only simulated time, the merged
file is byte-identical whichever worker ran which cell.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.backup.driver import RotationResult
from repro.errors import ConfigError
from repro.experiments import ablations, common, fig02, fig11, fig12, fig13, fig14, fig15
from repro.experiments.common import get_scale, run_protocol
from repro.experiments.pool import run_tasks
from repro.obs.tracer import TraceRecorder, Tracer, write_trace

#: Where cell wall-times land unless the caller overrides it.  Kept with
#: the other committed benchmark artifacts so a bare ``repro experiments``
#: run never litters the repository root.
DEFAULT_BENCH_PATH = "benchmarks/results/BENCH_matrix.json"


@dataclass(frozen=True)
class Cell:
    """One protocol cell: everything :func:`run_protocol` needs, picklable."""

    approach: str
    dataset: str
    scale: str
    vc_table: str | None = None
    restore_cache_containers: int | None = None
    #: Sorted ``(name, value)`` pairs of GCCDF overrides.
    gccdf_overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gccdf_overrides", tuple(sorted(self.gccdf_overrides)))

    def memo_key(self) -> tuple:
        return common.memo_key(
            self.approach,
            self.dataset,
            self.scale,
            self.vc_table,
            self.restore_cache_containers,
            self.gccdf_overrides,
        )

    def config_key(self) -> tuple:
        """The config-dedup key: everything the run depends on, with the
        overrides resolved into the (frozen, hashable) ``SystemConfig``.
        Cells with equal keys — e.g. an ablation overriding a knob with its
        default value — share one protocol run."""
        config = get_scale(self.scale).config(
            vc_table=self.vc_table,
            restore_cache_containers=self.restore_cache_containers,
            **dict(self.gccdf_overrides),
        )
        return (self.approach, self.dataset, self.scale, config)

    @property
    def label(self) -> str:
        """Compact human-readable cell id for progress lines and JSON."""
        extras = [f"{k}={v}" for k, v in self.gccdf_overrides]
        if self.vc_table is not None:
            extras.append(f"vc={self.vc_table}")
        if self.restore_cache_containers is not None:
            extras.append(f"rcache={self.restore_cache_containers}")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return f"{self.approach}/{self.dataset}@{self.scale}{suffix}"

    def run(self, tracer: Tracer | None = None) -> RotationResult:
        """Execute the cell in this process (bypassing the memo)."""
        return run_protocol(
            self.approach,
            self.dataset,
            self.scale,
            use_cache=False,
            vc_table=self.vc_table,
            restore_cache_containers=self.restore_cache_containers,
            tracer=tracer,
            **dict(self.gccdf_overrides),
        )

    def header_event(self, alias_of: str | None = None) -> dict:
        """The ``cell`` header event introducing this cell's stream in a
        merged trace (``alias_of`` marks config-dedup sharers)."""
        fields = {
            "label": self.label,
            "approach": self.approach,
            "dataset": self.dataset,
            "scale": self.scale,
        }
        if alias_of is not None:
            fields["alias_of"] = alias_of
        return {
            "seq": 0,  # reassigned at merge time
            "name": "cell",
            "sim_time": 0.0,
            "duration": 0.0,
            "fields": fields,
        }


def _grid(approaches: Sequence[str], datasets: Sequence[str], scale: str) -> list[Cell]:
    return [Cell(a, d, scale) for d in datasets for a in approaches]


def _fig15_cells(scale: str) -> list[Cell]:
    cells = [
        Cell("gccdf", fig15.DATASET, scale, gccdf_overrides=(("segment_size", size),))
        for size in fig15.SEGMENT_SIZES
    ]
    cells.append(Cell("gccdf", fig15.DATASET, scale, gccdf_overrides=(("packing", "random"),)))
    return cells


def _ablation_cells(scale: str) -> list[Cell]:
    cells = [
        Cell("gccdf", dataset, scale, gccdf_overrides=(("packing", packing),))
        for dataset in ablations.DATASETS
        for packing in ablations.PACKINGS
    ]
    cells += [
        Cell("gccdf", dataset, scale, vc_table=vc_table)
        for dataset in ablations.VC_DATASETS
        for vc_table in ablations.VC_TABLES
    ]
    cells += [
        Cell(
            "gccdf",
            ablations.SPLIT_DATASET,
            scale,
            gccdf_overrides=(("split_denial_threshold", threshold),),
        )
        for threshold in ablations.SPLIT_THRESHOLDS
    ]
    cells += [
        Cell(approach, ablations.RESTORE_CACHE_DATASET, scale, restore_cache_containers=size)
        for approach in ablations.RESTORE_CACHE_APPROACHES
        for size in ablations.RESTORE_CACHE_SIZES
    ]
    return cells


#: experiment id → cells it requests through ``run_protocol``.  table01 and
#: fig03 drive their own (cheap) inventory passes and need no cells.
CELL_BUILDERS: dict[str, Callable[[str], list[Cell]]] = {
    "table01": lambda scale: [],
    "fig02": lambda scale: _grid(fig02.APPROACHES, fig02.DATASETS, scale),
    "fig03": lambda scale: [],
    "fig11": lambda scale: _grid(fig11.APPROACHES, fig11.DATASETS, scale),
    "fig12": lambda scale: _grid(fig12.APPROACHES, fig12.DATASETS, scale),
    "fig13": lambda scale: _grid(fig13.APPROACHES, fig13.DATASETS, scale),
    "fig14": lambda scale: _grid(fig14.APPROACHES, fig14.DATASETS, scale),
    "fig15": _fig15_cells,
    "ablations": _ablation_cells,
}


def cells_for(experiments: Iterable[str], scale: str) -> tuple[Cell, ...]:
    """Every distinct cell the selected experiments need, in first-seen order."""
    spec = get_scale(scale)
    seen: dict[Cell, None] = {}
    for name in experiments:
        try:
            builder = CELL_BUILDERS[name]
        except KeyError:
            raise ConfigError(
                f"unknown experiment {name!r}; choose from {sorted(CELL_BUILDERS)}"
            ) from None
        for cell in builder(spec.name):
            seen.setdefault(cell, None)
    return tuple(seen)


def _execute_cell(payload: tuple[Cell, bool]) -> tuple[dict, float, list[dict] | None]:
    """Worker-side entry point: run one cell, ship the result as a dict
    (plus the cell's event stream as dicts when tracing)."""
    cell, trace = payload
    started = time.perf_counter()
    recorder = TraceRecorder() if trace else None
    result = cell.run(tracer=recorder)
    seconds = time.perf_counter() - started
    return result.to_dict(), seconds, recorder.to_dicts() if recorder else None


@dataclass(frozen=True)
class CellOutcome:
    """How one cell was satisfied and what it cost."""

    cell: Cell
    #: ``"run"`` (executed), ``"memo"`` (already in this process's memo),
    #: ``"dedup"`` (shared another pending cell's run because the resolved
    #: configs were identical — e.g. an ablation overriding a knob with its
    #: default value).
    source: str
    #: Wall-clock seconds of the protocol run (0 for memo and dedup hits).
    seconds: float


@dataclass
class MatrixSummary:
    """Everything a matrix invocation did, for summaries and BENCH json."""

    scale: str
    jobs: int
    outcomes: list[CellOutcome] = field(default_factory=list)
    #: Wall-clock seconds of the whole matrix pass.
    wall_seconds: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "run")

    @property
    def memo_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "memo")

    @property
    def dedup_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "dedup")

    @property
    def total_cell_seconds(self) -> float:
        """Sum of per-cell protocol wall-times (CPU-side work parallelised)."""
        return sum(o.seconds for o in self.outcomes)

    def format_summary(self) -> str:
        return (
            f"matrix: {len(self.outcomes)} cells at scale={self.scale}, jobs={self.jobs} — "
            f"{self.executed} executed, {self.memo_hits} memo hits, "
            f"{self.dedup_hits} config-dedup hits; "
            f"cell seconds {self.total_cell_seconds:.1f}, "
            f"wall {self.wall_seconds:.1f}s"
        )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "jobs": self.jobs,
            "cells_total": len(self.outcomes),
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "dedup_hits": self.dedup_hits,
            "total_cell_seconds": self.total_cell_seconds,
            "total_wall_seconds": self.wall_seconds,
            "cells": [
                {
                    "label": o.cell.label,
                    "approach": o.cell.approach,
                    "dataset": o.cell.dataset,
                    "scale": o.cell.scale,
                    "vc_table": o.cell.vc_table,
                    "restore_cache_containers": o.cell.restore_cache_containers,
                    "gccdf_overrides": dict(o.cell.gccdf_overrides),
                    "source": o.source,
                    "seconds": o.seconds,
                }
                for o in self.outcomes
            ],
        }

    def write_json(self, path: str | os.PathLike = DEFAULT_BENCH_PATH) -> bool:
        """Persist per-cell and total wall-time (the BENCH_matrix.json file).

        A run without protocol cells (``table01``, ``fig03``) writes nothing
        and returns False: an empty summary would only clobber an archived
        matrix with zero cells and a fresh wall-time stamp.
        """
        if not self.outcomes:
            return False
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return True


def _merged_events(
    cells: Sequence[Cell],
    pending: dict[tuple, list[Cell]],
    events_by_key: dict[tuple, list[dict]],
):
    """Yield the merged trace stream, deterministically.

    Cells appear in :func:`cells_for` enumeration order — never in worker
    completion order — each introduced by a ``cell`` header event.  The
    representative of a config-dedup group carries the group's events;
    sharers get an ``alias_of`` header and no events.  Sequence numbers are
    reassigned globally so the file reads as one dense stream.
    """
    seq = 0
    for cell in cells:
        key = cell.config_key()
        representative = pending[key][0]
        if cell is representative:
            header = cell.header_event()
        else:
            header = cell.header_event(alias_of=representative.label)
        header["seq"] = seq
        seq += 1
        yield header
        if cell is representative:
            for event in events_by_key.get(key, []):
                yield {**event, "seq": seq}
                seq += 1


def run_matrix(
    experiments: Iterable[str],
    scale: str = "quick",
    jobs: int | None = None,
    progress: Callable[[str], None] | None = None,
    trace_path: str | os.PathLike | None = None,
) -> MatrixSummary:
    """Satisfy every cell the selected experiments need, in parallel.

    Afterwards ``common._RUN_CACHE`` holds all results, so rendering the
    experiments costs no protocol runs.  ``jobs=1`` runs the cells serially
    in-process, with no worker pool.

    ``trace_path`` writes a merged JSON Lines trace of every cell's event
    stream.  Tracing forces every cell to execute (memo *loads* are
    bypassed — a memoised result carries no events), but completed runs
    are still memoised.
    """
    spec = get_scale(scale)
    tracing = trace_path is not None
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    emit = progress or (lambda line: None)

    wall_started = time.perf_counter()
    cells = cells_for(experiments, spec.name)
    outcomes: dict[Cell, CellOutcome] = {}
    # Pending cells grouped by config-dedup key: cells whose resolved
    # configs are identical share one protocol run.
    pending: dict[tuple, list[Cell]] = {}
    events_by_key: dict[tuple, list[dict]] = {}
    for cell in cells:
        if not tracing and common.memoized(cell.memo_key()) is not None:
            outcomes[cell] = CellOutcome(cell, "memo", 0.0)
            continue
        pending.setdefault(cell.config_key(), []).append(cell)

    def finish(
        key: tuple, outcome: tuple[dict, float, list[dict] | None], done: int
    ) -> None:
        data, seconds, events = outcome
        result = RotationResult.from_dict(data)
        representative, *sharers = pending[key]
        if events is not None:
            events_by_key[key] = events
        for cell in pending[key]:
            common.hydrate(cell.memo_key(), result)
        outcomes[representative] = CellOutcome(representative, "run", seconds)
        for cell in sharers:
            outcomes[cell] = CellOutcome(cell, "dedup", 0.0)
        shared = f" (+{len(sharers)} shared)" if sharers else ""
        emit(f"[{done}/{len(pending)}] {representative.label}: {seconds:.1f}s{shared}")

    run_tasks(
        [(key, (group[0], tracing)) for key, group in pending.items()],
        _execute_cell,
        jobs,
        finish,
    )

    if tracing:
        written = write_trace(trace_path, _merged_events(cells, pending, events_by_key))
        emit(f"[trace] {written} events -> {trace_path}")

    summary = MatrixSummary(
        scale=spec.name,
        jobs=jobs,
        outcomes=[outcomes[cell] for cell in cells],
        wall_seconds=time.perf_counter() - wall_started,
    )
    emit(summary.format_summary())
    return summary
