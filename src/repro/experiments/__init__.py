"""Experiment harness: one module per table/figure of the paper.

=========  ==========================================================
module     reproduces
=========  ==========================================================
table01    Table 1 — dataset inventory
fig02      Fig. 2 — motivation: dedup ratio & restore speed (§3.1)
fig03      Fig. 3 — MFDedup migration overhead (§3.1)
fig11      Fig. 11 — overall dedup ratio vs restore performance
fig12      Fig. 12 — read amplification per retained backup
fig13      Fig. 13 — container distribution during GC
fig14      Fig. 14 — GC time-cost breakdown
fig15      Fig. 15 — sensitivity: segment size & packing strategy
=========  ==========================================================

Each module exposes ``run(scale) -> str`` returning the rendered tables;
``python -m repro.experiments.run --figure fig11 --scale full`` drives them
from the command line, and the ``benchmarks/`` suite wraps the same calls.
"""

from repro.experiments.common import (
    SCALES,
    ExperimentScale,
    clear_cache,
    get_scale,
    protocol_runs,
    run_protocol,
)
from repro.experiments.matrix import Cell, MatrixSummary, cells_for, run_matrix

__all__ = [
    "SCALES",
    "Cell",
    "ExperimentScale",
    "MatrixSummary",
    "cells_for",
    "clear_cache",
    "get_scale",
    "protocol_runs",
    "run_matrix",
    "run_protocol",
]
