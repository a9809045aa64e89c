"""Benchmark-suite infrastructure.

Each benchmark regenerates one of the paper's tables/figures via the
``repro.experiments`` harness.  Scale comes from ``REPRO_BENCH_SCALE``
(default ``full`` — the paper's retention 100 / turnover 20 protocol;
set ``quick`` for a seconds-long smoke pass).

Before any benchmark runs, the protocol cells every *collected* figure
needs are satisfied in one parallel pass through
:func:`repro.experiments.run_matrix` — fanned out over
``REPRO_BENCH_JOBS`` worker processes (default: CPU count) and served from
the persistent run cache (disable with ``REPRO_BENCH_NO_CACHE=1``).  The
figure renderers then read the hydrated in-process memo, and the matrix's
per-cell wall-times are archived to ``benchmarks/results/BENCH_matrix.json``.

Rendered tables are persisted to ``benchmarks/results/<name>.txt`` and also
echoed in the terminal summary, so ``pytest benchmarks/ --benchmark-only``
output contains every reproduced figure.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import run_matrix
from repro.experiments.run import EXPERIMENTS

_RESULTS: dict[str, str] = {}
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "full")


@pytest.fixture(scope="session", autouse=True)
def _matrix_prewarm(request, bench_scale):
    """Run the experiment matrix for every collected figure up front."""
    modules = {item.module.__name__ for item in request.session.items}
    selected = sorted(
        name
        for name in EXPERIMENTS
        if any(module.startswith(f"test_{name}") for module in modules)
    )
    if not selected:
        return
    jobs = int(os.environ.get("REPRO_BENCH_JOBS") or 0) or None
    use_cache = not os.environ.get("REPRO_BENCH_NO_CACHE")
    summary = run_matrix(
        selected,
        scale=bench_scale,
        jobs=jobs,
        use_cache=use_cache,
        progress=lambda line: print(f"[matrix] {line}", flush=True),
    )
    # A no-op for experiments that need no protocol cells (table01, fig03).
    summary.write_json(_RESULTS_DIR / "BENCH_matrix.json")


@pytest.fixture
def record_table():
    """Register a rendered experiment table for summary + persistence."""

    def _record(name: str, text: str) -> None:
        _RESULTS[name] = text
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("GCCDF reproduction — regenerated tables & figures")
    for name in sorted(_RESULTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(_RESULTS[name])
