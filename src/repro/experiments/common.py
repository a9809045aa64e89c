"""Shared experiment infrastructure: scales, protocol runs, and their memo.

Three scales trade fidelity for runtime.  Backup counts shrink
proportionally with the retention window so every scale performs the same
*number of GC rounds* as the paper's protocol would:

* ``quick``  — retention 20/5, ~0.15× working sets; seconds.  Used by tests.
* ``medium`` — retention 50/10, 0.5× working sets; tens of seconds.
* ``full``   — the paper's retention 100/20 at 1.0× working sets; minutes.
  Used by the benchmark suite that regenerates the figures.

Figures 11–14 read different projections of the *same* six-approach ×
four-dataset protocol runs, so completed runs are memoised per process.
A run's :class:`~repro.backup.driver.RotationResult` is a pure function of
its inputs, so nothing outlives the process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.backup.driver import RotationDriver, RotationResult
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.workloads.datasets import dataset as make_dataset

#: Paper backup counts per dataset (Table 1 / §3.1).
PAPER_BACKUP_COUNTS = {"wiki": 120, "code": 220, "mix": 200, "syn": 240, "web": 100}


@dataclass(frozen=True)
class ExperimentScale:
    """One fidelity level for running the protocol."""

    name: str
    retained: int
    turnover: int
    workload_scale: float

    def num_backups(self, dataset_name: str) -> int:
        """Backup count preserving the paper's GC-round structure."""
        paper_count = PAPER_BACKUP_COUNTS[dataset_name]
        return max(
            self.retained + self.turnover,
            round(paper_count * self.retained / 100),
        )

    def config(
        self,
        vc_table: str | None = None,
        restore_cache_containers: int | None = None,
        **gccdf_overrides,
    ) -> SystemConfig:
        config = SystemConfig.scaled(retained=self.retained, turnover=self.turnover)
        if gccdf_overrides:
            config = config.with_gccdf(**gccdf_overrides)
        if vc_table is not None or restore_cache_containers is not None:
            config = replace(
                config,
                vc_table=vc_table if vc_table is not None else config.vc_table,
                restore_cache_containers=(
                    restore_cache_containers
                    if restore_cache_containers is not None
                    else config.restore_cache_containers
                ),
            )
            config.validate()
        return config


SCALES = {
    "quick": ExperimentScale("quick", retained=20, turnover=5, workload_scale=0.15),
    "medium": ExperimentScale("medium", retained=50, turnover=10, workload_scale=0.5),
    "full": ExperimentScale("full", retained=100, turnover=20, workload_scale=1.0),
}


def get_scale(name: str | ExperimentScale) -> ExperimentScale:
    if isinstance(name, ExperimentScale):
        return name
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None


_RUN_CACHE: dict[tuple, RotationResult] = {}

#: Protocol executions (actual driver runs) in this process; the matrix CLI
#: prints how many happened while rendering, proving the matrix covered
#: every cell.
_PROTOCOL_RUNS = 0


def protocol_runs() -> int:
    """Number of protocol cells actually executed (not served from the
    memo) by this process since import."""
    return _PROTOCOL_RUNS


def memo_key(
    approach: str,
    dataset_name: str,
    scale_name: str,
    vc_table: str | None = None,
    restore_cache_containers: int | None = None,
    gccdf_overrides: tuple[tuple[str, object], ...] = (),
) -> tuple:
    """The in-process memo key for one protocol cell.

    Shared with the matrix runner (:mod:`repro.experiments.matrix`), which
    hydrates ``_RUN_CACHE`` under exactly these keys so the figure renderers
    hit the memo instead of re-running protocols.
    """
    return (
        approach,
        dataset_name,
        scale_name,
        vc_table,
        restore_cache_containers,
        tuple(sorted(gccdf_overrides)),
    )


def memoized(key: tuple) -> RotationResult | None:
    """Look up a completed run in the per-process memo."""
    return _RUN_CACHE.get(key)


def hydrate(key: tuple, result: RotationResult) -> None:
    """Install a run produced elsewhere (a worker process, a config-dedup
    sharer) into the per-process memo."""
    _RUN_CACHE[key] = result


def run_protocol(
    approach: str,
    dataset_name: str,
    scale: str | ExperimentScale = "quick",
    use_cache: bool = True,
    vc_table: str | None = None,
    restore_cache_containers: int | None = None,
    tracer=None,
    **gccdf_overrides,
) -> RotationResult:
    """Run the §6.1 protocol for one (approach, dataset) pair.

    Results are memoised per process (figures 11–14 share runs); extra
    overrides (GCCDF knobs, ``vc_table``, ``restore_cache_containers``)
    force a fresh run memoised under its own key.

    ``tracer`` attaches a :class:`~repro.obs.tracer.Tracer` to the run's
    simulated disk.  A traced call always executes the protocol (a memoised
    result has no events to replay), but still memoises its result, since
    tracing never changes it.
    """
    scale = get_scale(scale)
    key = memo_key(
        approach,
        dataset_name,
        scale.name,
        vc_table,
        restore_cache_containers,
        tuple(gccdf_overrides.items()),
    )
    if use_cache and tracer is None and key in _RUN_CACHE:
        return _RUN_CACHE[key]
    global _PROTOCOL_RUNS
    _PROTOCOL_RUNS += 1
    config = scale.config(
        vc_table=vc_table,
        restore_cache_containers=restore_cache_containers,
        **gccdf_overrides,
    )
    service = make_service(approach, config, ServiceOptions(tracer=tracer))
    driver = RotationDriver(service, config.retention, dataset_name=dataset_name)
    backups = make_dataset(
        dataset_name,
        scale=scale.workload_scale,
        num_backups=scale.num_backups(dataset_name),
    )
    result = driver.run(backups)
    if use_cache:
        _RUN_CACHE[key] = result
    return result


def clear_cache() -> None:
    """Drop memoised protocol runs (tests use this for isolation)."""
    _RUN_CACHE.clear()
