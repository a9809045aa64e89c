"""Process-parallel fleet execution with deterministic merging.

Shards are independent by construction — a shard's result is a pure
function of its :class:`~repro.fleet.shard.ShardTask` — so
:func:`run_fleet` fans them out over the shared process-pool helper
(:func:`repro.experiments.pool.run_tasks`, the same machinery the
experiment matrix uses) and reassembles results **in shard-id order**, never
completion order.  Consequences, both gated by
``tests/test_fleet.py::TestDeterminism``:

* ``jobs=1`` and ``jobs=N`` produce byte-identical
  :meth:`~repro.fleet.result.FleetResult.canonical_json` output;
* with ``trace_path`` set, the merged JSON Lines trace is byte-identical
  across job counts: shards appear in shard-id order, each introduced by a
  ``shard`` header event, sequence numbers reassigned globally (the same
  merge discipline as the matrix's cell traces).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigError
from repro.experiments.pool import run_tasks
from repro.fleet.result import FleetResult, ShardResult, merge_shard_results
from repro.fleet.shard import ShardTask, execute_shard
from repro.fleet.topology import FleetConfig
from repro.obs.tracer import write_trace


def plan_shards(config: FleetConfig, trace: bool = False) -> list[ShardTask]:
    """The fleet's shard tasks, one per shard, in shard-id order."""
    config.validate()
    return [
        ShardTask(
            shard_id=shard_id,
            tenants=tenants,
            approach=config.approach,
            dedup_domain=config.dedup_domain,
            retained=config.retained,
            turnover=config.turnover,
            backup_period=config.backup_period,
            gc_period=config.gc_period,
            seed=config.seed,
            trace=trace,
            gc_mode=config.gc_mode,
            dedup_mode=config.dedup_mode,
            gc_step_period=config.gc_step_period,
            gc_mark_budget=config.gc_mark_budget,
            gc_sweep_budget=config.gc_sweep_budget,
            gc_trigger_deleted=config.gc_trigger_deleted,
            read_requests=config.read_requests,
            read_fraction=config.read_fraction,
        )
        for shard_id, tenants in enumerate(config.shard_tenants())
    ]


def _shard_header(task: ShardTask) -> dict:
    """The ``shard`` header event introducing one shard's stream in a
    merged trace (sequence number reassigned at merge time)."""
    return {
        "seq": 0,
        "name": "shard",
        "sim_time": 0.0,
        "duration": 0.0,
        "fields": {
            "shard_id": task.shard_id,
            "tenants": len(task.tenants),
            "approach": task.approach,
            "dedup_domain": task.dedup_domain,
        },
    }


def _merged_events(
    tasks: Sequence[ShardTask], events_by_shard: dict[int, list[dict]]
) -> Iterable[dict]:
    """Yield the merged fleet trace: shards in shard-id order, each behind
    its header event, sequence numbers reassigned globally."""
    seq = 0
    for task in tasks:
        header = _shard_header(task)
        header["seq"] = seq
        seq += 1
        yield header
        for event in events_by_shard.get(task.shard_id, []):
            yield {**event, "seq": seq}
            seq += 1


def run_fleet(
    config: FleetConfig,
    jobs: int | None = None,
    trace_path: str | os.PathLike | None = None,
    progress: Callable[[str], None] | None = None,
) -> FleetResult:
    """Execute the whole fleet; returns the merged :class:`FleetResult`.

    ``jobs=1`` runs shards serially in-process; ``jobs=N`` fans shards out
    over a process pool.  Either way the result (and, with ``trace_path``,
    the merged trace file) is byte-identical.  ``progress`` receives one
    line per completed shard plus a closing summary.
    """
    tracing = trace_path is not None
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    emit = progress or (lambda line: None)

    wall_started = time.perf_counter()
    tasks = plan_shards(config, trace=tracing)
    shard_results: dict[int, ShardResult] = {}
    events_by_shard: dict[int, list[dict]] = {}

    def finish(
        shard_id: int, outcome: tuple[dict, float, list[dict] | None], done: int
    ) -> None:
        data, seconds, events = outcome
        shard_results[shard_id] = ShardResult.from_dict(data)
        if events is not None:
            events_by_shard[shard_id] = events
        emit(
            f"[{done}/{len(tasks)}] shard {shard_id}: "
            f"{len(data['tenants'])} tenants, "
            f"{sum(data['requests'].values())} requests, {seconds:.1f}s"
        )

    run_tasks(
        [(task.shard_id, task) for task in tasks],
        execute_shard,
        jobs,
        finish,
    )

    if tracing:
        written = write_trace(trace_path, _merged_events(tasks, events_by_shard))
        emit(f"[trace] {written} events -> {trace_path}")

    result = merge_shard_results(
        approach=config.approach,
        dedup_domain=config.dedup_domain,
        num_tenants=len(config.tenants),
        num_shards=config.num_shards,
        seed=config.seed,
        shards=[shard_results[task.shard_id] for task in tasks],
    )
    result.wall_seconds = time.perf_counter() - wall_started
    result.jobs = jobs
    emit(result.summary() + f"; wall {result.wall_seconds:.1f}s at jobs={jobs}")
    return result
