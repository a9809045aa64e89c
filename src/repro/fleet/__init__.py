"""Sharded multi-tenant backup fleet on deterministic simulated time.

A real backup appliance serves many unrelated sources at once — the regime
where neighbor-only dedup collapses and GC cost compounds (paper §3.1).
This package promotes that regime to a first-class engine:

* :mod:`~repro.fleet.topology` — N tenants hashed across M shards via a
  stable BLAKE2b placement; ``shared`` vs ``tenant`` dedup domains.
* :mod:`~repro.fleet.scheduler` — a deterministic simulated-time scheduler
  interleaving per-tenant ingest/rotate/restore requests with shard-level
  GC epochs.
* :mod:`~repro.fleet.shard` — one shard's execution: columnar
  :class:`~repro.backup.service.BackupService` instances, the request
  loop, per-shard metrics, and shard-scoped workload-stream memoization.
* :mod:`~repro.fleet.runner` — process-parallel shard fan-out (shared pool
  machinery with the experiment matrix) with deterministic result and
  trace merging: ``jobs=1`` is byte-identical to ``jobs=N``.
* :mod:`~repro.fleet.result` — per-shard and fleet-aggregated results
  carrying merged :mod:`repro.obs` metrics.
* :mod:`~repro.fleet.cli` — the ``repro fleet`` subcommand.

See ``docs/fleet.md`` for semantics and guarantees; the ``fleet-incgc`` and
``fleet-hybrid`` rows of ``benchmarks/e2e`` measure one shard end to end.
"""

from repro.fleet.result import FleetResult, ShardResult
from repro.fleet.runner import plan_shards, run_fleet
from repro.fleet.scheduler import Request, shard_schedule
from repro.fleet.shard import ShardTask, run_shard
from repro.fleet.topology import (
    DEDUP_DOMAINS,
    FleetConfig,
    TenantSpec,
    shard_of,
)

__all__ = [
    "DEDUP_DOMAINS",
    "FleetConfig",
    "FleetResult",
    "Request",
    "ShardResult",
    "ShardTask",
    "TenantSpec",
    "plan_shards",
    "run_fleet",
    "run_shard",
    "shard_of",
    "shard_schedule",
]
