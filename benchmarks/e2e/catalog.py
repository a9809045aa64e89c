"""The benchmark's workloads and their non-vacuity preconditions.

Metric names, units, directions and bounds live in the root
``BENCHMARK.json`` (the one copy the driver and this harness both read);
this module holds what that file cannot: how each workload is built and
what it must have exercised to count as a measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Bumped when a change to the harness makes rows incomparable with
#: earlier ``BENCH_history.jsonl`` rows.
HARNESS_VERSION = 1

#: End-to-end metrics that are simulated or counted, not timed: they must
#: repeat exactly for a fixed seed.
EXACT_END_TO_END = (
    "sim_restore_mib_per_s",
    "sim_gc_s",
    "read_amplification",
    "dedup_ratio",
    "sim_pread_cold_ms_mean",
)

#: Tenants draw from the presets whose size is stable across seeds (see
#: README "Why not mix").
FLEET_DATASETS = ("web", "code", "syn")


@dataclass(frozen=True)
class Check:
    """One precondition: ``counts[metric] <op> threshold``; a string
    threshold names another count."""

    metric: str
    op: str  # one of ">", ">=", "==", "<"
    threshold: "float | str"
    #: Span-derived counts exist only in traced passes.
    traced_only: bool = False

    def holds(self, counts: dict) -> bool:
        value = counts[self.metric]
        limit = counts[self.threshold] if isinstance(self.threshold, str) else self.threshold
        return {
            ">": value > limit,
            ">=": value >= limit,
            "==": value == limit,
            "<": value < limit,
        }[self.op]

    def __str__(self) -> str:
        return f"{self.metric} {self.op} {self.threshold}"


_COLD_HOT = (
    Check("serve.chunk_hit_rate_cold", "<", 0.5),
    Check("serve.chunk_hit_rate_hot", ">", 0.9),
)
_GCCDF = (
    Check("analyzer.sim_s", ">", 0),
    Check("analyzer.probes", ">", 0, traced_only=True),
    Check("migration.migrated_chunks", ">", 0),
)
_NO_ANALYZER = (
    Check("analyzer.sim_s", "==", 0),
    Check("analyzer.probes", "==", 0, traced_only=True),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    approach: str
    #: Single-service rotation (``dataset`` set) or one fleet shard
    #: (``fleet`` set: keyword arguments of ``FleetConfig.synthetic``).
    dataset: str = ""
    scale: float = 1.0
    num_backups: int = 0
    retained: int = 100
    turnover: int = 20
    fleet: dict = field(default_factory=dict)
    #: Restore-all repetitions (the first one is the paper's protocol).
    restore_rounds: int = 1
    cold_reads: int = 2000
    hot_reads: int = 2000
    checks: tuple[Check, ...] = ()

    def quick(self) -> "Workload":
        """A seconds-long variant for the self-tests: same structure
        (backup count, rotation, GC rounds), a tenth of the bytes."""
        fleet = dict(self.fleet)
        if fleet:
            fleet.update(num_tenants=12, stream_pool=6, workload_scale=0.05)
        return replace(
            self,
            scale=self.scale * 0.1,
            fleet=fleet,
            restore_rounds=1,
            cold_reads=max(200, self.cold_reads // 20),
            hot_reads=max(200, self.hot_reads // 20),
        )


WORKLOADS = (
    Workload(
        name="rotate-gccdf-code",
        why="the paper's system on a 3-source rotation: ~90% of wall is GCCDF's "
        "Analyzer (Bloom builds + clustering), so Analyzer/GC changes show here",
        approach="gccdf",
        dataset="code",
        scale=0.3,
        num_backups=220,
        restore_rounds=4,
        checks=(Check("gc.rounds", ">=", 5), *_GCCDF, *_COLD_HOT),
    ),
    Workload(
        name="rotate-naive-code",
        why="same stream with classic mark-sweep: bypasses repro.core, ingest is "
        "~70% of wall, so an Analyzer change must move nothing here",
        approach="naive",
        dataset="code",
        scale=0.3,
        num_backups=220,
        restore_rounds=4,
        checks=(
            Check("gc.rounds", ">=", 5),
            Check("migration.migrated_chunks", ">", 0),
            *_NO_ANALYZER,
            *_COLD_HOT,
        ),
    ),
    Workload(
        name="rotate-mfdedup-web",
        why="MFDedup on the one preset that reaches ingest-time migration: GC work "
        "moves into ingest and restore is the largest share of any row",
        approach="mfdedup",
        dataset="web",
        scale=1.0,
        num_backups=100,
        retained=60,
        restore_rounds=2,
        checks=(
            Check("gc.rounds", ">=", 2),
            Check("mfdedup.migrated_fraction", ">", 0),
            *_NO_ANALYZER,
            *_COLD_HOT,
        ),
    ),
    Workload(
        name="fleet-incgc",
        why="one shard, 42 tenants of small duplicate-dominated backups with budgeted GC "
        "steps interleaved: the scheduler, WorkloadCache and IncrementalGC's own mark run",
        approach="gccdf",
        fleet=dict(
            num_tenants=42,
            stream_pool=21,
            workload_scale=0.1,
            backups_per_tenant=20,
            gc_mode="incremental",
            read_requests=8,
        ),
        restore_rounds=2,
        checks=(
            Check("gc.rounds", ">=", 5),
            Check("incgc.steps", ">", "incgc.cycles"),
            *_GCCDF,
            *_COLD_HOT,
        ),
    ),
    Workload(
        name="fleet-hybrid",
        why="one shard in hybrid dedup mode: cross-tenant duplicates miss the neighbor "
        "window, ingest defers them and GC's rededup pass coalesces them",
        approach="gccdf",
        fleet=dict(
            num_tenants=18,
            stream_pool=18,
            workload_scale=0.1,
            backups_per_tenant=20,
            dedup_mode="hybrid",
            read_requests=8,
        ),
        restore_rounds=4,
        checks=(
            Check("gc.rounds", ">=", 5),
            Check("hybrid.coalesced", ">", 0),
            *_GCCDF,
            *_COLD_HOT,
        ),
    ),
    Workload(
        name="reads-gccdf-web",
        why="point reads on an aged gccdf service: one phase far larger than the "
        "8-container/1024-chunk read cache, one that fits; serve-layer changes show here",
        approach="gccdf",
        dataset="web",
        scale=1.0,
        num_backups=100,
        retained=60,
        restore_rounds=1,
        cold_reads=8000,
        hot_reads=8000,
        checks=(Check("gc.rounds", ">=", 2), *_GCCDF, *_COLD_HOT),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def load_contract() -> dict:
    """The root ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)
