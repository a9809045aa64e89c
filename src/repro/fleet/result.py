"""Fleet run results: per-shard and fleet-aggregated, exactly serializable.

Determinism contract: :meth:`FleetResult.to_dict` (and its canonical JSON
form) is a pure function of the :class:`~repro.fleet.topology.FleetConfig`
— it contains *no* wall-clock time, worker identity, or job count, so a
``jobs=N`` run serializes byte-identically to ``jobs=1``.  Wall-clock
seconds and the job count live on the result object (``wall_seconds``,
``jobs``) for progress lines, but are deliberately excluded from
serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import merge_metric_payloads


@dataclass
class ShardResult:
    """Everything one shard's execution produced, in plain data."""

    shard_id: int
    #: Tenant names served by this shard, in fleet declaration order.
    tenants: list[str] = field(default_factory=list)
    #: Executed request counts per kind (``gc_skipped`` counts epochs that
    #: found no pending deletions).
    requests: dict[str, int] = field(default_factory=dict)
    #: Summed :class:`~repro.backup.service.ServiceStats` fields over the
    #: shard's services (one service in the shared domain, one per tenant
    #: in the tenant domain).
    stats: dict[str, int] = field(default_factory=dict)
    #: Per-tenant scalar summaries (backups, bytes, restore accounting).
    tenant_summaries: dict[str, dict] = field(default_factory=dict)
    #: Shard-scoped :class:`~repro.obs.metrics.MetricsRegistry` payload.
    metrics: dict = field(default_factory=dict)
    #: Nonzero per-ingest stall samples (simulated seconds an ingest
    #: queued behind GC device time), in request order.  Zero-stall
    #: ingests are implied by the ``fleet.ingest_stall`` histogram count,
    #: so quantiles over *all* ingests are exact without shipping zeros.
    ingest_stalls: list[float] = field(default_factory=list)
    #: Per-GC-burst device-time samples (simulated seconds), request order.
    gc_pauses: list[float] = field(default_factory=list)
    #: Per-read simulated latency samples (every ``read`` request ships its
    #: sample — reads are few, so fleet quantiles are exact), request order.
    read_latencies: list[float] = field(default_factory=list)

    @property
    def dedup_ratio(self) -> float:
        stored = self.stats.get("cumulative_stored_bytes", 0)
        logical = self.stats.get("cumulative_logical_bytes", 0)
        if stored == 0:
            return float("inf") if logical else 1.0
        return logical / stored

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "tenants": list(self.tenants),
            "requests": dict(self.requests),
            "stats": dict(self.stats),
            "tenant_summaries": {k: dict(v) for k, v in self.tenant_summaries.items()},
            "metrics": self.metrics,
            "ingest_stalls": list(self.ingest_stalls),
            "gc_pauses": list(self.gc_pauses),
            "read_latencies": list(self.read_latencies),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardResult":
        return cls(
            shard_id=data["shard_id"],
            tenants=list(data["tenants"]),
            requests=dict(data["requests"]),
            stats=dict(data["stats"]),
            tenant_summaries={k: dict(v) for k, v in data["tenant_summaries"].items()},
            metrics=dict(data["metrics"]),
            ingest_stalls=list(data.get("ingest_stalls", [])),
            gc_pauses=list(data.get("gc_pauses", [])),
            read_latencies=list(data.get("read_latencies", [])),
        )


@dataclass
class FleetResult:
    """A whole fleet run: config echo, per-shard results, merged metrics."""

    approach: str
    dedup_domain: str
    num_tenants: int
    num_shards: int
    seed: int
    shards: list[ShardResult] = field(default_factory=list)
    #: Fleet-wide metrics: every shard's payload folded together
    #: (:func:`~repro.obs.metrics.merge_metric_payloads`).
    metrics: dict = field(default_factory=dict)
    #: Wall-clock seconds of the run — set by the runner, excluded from
    #: serialization (jobs-count independence).
    wall_seconds: float = 0.0
    #: Worker processes used — excluded from serialization.
    jobs: int = 1

    # ------------------------------------------------------------------
    # Fleet-level aggregates (read off the merged metrics payload)
    # ------------------------------------------------------------------

    def _counter(self, name: str) -> int | float:
        return self.metrics.get("counters", {}).get(name, 0)

    def _histogram_mean(self, name: str) -> float:
        hist = self.metrics.get("histograms", {}).get(name)
        if not hist or not hist.get("count"):
            return 0.0
        return hist["sum"] / hist["count"]

    @property
    def dedup_ratio(self) -> float:
        """Whole-fleet actual dedup ratio (paper §6.2 accounting, summed
        over every service on every shard)."""
        stored = self._counter("service.cumulative_stored_bytes")
        logical = self._counter("service.cumulative_logical_bytes")
        if stored == 0:
            return float("inf") if logical else 1.0
        return logical / stored

    @property
    def mean_read_amplification(self) -> float:
        """Mean per-backup read amplification across every restore."""
        return self._histogram_mean("restore.read_amplification")

    @property
    def restore_speed(self) -> float:
        """Aggregate restore bytes per simulated second, fleet-wide."""
        total_bytes = self._counter("restore.logical_bytes")
        total_seconds = self._counter("phase_seconds.restore")
        if total_seconds == 0.0:
            return float("inf") if total_bytes else 0.0
        return total_bytes / total_seconds

    def ingest_stall_quantiles(self) -> dict[str, float]:
        """Exact ingest-stall quantiles over *every* ingest, fleet-wide.

        The ``fleet.ingest_stall`` histogram holds the total sample count
        (one per ingest, zeros included); the shards ship only the nonzero
        samples.  Quantiles are computed over the implied
        ``zeros + sorted(nonzero)`` population.
        """
        hist = self.metrics.get("histograms", {}).get("fleet.ingest_stall")
        total = int(hist["count"]) if hist else 0
        nonzero = sorted(
            stall for shard in self.shards for stall in shard.ingest_stalls
        )
        return _nearest_rank_quantiles(nonzero, zeros=total - len(nonzero))

    def read_latency_quantiles(self) -> dict[str, float]:
        """Exact simulated-latency quantiles over every ``read`` request,
        fleet-wide (nearest-rank; every sample ships in the shard results,
        so no zeros are implied).  All-zero when the fleet ran no reads."""
        return _nearest_rank_quantiles(
            sorted(
                latency for shard in self.shards for latency in shard.read_latencies
            )
        )

    @property
    def total_requests(self) -> int:
        return sum(
            sum(shard.requests.values()) for shard in self.shards
        )

    @property
    def chunk_ops(self) -> int:
        """Chunk-granular operations executed: ingested + restored chunks."""
        return int(self._counter("ingest.chunks") + self._counter("restore.chunks"))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic plain-data form (no wall-clock, no job count)."""
        return {
            "approach": self.approach,
            "dedup_domain": self.dedup_domain,
            "num_tenants": self.num_tenants,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "shards": [shard.to_dict() for shard in self.shards],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetResult":
        return cls(
            approach=data["approach"],
            dedup_domain=data["dedup_domain"],
            num_tenants=data["num_tenants"],
            num_shards=data["num_shards"],
            seed=data["seed"],
            shards=[ShardResult.from_dict(d) for d in data["shards"]],
            metrics=dict(data["metrics"]),
        )

    def canonical_json(self) -> str:
        """Byte-deterministic JSON of :meth:`to_dict` — the form the
        ``--jobs`` determinism gate byte-compares."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        return (
            f"fleet[{self.approach}/{self.dedup_domain}]: "
            f"{self.num_tenants} tenants / {self.num_shards} shards, "
            f"{self.total_requests} requests, {self.chunk_ops} chunk ops, "
            f"dedup {self.dedup_ratio:.2f}, "
            f"read amp {self.mean_read_amplification:.2f}"
        )


def _nearest_rank_quantiles(nonzero: list[float], zeros: int = 0) -> dict[str, float]:
    """p50/p90/p99/max by nearest rank over ``zeros`` implied ``0.0``
    samples followed by the sorted ``nonzero`` ones (all-zero when empty)."""
    total = zeros + len(nonzero)
    if total <= 0:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    quantiles = {}
    for label, p in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        index = max(1, -(-int(p * 1000) * total // 1000)) - 1  # ceil(p*total) - 1
        quantiles[label] = 0.0 if index < zeros else nonzero[index - zeros]
    quantiles["max"] = nonzero[-1] if nonzero else 0.0
    return quantiles


def merge_shard_results(
    approach: str,
    dedup_domain: str,
    num_tenants: int,
    num_shards: int,
    seed: int,
    shards: list[ShardResult],
) -> FleetResult:
    """Fold shard results (sorted by shard id) into one :class:`FleetResult`."""
    ordered = sorted(shards, key=lambda shard: shard.shard_id)
    return FleetResult(
        approach=approach,
        dedup_domain=dedup_domain,
        num_tenants=num_tenants,
        num_shards=num_shards,
        seed=seed,
        shards=ordered,
        metrics=merge_metric_payloads(shard.metrics for shard in ordered),
    )
