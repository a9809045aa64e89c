"""Ownership-structure analytics.

GCCDF's whole premise (§4.1) is that chunks sharing an *ownership* — the
set of live backups referencing them — should be co-located.  These helpers
measure how true that is for a live system:

* :func:`ownership_stats` — the global ownership landscape: distinct
  owner-sets, their size distribution, and chunk lifecycle spread.
* :func:`container_purity` — per container: how many distinct owner-sets
  are mixed inside, and the byte share of the dominant one.  A perfectly
  GCCDF-clustered container has purity 1.0; ingest-order containers decay
  toward the workload's mixing rate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.backup.system import DedupBackupService
from repro.metrics.series import series_summary


def _ownership_map(service: DedupBackupService) -> dict[int, frozenset[int]]:
    """interned chunk id → set of live backups referencing it."""
    owners: dict[int, set[int]] = defaultdict(set)
    for recipe in service.recipes.live_recipes():
        for chunk_id in recipe.unique_ids():
            owners[chunk_id].add(recipe.backup_id)
    return {chunk_id: frozenset(backups) for chunk_id, backups in owners.items()}


@dataclass(frozen=True)
class OwnershipStats:
    """Global ownership landscape of the stored, referenced chunks."""

    total_chunks: int
    distinct_ownerships: int
    #: chunks per distinct owner-set: min/mean/median/max.
    cluster_size_summary: dict[str, float]
    #: |owner-set| per chunk: min/mean/median/max.
    owners_per_chunk_summary: dict[str, float]

    def describe(self) -> str:
        mean_cluster = self.cluster_size_summary["mean"]
        return (
            f"{self.total_chunks} chunks in {self.distinct_ownerships} ownership "
            f"groups (mean {mean_cluster:.1f} chunks/group)"
        )


def ownership_stats(service: DedupBackupService) -> OwnershipStats:
    """Compute the ownership landscape (metadata only)."""
    owners = _ownership_map(service)
    groups: dict[frozenset[int], int] = defaultdict(int)
    for ownership in owners.values():
        groups[ownership] += 1
    return OwnershipStats(
        total_chunks=len(owners),
        distinct_ownerships=len(groups),
        cluster_size_summary=series_summary(sorted(float(v) for v in groups.values())),
        owners_per_chunk_summary=series_summary(
            sorted(float(len(o)) for o in owners.values())
        ),
    )


@dataclass(frozen=True)
class ContainerPurity:
    """Ownership mixing inside one container."""

    container_id: int
    total_bytes: int
    distinct_ownerships: int
    #: Byte share of the largest single owner-set in the container.
    dominant_share: float


def container_purity(service: DedupBackupService) -> list[ContainerPurity]:
    """Per-container ownership purity, ascending container id.

    Chunks referenced by no live backup (pre-GC garbage) count as their own
    "dead" ownership group, since restores never want them.
    """
    owners = _ownership_map(service)
    purities: list[ContainerPurity] = []
    for container in service.store.containers():
        by_group: dict[frozenset[int], int] = defaultdict(int)
        for chunk_id, size in zip(container.chunk_ids, container.chunk_sizes):
            by_group[owners.get(chunk_id, frozenset())] += size
        total = sum(by_group.values())
        dominant = max(by_group.values()) if by_group else 0
        purities.append(
            ContainerPurity(
                container_id=container.container_id,
                total_bytes=total,
                distinct_ownerships=len(by_group),
                dominant_share=dominant / total if total else 0.0,
            )
        )
    return purities


def mean_purity(purities: list[ContainerPurity]) -> float:
    """Byte-weighted mean dominant share across containers."""
    total = sum(p.total_bytes for p in purities)
    if not total:
        return 0.0
    return sum(p.dominant_share * p.total_bytes for p in purities) / total
