"""Per-GC-round report: the quantities behind Figs. 13 and 14.

* Container distribution (Fig. 13): *involved* (on the GS list), *reclaimed*
  (confirmed to hold invalid chunks and deleted), *produced* (new containers
  receiving migrated chunks).
* Time breakdown (Fig. 14): mark / analyze / sweep-read / sweep-write, all
  in simulated seconds.  Analyze is the Analyzer/Planner operation count
  times a modelled per-op cost (GCCDF only — zero for classic sweeps).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.util.units import format_bytes, format_duration


@dataclass(frozen=True)
class GCReport:
    """Accounting for one garbage-collection run."""

    round_index: int
    backups_purged: int
    #: Containers on the GS list (may hold invalid chunks).
    involved_containers: int
    #: Containers confirmed invalid-bearing and reclaimed.
    reclaimed_containers: int
    #: New containers produced by copy-forward.
    produced_containers: int
    migrated_bytes: int
    reclaimed_bytes: int
    migrated_chunks: int
    mark_seconds: float
    #: Simulated seconds of the Analyze stage (operation count × modelled
    #: per-op cost), comparable with the I/O stages.
    analyze_seconds: float
    sweep_read_seconds: float
    sweep_write_seconds: float

    def to_dict(self) -> dict:
        """Plain-scalar dict; round-trips through JSON (worker results)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GCReport":
        return cls(**data)

    @property
    def total_seconds(self) -> float:
        return (
            self.mark_seconds
            + self.analyze_seconds
            + self.sweep_read_seconds
            + self.sweep_write_seconds
        )

    def summary(self) -> str:
        """One-line human-readable rendering for logs and examples."""
        return (
            f"GC round {self.round_index}: purged {self.backups_purged} backups; "
            f"containers involved/reclaimed/produced = {self.involved_containers}/"
            f"{self.reclaimed_containers}/{self.produced_containers}; "
            f"migrated {format_bytes(self.migrated_bytes)}, "
            f"reclaimed {format_bytes(self.reclaimed_bytes)}; "
            f"time {format_duration(self.total_seconds)} "
            f"(mark {format_duration(self.mark_seconds)}, "
            f"analyze {format_duration(self.analyze_seconds)}, "
            f"sweep-read {format_duration(self.sweep_read_seconds)}, "
            f"sweep-write {format_duration(self.sweep_write_seconds)})"
        )
