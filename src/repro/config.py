"""Central configuration objects for the backup system.

:class:`SystemConfig` collects every tunable the paper mentions — chunk-size
bounds, container size, GCCDF segment size, retention policy — plus the knobs
this reproduction adds (scaled geometry, VC-table type, restore-cache size).

Two geometry presets are provided:

* ``SystemConfig.paper()`` — the paper's exact geometry (4 MiB containers,
  1 KiB/4 KiB/32 KiB FastCDC bounds, 100-container segments).
* ``SystemConfig.scaled()`` — a scaled-down geometry (128 KiB containers,
  256 B/1 KiB/4 KiB chunks, so ~128 chunks per container vs the paper's
  ~1024) that keeps packing and fragmentation effects visible while letting
  hundreds of backups run in minutes.  All experiments use this preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.util.units import KIB, MIB


@dataclass(frozen=True)
class ChunkingConfig:
    """Bounds for FastCDC content-defined chunking (paper §6.1)."""

    min_size: int = 1 * KIB
    avg_size: int = 4 * KIB
    max_size: int = 32 * KIB
    #: Seed for the gear table; fixed so fingerprint streams are reproducible.
    gear_seed: int = 0x9E3779B9

    def validate(self) -> None:
        if not (0 < self.min_size <= self.avg_size <= self.max_size):
            raise ConfigError(
                "chunk sizes must satisfy 0 < min <= avg <= max, got "
                f"{self.min_size}/{self.avg_size}/{self.max_size}"
            )
        if self.avg_size & (self.avg_size - 1):
            raise ConfigError(f"avg chunk size must be a power of two, got {self.avg_size}")


@dataclass(frozen=True)
class RetentionConfig:
    """Backup rotation policy (paper §6.1): retain the most recent
    ``retained`` backups; each round deletes the oldest ``turnover``."""

    retained: int = 100
    turnover: int = 20

    def validate(self) -> None:
        if self.retained <= 0 or self.turnover <= 0:
            raise ConfigError("retention counts must be positive")
        if self.turnover > self.retained:
            raise ConfigError("cannot turn over more backups than are retained")


@dataclass(frozen=True)
class GCCDFConfig:
    """Knobs specific to GCCDF (paper §5)."""

    #: Number of containers per Preprocessor segment (paper default: 100).
    segment_size: int = 100
    #: Leaf nodes at or below this chunk count are denied further splitting
    #: (Analyzer optimization ③). 0 disables the optimization.
    split_denial_threshold: int = 4
    #: Packing strategy: 'greedy' is §4.2's explicit algorithm (similarity
    #: chain + longest-matching-suffix tie-break) and the default; 'tree'
    #: is §5.4's binary-tree-order implementation of it (cheaper, slightly
    #: weaker on multi-source data); 'random' is the §6.5 ablation baseline.
    packing: str = "greedy"
    #: False-positive rate of the per-recipe Bloom reference filters; only
    #: read when ``exact_reference_check`` is False.
    bloom_fp_rate: float = 0.001
    #: Answer the Analyzer's "does backup b reference this chunk?" from each
    #: recipe's cached exact interned-id set (the default: nothing is built
    #: per GC run).  False rebuilds the paper's per-recipe Bloom filters
    #: (§5.3 ①) every run — kept solely as the false-positive ablation;
    #: simulated analyze time charges the filters' cost model either way.
    exact_reference_check: bool = True
    #: Simulated seconds per Analyzer/Planner operation (one membership
    #: probe or chunk move).  The Fig. 14 breakdown needs analyze time in
    #: the same currency as the simulated I/O stages; a native-code hash
    #: probe is ~10 ns, which this models.  Measured Python wall time is
    #: reported separately (``GCReport.analyze_cpu_seconds``).
    analyze_op_cost: float = 1e-8

    def validate(self) -> None:
        if self.segment_size <= 0:
            raise ConfigError("segment_size must be positive")
        if self.split_denial_threshold < 0:
            raise ConfigError("split_denial_threshold must be >= 0")
        if self.packing not in ("tree", "greedy", "random"):
            raise ConfigError(f"unknown packing strategy {self.packing!r}")
        if not (0.0 < self.bloom_fp_rate < 1.0):
            raise ConfigError("bloom_fp_rate must be in (0, 1)")
        if self.analyze_op_cost < 0:
            raise ConfigError("analyze_op_cost must be >= 0")


@dataclass(frozen=True)
class DiskConfig:
    """Parameters of the simulated backup-storage disk (stands in for the
    paper's 2× S4610 RAID-0 array; see DESIGN.md substitution table)."""

    #: Sequential bandwidth in bytes/second.
    bandwidth: float = 1.0 * 1024 * MIB
    #: Per-I/O positioning latency in seconds (SSD-scale, amortised by
    #: container-sized reads exactly as in the paper's layout argument).
    seek_time: float = 100e-6

    def validate(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.seek_time < 0:
            raise ConfigError("seek_time must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for a :class:`repro.backup.BackupSystem`."""

    container_size: int = 4 * MIB
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    retention: RetentionConfig = field(default_factory=RetentionConfig)
    gccdf: GCCDFConfig = field(default_factory=GCCDFConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    #: 'exact' keeps a hash set of valid fingerprints in the mark stage;
    #: 'bloom' uses a Bloom filter (paper §2.4 allows either).
    vc_table: str = "exact"
    #: Containers held by the restore engine's LRU cache; None models an
    #: adequate forward-assembly area (each container is fetched at most once
    #: per restore — the paper's read-amplification accounting).  A bounded
    #: value enables the cache-pressure ablation.
    restore_cache_containers: int | None = None

    def validate(self) -> None:
        if self.container_size <= 0:
            raise ConfigError("container_size must be positive")
        if self.container_size < self.chunking.max_size:
            raise ConfigError(
                "container must hold at least one max-size chunk: "
                f"container={self.container_size}, max chunk={self.chunking.max_size}"
            )
        if self.vc_table not in ("exact", "bloom"):
            raise ConfigError(f"unknown vc_table type {self.vc_table!r}")
        if self.restore_cache_containers is not None and self.restore_cache_containers <= 0:
            raise ConfigError("restore_cache_containers must be positive or None")
        self.chunking.validate()
        self.retention.validate()
        self.gccdf.validate()
        self.disk.validate()

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The paper's exact geometry (§6.1)."""
        config = cls()
        config.validate()
        return config

    @classmethod
    def scaled(
        cls,
        *,
        retained: int = 100,
        turnover: int = 20,
        segment_size: int = 100,
    ) -> "SystemConfig":
        """A CI-friendly geometry: 128 KiB containers, 256 B/1 KiB/4 KiB chunks.

        Chunk:container ratio is 128:1 (vs the paper's 1024:1), preserving the
        cluster/container misalignment effects §4.2 targets while shrinking
        run time by orders of magnitude.
        """
        config = cls(
            container_size=128 * KIB,
            chunking=ChunkingConfig(min_size=256, avg_size=1 * KIB, max_size=4 * KIB),
            retention=RetentionConfig(retained=retained, turnover=turnover),
            gccdf=GCCDFConfig(segment_size=segment_size),
            # Keep the paper geometry's seek:transfer ratio: a 4 MiB
            # container at ~1 GiB/s transfers in ~4 ms against a 100 µs
            # seek; a 128 KiB container transfers in ~122 µs, so the seek
            # is shrunk proportionally to stay a second-order cost.
            disk=DiskConfig(seek_time=2e-6),
        )
        config.validate()
        return config

    def with_gccdf(self, **kwargs) -> "SystemConfig":
        """Return a copy with GCCDF knobs overridden."""
        config = replace(self, gccdf=replace(self.gccdf, **kwargs))
        config.validate()
        return config

    def with_retention(self, **kwargs) -> "SystemConfig":
        """Return a copy with retention knobs overridden."""
        config = replace(self, retention=replace(self.retention, **kwargs))
        config.validate()
        return config
