"""Dataset presets reproducing Table 1 (WIKI/CODE/MIX/SYN) plus §3.1's WEB.

Each preset fixes: backup count, the set of sources and their interleaving,
per-source working-set size, and churn profile.  Absolute sizes are scaled to
the library's geometry (DESIGN.md §1): at ``scale=1.0`` a backup is a few MiB
against the default scaled chunking — large enough for hundreds of containers
of layout structure, small enough to run every approach in minutes.  Tests
use smaller scales; the geometry-relative structure (chunks per container,
churn per snapshot) is scale-invariant.

Source-interleaving choices, from the dataset descriptions:

* **WIKI** — "snapshots of a specific language Wikipedia": four language
  dumps rotated round-robin; few large archive files, low churn.
* **CODE** — Chromium/LLVM/Linux version history: three sources round-robin;
  many small files, frequent file creation/deletion (commits).
* **MIX** — "a news website and a Redis database": two alternating sources;
  the website churns slowly with article turnover, Redis is one big dump
  file with heavy in-place modification.
* **SYN** — synthetic file create/delete/modify volumes after Tarasov et
  al.: four sources with aggressive whole-file turnover.
* **WEB** — the §3.1 motivation dataset: the news website alone, single
  source (the regime where MFDedup *works*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.backup.driver import BackupSpec
from repro.config import ChunkingConfig
from repro.errors import ConfigError
from repro.util.rng import derive_seed
from repro.util.units import KIB, MIB
from repro.workloads.source import MutatingSource, MutationProfile

#: Default trace-level chunk geometry (matches ``SystemConfig.scaled()``).
DEFAULT_CHUNKING = ChunkingConfig(min_size=256, avg_size=1 * KIB, max_size=4 * KIB)

#: Default dataset seed.
DEFAULT_SEED = 2025


@dataclass(frozen=True)
class SourceSpec:
    """Blueprint for one source inside a dataset."""

    name: str
    target_bytes: int
    file_size_mean: int
    profile: MutationProfile


class Dataset:
    """A named, re-iterable stream of :class:`BackupSpec` backups.

    Iterating builds fresh sources from the dataset seed, so every pass
    yields the identical backup sequence — approaches are compared on
    byte-identical inputs.
    """

    def __init__(
        self,
        name: str,
        num_backups: int,
        sources: list[SourceSpec],
        chunking: ChunkingConfig = DEFAULT_CHUNKING,
        seed: int = DEFAULT_SEED,
    ):
        if num_backups <= 0:
            raise ConfigError("num_backups must be positive")
        if not sources:
            raise ConfigError("a dataset needs at least one source")
        self.name = name
        self.num_backups = num_backups
        self.source_specs = sources
        self.chunking = chunking
        self.seed = seed

    def __iter__(self) -> Iterator[BackupSpec]:
        sources = [
            MutatingSource(
                name=f"{self.name}/{spec.name}",
                chunking=self.chunking,
                target_bytes=spec.target_bytes,
                file_size_mean=spec.file_size_mean,
                profile=spec.profile,
                seed=derive_seed(self.seed, self.name, spec.name),
            )
            for spec in self.source_specs
        ]
        for index in range(self.num_backups):
            source = sources[index % len(sources)]
            yield BackupSpec(source=source.name, chunks=source.snapshot())

    def __len__(self) -> int:
        return self.num_backups

    @property
    def logical_bytes_estimate(self) -> int:
        """Rough original-size estimate (working sets × backups)."""
        per_round = sum(spec.target_bytes for spec in self.source_specs)
        rounds = self.num_backups / len(self.source_specs)
        return int(per_round * rounds)


def _scaled(nbytes: float, scale: float) -> int:
    return max(16 * KIB, int(nbytes * scale))


def web(scale: float = 1.0, num_backups: int = 100, seed: int = DEFAULT_SEED) -> Dataset:
    """§3.1's WEB: 100 snapshots of a news website, single source."""
    profile = MutationProfile(
        modify_file_fraction=0.20,
        modify_chunk_fraction=0.15,
        insert_probability=0.3,
        hotspot_probability=0.4,
        create_file_fraction=0.02,
        delete_file_fraction=0.02,
    )
    return Dataset(
        name="web",
        num_backups=num_backups,
        sources=[
            SourceSpec(
                name="news",
                target_bytes=_scaled(2 * MIB, scale),
                file_size_mean=_scaled(32 * KIB, scale),
                profile=profile,
            )
        ],
        seed=seed,
    )


def wiki(scale: float = 1.0, num_backups: int = 120, seed: int = DEFAULT_SEED) -> Dataset:
    """Table 1 WIKI: Wikipedia dumps of four languages, round-robin."""
    profile = MutationProfile(
        modify_file_fraction=0.45,
        modify_chunk_fraction=0.05,
        insert_probability=0.3,
        hotspot_probability=0.4,
        create_file_fraction=0.01,
        delete_file_fraction=0.01,
    )
    languages = ("en", "de", "fr", "ja")
    return Dataset(
        name="wiki",
        num_backups=num_backups,
        sources=[
            SourceSpec(
                name=lang,
                target_bytes=_scaled(4 * MIB, scale),
                file_size_mean=_scaled(256 * KIB, scale),
                profile=profile,
            )
            for lang in languages
        ],
        seed=seed,
    )


def code(scale: float = 1.0, num_backups: int = 220, seed: int = DEFAULT_SEED) -> Dataset:
    """Table 1 CODE: Chromium/LLVM/Linux version history, round-robin."""
    profile = MutationProfile(
        modify_file_fraction=0.30,
        modify_chunk_fraction=0.20,
        insert_probability=0.4,
        hotspot_probability=0.4,
        create_file_fraction=0.03,
        delete_file_fraction=0.03,
    )
    projects = ("chromium", "llvm", "linux")
    return Dataset(
        name="code",
        num_backups=num_backups,
        sources=[
            SourceSpec(
                name=project,
                target_bytes=_scaled(1.5 * MIB, scale),
                file_size_mean=_scaled(8 * KIB, scale),
                profile=profile,
            )
            for project in projects
        ],
        seed=seed,
    )


def mix(scale: float = 1.0, num_backups: int = 200, seed: int = DEFAULT_SEED) -> Dataset:
    """Table 1 MIX: news website + Redis dumps, strictly alternating."""
    web_profile = MutationProfile(
        modify_file_fraction=0.20,
        modify_chunk_fraction=0.15,
        insert_probability=0.3,
        hotspot_probability=0.4,
        create_file_fraction=0.02,
        delete_file_fraction=0.02,
    )
    redis_profile = MutationProfile(
        modify_file_fraction=1.0,  # the dump file always changes
        modify_chunk_fraction=0.03,
        insert_probability=0.6,  # appends: Redis datasets grow
        hotspot_probability=0.3,
        create_file_fraction=0.0,
        delete_file_fraction=0.0,
    )
    return Dataset(
        name="mix",
        num_backups=num_backups,
        sources=[
            SourceSpec(
                name="news",
                target_bytes=_scaled(2 * MIB, scale),
                file_size_mean=_scaled(32 * KIB, scale),
                profile=web_profile,
            ),
            SourceSpec(
                name="redis",
                target_bytes=_scaled(3 * MIB, scale),
                file_size_mean=_scaled(3 * MIB, scale),
                profile=redis_profile,
            ),
        ],
        seed=seed,
    )


def syn(scale: float = 1.0, num_backups: int = 240, seed: int = DEFAULT_SEED) -> Dataset:
    """Table 1 SYN: synthetic create/delete/modify volumes (Tarasov-style)."""
    profile = MutationProfile(
        modify_file_fraction=0.30,
        modify_chunk_fraction=0.15,
        insert_probability=0.3,
        hotspot_probability=0.4,
        create_file_fraction=0.06,
        delete_file_fraction=0.06,
    )
    return Dataset(
        name="syn",
        num_backups=num_backups,
        sources=[
            SourceSpec(
                name=f"vol{i}",
                target_bytes=_scaled(4 * MIB, scale),
                file_size_mean=_scaled(64 * KIB, scale),
                profile=profile,
            )
            for i in range(4)
        ],
        seed=seed,
    )


_REGISTRY: dict[str, Callable[..., Dataset]] = {
    "web": web,
    "wiki": wiki,
    "code": code,
    "mix": mix,
    "syn": syn,
}

DATASET_NAMES = tuple(sorted(_REGISTRY))


def dataset(name: str, **kwargs) -> Dataset:
    """Build a dataset preset by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown dataset {name!r}; choose from {DATASET_NAMES}"
        ) from None
    return factory(**kwargs)


class WorkloadCache:
    """Memoizes materialised backup streams by (dataset, scale, backups, seed).

    Generating a workload stream is pure — the same preset parameters always
    produce the identical :class:`~repro.backup.driver.BackupSpec` sequence —
    but not free: chunking and mutation simulation dominate setup time at
    fleet scale.  A cache instance materialises each distinct parameter tuple
    once and hands every later requester the same immutable tuple.  ``hits``
    and ``misses`` feed runtime metrics (``runtime.workload_cache.*``).

    Scoping is the caller's determinism lever: the fleet shard runner creates
    one cache *per shard execution*, so its hit counters are a pure function
    of the shard's tenants — identical whether shards run serially in one
    process or fan out over workers.  The module-level default instance
    behind :func:`materialize_dataset` is for single-process callers (tools,
    benchmarks) where cross-call reuse is the point.
    """

    def __init__(self) -> None:
        self._streams: dict[tuple, tuple[BackupSpec, ...]] = {}
        self.hits = 0
        self.misses = 0

    def materialize(
        self,
        name: str,
        scale: float,
        num_backups: int,
        seed: int = DEFAULT_SEED,
    ) -> tuple[BackupSpec, ...]:
        """The preset's full backup stream, generated at most once per key."""
        key = (name, float(scale), int(num_backups), int(seed))
        stream = self._streams.get(key)
        if stream is not None:
            self.hits += 1
            return stream
        self.misses += 1
        stream = tuple(
            dataset(name, scale=scale, num_backups=num_backups, seed=seed)
        )
        self._streams[key] = stream
        return stream

    def counters(self) -> dict[str, int]:
        """Hit/miss counters in runtime-metrics form."""
        return {"workload_cache.hits": self.hits, "workload_cache.misses": self.misses}

    def __len__(self) -> int:
        return len(self._streams)


#: Process-wide default cache behind :func:`materialize_dataset`.
_DEFAULT_CACHE = WorkloadCache()


def materialize_dataset(
    name: str,
    scale: float,
    num_backups: int,
    seed: int = DEFAULT_SEED,
    cache: WorkloadCache | None = None,
) -> tuple[BackupSpec, ...]:
    """Materialise a preset's backup stream through a :class:`WorkloadCache`
    (the process-wide default unless ``cache`` is given)."""
    return (cache if cache is not None else _DEFAULT_CACHE).materialize(
        name, scale, num_backups, seed
    )
