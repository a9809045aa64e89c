"""Shared fixtures and stream builders for the test suite."""

from __future__ import annotations

import pytest

from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.columnar import ColumnarRecipe
from repro.index.interning import FingerprintInterner
from repro.model import ChunkRef


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A small geometry: 4 KiB containers, ~512 B chunks (8 per container)."""
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
    )
    config.validate()
    return config


@pytest.fixture
def scaled_config() -> SystemConfig:
    """The library's scaled preset with a small retention window."""
    return SystemConfig.scaled(retained=10, turnover=3)


def refs(namespace: str, ids, version: int = 0, size: int = 512) -> list[ChunkRef]:
    """Chunk references for logical ids; same (namespace, id, version) →
    same fingerprint, so streams built here deduplicate predictably."""
    return [
        ChunkRef(fp=synthetic_fingerprint(namespace, i, version), size=size)
        for i in ids
    ]


def stream_bytes(stream) -> int:
    return sum(ref.size for ref in stream)


def columnar_recipe(
    interner: FingerprintInterner, backup_id: int, entries, source: str = ""
) -> ColumnarRecipe:
    """A recipe over ``entries`` (chunk refs, stream order), encoded against
    ``interner`` — pass the target ``RecipeStore``'s own."""
    entries = list(entries)
    return ColumnarRecipe(
        backup_id,
        interner,
        [interner.intern(entry.fp) for entry in entries],
        [entry.size for entry in entries],
        source=source,
    )
