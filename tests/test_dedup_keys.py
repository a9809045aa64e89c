"""Unit tests for storage keys and the logical index."""

import pytest

from repro.dedup.keys import (
    GENERATION_SIZE,
    KEY_SIZE,
    key_generation,
    logical_fp,
    storage_key,
)
from repro.dedup.logical_index import LogicalIndex
from repro.hashing.fingerprints import FINGERPRINT_SIZE, synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex


def fp(i: int) -> bytes:
    return synthetic_fingerprint("keys", i)


class TestStorageKeys:
    def test_width(self):
        assert len(storage_key(fp(1))) == KEY_SIZE == FINGERPRINT_SIZE + GENERATION_SIZE

    def test_roundtrip(self):
        key = storage_key(fp(1), 7)
        assert logical_fp(key) == fp(1)
        assert key_generation(key) == 7

    def test_generation_zero_default(self):
        assert key_generation(storage_key(fp(1))) == 0

    def test_generations_distinguish_copies(self):
        assert storage_key(fp(1), 0) != storage_key(fp(1), 1)

    def test_rejects_bad_fingerprint_width(self):
        with pytest.raises(ValueError):
            storage_key(b"short")

    def test_rejects_out_of_range_generation(self):
        with pytest.raises(ValueError):
            storage_key(fp(1), -1)
        with pytest.raises(ValueError):
            storage_key(fp(1), 1 << 32)

    def test_parsers_reject_bad_width(self):
        with pytest.raises(ValueError):
            logical_fp(b"short")
        with pytest.raises(ValueError):
            key_generation(b"short")


class TestLogicalIndex:
    def test_miss_on_empty(self):
        logical = LogicalIndex(FingerprintIndex())
        assert logical.lookup(fp(1)) is None

    def test_new_key_then_hit(self):
        physical = FingerprintIndex()
        logical = LogicalIndex(physical)
        key = logical.new_key(fp(1))
        physical.insert(key, container_id=3, size=10)
        hit = logical.lookup(fp(1))
        assert hit is not None
        assert hit[0] == key
        assert hit[1].container_id == 3

    def test_generations_increase(self):
        physical = FingerprintIndex()
        logical = LogicalIndex(physical)
        first = logical.new_key(fp(1))
        second = logical.new_key(fp(1))
        assert key_generation(first) == 0
        assert key_generation(second) == 1

    def test_stale_entry_treated_as_miss(self):
        """A copy reclaimed by GC must not satisfy duplicate detection."""
        physical = FingerprintIndex()
        logical = LogicalIndex(physical)
        key = logical.new_key(fp(1))
        physical.insert(key, container_id=3, size=10)
        physical.discard(key)  # GC reclaimed the copy
        assert logical.lookup(fp(1)) is None
        # The stale entry is dropped, so a re-store restarts at generation 0.
        assert key_generation(logical.new_key(fp(1))) == 0

    def test_hit_rate(self):
        physical = FingerprintIndex()
        logical = LogicalIndex(physical)
        key = logical.new_key(fp(1))
        physical.insert(key, 0, 10)
        logical.lookup(fp(1))
        logical.lookup(fp(2))
        assert logical.hit_rate == pytest.approx(0.5)
