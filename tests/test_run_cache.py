"""Run-cache key correctness and persistent round-trips.

The persistent cache key must change whenever anything that determines a
protocol run's output changes (GCCDF overrides, VC-table choice,
restore-cache bound, scale, dataset, approach, format version) and must be
stable otherwise; a stored run must come back equal to the original.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import clear_cache, run_protocol
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    ENV_CACHE_DIR,
    RunCache,
    default_cache_dir,
    run_cache_key,
)
from repro.experiments.common import SCALES
from repro.experiments.matrix import Cell


def _key(approach="gccdf", dataset="mix", scale="quick", **config_kwargs) -> str:
    spec = SCALES[scale]
    return run_cache_key(
        approach,
        dataset,
        spec.name,
        spec.config(**config_kwargs),
        spec.workload_scale,
        spec.num_backups(dataset),
    )


class TestKeyCorrectness:
    def test_key_is_stable(self):
        assert _key() == _key()
        assert _key(segment_size=10) == _key(segment_size=10)

    def test_distinct_gccdf_overrides_distinct_keys(self):
        base = _key()
        assert _key(segment_size=10) != base
        assert _key(segment_size=10) != _key(segment_size=25)
        assert _key(packing="random") != base
        assert _key(split_denial_threshold=0) != base

    def test_reference_check_mode_in_key(self):
        """A warm cache written while Bloom checks were the default must
        never be served for the exact-check default (and vice versa): the
        resolved config carries the mode, so no format bump is needed."""
        exact, bloom = _key(exact_reference_check=True), _key(exact_reference_check=False)
        assert exact != bloom
        assert _key() in (exact, bloom)
        assert _key(exact_reference_check=False, bloom_fp_rate=0.01) != bloom

    def test_distinct_vc_table_distinct_keys(self):
        assert _key(vc_table="bloom") != _key(vc_table="exact")
        # 'exact' is the default, so passing it explicitly resolves to the
        # same config and therefore the same content hash.
        assert _key(vc_table="exact") == _key()

    def test_distinct_restore_cache_distinct_keys(self):
        base = _key()
        assert _key(restore_cache_containers=4) != base
        assert _key(restore_cache_containers=4) != _key(restore_cache_containers=16)

    def test_approach_dataset_scale_in_key(self):
        assert _key(approach="naive") != _key(approach="gccdf")
        assert _key(dataset="web") != _key(dataset="mix")
        assert _key(scale="medium") != _key(scale="quick")

    def test_cell_cache_keys_match_direct_keys(self):
        cell = Cell("gccdf", "mix", "quick", gccdf_overrides=(("segment_size", 10),))
        assert cell.cache_key() == _key(segment_size=10)
        assert Cell("gccdf", "mix", "quick").cache_key() == _key()

    def test_override_order_does_not_matter(self):
        a = Cell(
            "gccdf",
            "mix",
            "quick",
            gccdf_overrides=(("segment_size", 10), ("packing", "random")),
        )
        b = Cell(
            "gccdf",
            "mix",
            "quick",
            gccdf_overrides=(("packing", "random"), ("segment_size", 10)),
        )
        assert a == b
        assert a.cache_key() == b.cache_key()
        assert a.memo_key() == b.memo_key()


class TestMemoIsolation:
    def test_clear_cache_isolates(self):
        clear_cache()
        try:
            first = run_protocol("naive", "web", "quick")
            assert run_protocol("naive", "web", "quick") is first
            clear_cache()
            again = run_protocol("naive", "web", "quick")
            assert again is not first
            assert again == first  # deterministic protocol, fresh object
        finally:
            clear_cache()


class TestPersistentRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        clear_cache()
        try:
            yield run_protocol("naive", "web", "quick")
        finally:
            clear_cache()

    def test_to_dict_json_round_trip(self, result):
        from repro.backup.driver import RotationResult

        wire = json.loads(json.dumps(result.to_dict()))
        restored = RotationResult.from_dict(wire)
        assert restored == result
        assert restored.restore_speed == result.restore_speed
        assert restored.mean_read_amplification == result.mean_read_amplification

    def test_store_load_round_trip(self, result, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = _key(approach="naive", dataset="web")
        assert key not in cache
        assert cache.load(key) is None
        assert cache.misses == 1

        path = cache.store(key, result)
        assert path.is_file()
        assert key in cache
        assert len(cache) == 1

        loaded = cache.load(key)
        assert cache.hits == 1
        assert loaded is not result
        assert loaded == result

    def test_corrupt_entry_is_a_miss(self, result, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = _key(approach="naive", dataset="web")
        cache.store(key, result)
        cache.path_for(key).write_text("{not json")
        assert cache.load(key) is None

    def test_stale_format_is_a_miss(self, result, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = _key(approach="naive", dataset="web")
        path = cache.store(key, result)
        entry = json.loads(path.read_text())
        entry["format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None

    def test_clear_removes_entries(self, result, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cache.store(_key(), result)
        cache.store(_key(segment_size=10), result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCacheDirResolution:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert RunCache().root == tmp_path / "elsewhere"

    def test_default_is_repro_cache(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert str(default_cache_dir()) == ".repro-cache"

    def test_explicit_root_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "ignored"))
        assert RunCache(tmp_path / "explicit").root == tmp_path / "explicit"
