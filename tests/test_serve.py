"""The serving layer: offset columns, the tiered read cache, readers,
read/restore equivalence, fleet read traffic, and the consolidated
ServiceOptions / umbrella-CLI API surface."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import APPROACHES, make_service, service_factory
from repro.backup.driver import RotationDriver
from repro.backup.options import DEFAULT_OPTIONS, ServiceOptions
from repro.backup.system import DedupBackupService
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.errors import (
    BackupAlreadyDeletedError,
    ConfigError,
    IntegrityError,
    UnknownBackupError,
)
from repro.fleet.result import FleetResult, ShardResult
from repro.fleet.scheduler import KIND_PRIORITY, shard_schedule
from repro.fleet.topology import FleetConfig, TenantSpec
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.interning import FingerprintInterner
from repro.model import Chunk, ChunkRef
from repro.obs.tracer import TraceRecorder
from repro.serve.cache import TieredReadCache
from repro.storage.store import ContainerStore
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.datasets import dataset

from tests.conftest import columnar_recipe, refs


def tiny_config(retained: int = 6, turnover: int = 2) -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=retained, turnover=turnover),
    )
    config.validate()
    return config


def sized_refs(namespace: str, sizes) -> list[ChunkRef]:
    return [
        ChunkRef(fp=synthetic_fingerprint(namespace, i), size=size)
        for i, size in enumerate(sizes)
    ]


def payload_chunks(namespace: str, sizes) -> tuple[list[Chunk], bytes]:
    """Payload-carrying chunks with distinct repeating content, plus the
    backup's whole logical buffer."""
    chunks = []
    buffer = bytearray()
    for i, size in enumerate(sizes):
        data = bytes([(i * 37 + 11) % 256]) * size
        chunks.append(
            Chunk(ref=ChunkRef(fp=synthetic_fingerprint(namespace, i), size=size), data=data)
        )
        buffer.extend(data)
    return chunks, bytes(buffer)


# ----------------------------------------------------------------------
# Offset columns
# ----------------------------------------------------------------------


def sized_recipe(namespace: str, sizes):
    return columnar_recipe(
        FingerprintInterner(), 1, sized_refs(namespace, sizes), source="s"
    )


class TestChunkStarts:
    def test_prefix_sums(self):
        recipe = sized_recipe("cs", [10, 20, 30, 5])
        assert list(recipe.chunk_starts) == [0, 10, 30, 60]
        assert recipe.logical_size == 65

    def test_empty_recipe(self):
        assert list(sized_recipe("cs", []).chunk_starts) == []

    def test_cached(self):
        recipe = sized_recipe("cs3", [7])
        assert recipe.chunk_starts is recipe.chunk_starts


# ----------------------------------------------------------------------
# Tiered read cache
# ----------------------------------------------------------------------


class TestTieredReadCache:
    def test_chunk_tier_hits_misses_evictions(self):
        cache = TieredReadCache(store=None, chunk_capacity=2)
        assert cache.get_chunk(b"a") is None
        cache.put_chunk(b"a", 10, None)
        cache.put_chunk(b"b", 20, None)
        assert cache.get_chunk(b"a") == (10, None)  # refresh: "b" is now LRU
        cache.put_chunk(b"c", 30, None)
        assert cache.get_chunk(b"b") is None
        assert cache.get_chunk(b"a") == (10, None)
        assert cache.chunk_hits == 2
        assert cache.chunk_misses == 2
        assert cache.chunk_evictions == 1

    def test_put_chunk_refreshes_recency(self):
        # Regression: re-inserting a cached fingerprint must move it to
        # the MRU end — plain dict assignment leaves it at its old LRU
        # position, so a hot, repeatedly-fetched chunk could be evicted.
        cache = TieredReadCache(store=None, chunk_capacity=2)
        cache.put_chunk(b"a", 10, None)
        cache.put_chunk(b"b", 20, None)
        cache.put_chunk(b"a", 11, None)  # refresh (and update payload)
        cache.put_chunk(b"c", 30, None)  # must evict "b", not "a"
        assert cache.get_chunk(b"a") == (11, None)
        assert cache.get_chunk(b"b") is None
        assert cache.chunk_evictions == 1

    def test_put_chunk_refresh_does_not_evict(self):
        cache = TieredReadCache(store=None, chunk_capacity=2)
        cache.put_chunk(b"a", 10, None)
        cache.put_chunk(b"b", 20, None)
        cache.put_chunk(b"b", 21, None)  # at capacity: refresh, no eviction
        assert cache.chunk_evictions == 0
        assert len(cache) == 2

    def test_no_container_tier(self):
        cache = TieredReadCache(store=None)
        assert cache.container_hits == 0
        assert cache.container_misses == 0
        assert cache.container_evictions == 0
        with pytest.raises(ConfigError):
            cache.get_container(0)

    def test_container_tier_counters(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("trc", range(20)))
        ids = sorted(service.store.ids())
        cache = TieredReadCache(service.store, container_capacity=1)
        cache.get_container(ids[0])
        cache.get_container(ids[0])
        cache.get_container(ids[1])  # evicts ids[0]
        assert cache.container_hits == 1
        assert cache.container_misses == 2
        assert cache.container_evictions == 1

    def test_counters_payload(self):
        cache = TieredReadCache(store=None)
        cache.put_chunk(b"x", 1, None)
        cache.get_chunk(b"x")
        counters = cache.counters()
        assert counters["read_cache.chunk_hits"] == 1
        assert counters["read_cache.chunk_misses"] == 0
        assert set(counters) == {
            "read_cache.chunk_hits",
            "read_cache.chunk_misses",
            "read_cache.chunk_evictions",
            "read_cache.container_hits",
            "read_cache.container_misses",
            "read_cache.container_evictions",
        }

    def test_clear_keeps_counters(self):
        cache = TieredReadCache(store=None)
        cache.put_chunk(b"x", 1, None)
        cache.get_chunk(b"x")
        cache.clear()
        assert len(cache) == 0
        assert cache.chunk_hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            TieredReadCache(store=None, chunk_capacity=0)


# ----------------------------------------------------------------------
# BackupReader
# ----------------------------------------------------------------------


def reference_window(sizes, offset, length):
    """Independent model of a window's accounting: chunks whose byte span
    intersects [offset, end), and the clamped byte count."""
    total = sum(sizes)
    end = min(offset + length, total)
    if offset >= total or end <= offset:
        return 0, 0
    touched = 0
    start = 0
    for size in sizes:
        if start < end and start + size > offset:
            touched += 1
        start += size
    return touched, end - offset


class TestBackupReader:
    def make_reader(self, sizes, approach="naive"):
        service = make_service(approach, tiny_config())
        result = service.ingest(sized_refs("br", sizes))
        return service, service.open_backup(result.backup_id)

    def test_pread_accounting_matches_reference(self):
        sizes = [512, 128, 1024, 300, 512, 700]
        service, reader = self.make_reader(sizes)
        total = sum(sizes)
        windows = [
            (0, total), (0, 1), (511, 2), (512, 128), (640, 1), (total - 1, 1),
            (100, 2000), (1664, 300),
        ]
        for offset, length in windows:
            report = reader.pread(offset, length)
            chunks, nbytes = reference_window(sizes, offset, length)
            assert report.num_chunks == chunks, (offset, length)
            assert report.bytes_read == nbytes, (offset, length)
        assert reader.size == total
        assert reader.num_chunks == len(sizes)

    def test_pread_bytes_equals_buffer(self):
        sizes = [512, 128, 1024, 300]
        chunks, buffer = payload_chunks("brb", sizes)
        service = make_service("naive", tiny_config())
        result = service.ingest(chunks)
        with service.open_backup(result.backup_id) as reader:
            for offset, length in [(0, len(buffer)), (100, 700), (511, 2), (0, 1)]:
                report, data = reader.pread_bytes(offset, length)
                assert data == buffer[offset : offset + length]
                assert report.bytes_read == len(data)

    def test_pread_bytes_without_payloads_raises(self):
        service, reader = self.make_reader([512, 512])
        with pytest.raises(IntegrityError):
            reader.pread_bytes(0, 10)

    def test_zero_and_past_eof_reads(self):
        service, reader = self.make_reader([512])
        before = service.disk.sim_time
        for offset, length in [(512, 10), (5000, 1), (0, 0), (100, 0)]:
            report = reader.pread(offset, length)
            assert report.num_chunks == 0
            assert report.bytes_read == 0
            assert report.read_seconds == 0.0
        assert service.disk.sim_time == before

    def test_invalid_windows(self):
        _, reader = self.make_reader([512])
        with pytest.raises(ValueError):
            reader.pread(-1, 10)
        with pytest.raises(ValueError):
            reader.pread(0, -1)

    def test_closed_reader(self):
        _, reader = self.make_reader([512])
        reader.close()
        reader.close()  # idempotent
        assert reader.closed
        with pytest.raises(ValueError):
            reader.pread(0, 1)
        with pytest.raises(ValueError):
            reader.read_all()
        with pytest.raises(ValueError):
            with reader:
                pass

    def test_context_manager_closes(self):
        service, reader = self.make_reader([512])
        with reader as handle:
            assert handle is reader
        assert reader.closed

    def test_open_unknown_and_deleted(self):
        service = make_service("naive", tiny_config())
        with pytest.raises(UnknownBackupError):
            service.open_backup(999)
        result = service.ingest(refs("del", range(4)))
        service.delete_backup(result.backup_id)
        with pytest.raises(BackupAlreadyDeletedError):
            service.open_backup(result.backup_id)

    def test_chunk_cache_hit_on_repeat_read(self):
        service, reader = self.make_reader([512, 512])
        first = reader.pread(0, 1024)
        second = reader.pread(0, 1024)
        assert first.chunk_hits == 0
        assert second.chunk_hits == 2
        assert second.containers_read == 0
        assert second.read_seconds == 0.0

    def test_mfdedup_pread(self):
        service = make_service("mfdedup", tiny_config())
        result = service.ingest(refs("mf", range(16)))
        with service.open_backup(result.backup_id) as reader:
            report = reader.pread(0, reader.size)
            assert report.num_chunks == 16
            assert report.containers_read >= 1
            assert report.read_seconds > 0.0
            # Warm chunk tier: the repeat read is free.
            assert reader.pread(0, reader.size).read_seconds == 0.0
            with pytest.raises(IntegrityError):
                reader.pread_bytes(0, 10)

    def test_read_emits_trace_span(self):
        recorder = TraceRecorder()
        service = make_service(
            "naive", tiny_config(), ServiceOptions(tracer=recorder)
        )
        result = service.ingest(refs("sp", range(4)))
        with service.open_backup(result.backup_id) as reader:
            reader.pread(0, 1024)
        spans = [e for e in recorder.events if e.name == "read"]
        assert len(spans) == 1
        assert spans[0].fields["backup_id"] == result.backup_id
        assert spans[0].fields["chunks"] > 0

    def test_runtime_metrics_lazy(self):
        service = make_service("naive", tiny_config())
        result = service.ingest(refs("rm", range(4)))
        assert not any(
            name.startswith("read_cache.") for name in service.runtime_metrics()
        )
        service.open_backup(result.backup_id).pread(0, 100)
        metrics = service.runtime_metrics()
        assert metrics["read_cache.chunk_misses"] > 0

    def test_base_service_open_backup_unsupported(self):
        from repro.backup.service import BackupService

        class Stub(BackupService):
            def ingest(self, stream, source=""):
                raise NotImplementedError

            def restore(self, backup_id):
                raise NotImplementedError

            def delete_backup(self, backup_id):
                raise NotImplementedError

            def run_gc(self):
                raise NotImplementedError

            def live_backup_ids(self):
                return []

            def stats(self):
                raise NotImplementedError

        with pytest.raises(NotImplementedError, match="read serving"):
            Stub().open_backup(1)

    def test_read_cache_knobs_thread_through(self):
        options = ServiceOptions(read_cache_containers=3, read_cache_chunks=5)
        service = make_service("naive", tiny_config(), options)
        assert service.read_cache.containers.capacity == 3
        assert service.read_cache.chunk_capacity == 5
        mf = make_service("mfdedup", tiny_config(), options)
        assert mf.read_cache.chunk_capacity == 5
        assert mf.read_cache.containers is None


# ----------------------------------------------------------------------
# Property: pread accounting and bytes vs. a reference model
# ----------------------------------------------------------------------


size_lists = st.lists(st.integers(min_value=1, max_value=1024), min_size=1, max_size=24)
windows = st.tuples(
    st.integers(min_value=0, max_value=8192), st.integers(min_value=0, max_value=8192)
)


@given(size_lists, st.lists(windows, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_prop_pread_accounting(sizes, window_list):
    service = make_service("naive", tiny_config())
    result = service.ingest(sized_refs("pp", sizes))
    with service.open_backup(result.backup_id) as reader:
        for offset, length in window_list:
            report = reader.pread(offset, length)
            chunks, nbytes = reference_window(sizes, offset, length)
            assert report.num_chunks == chunks
            assert report.bytes_read == nbytes


@given(size_lists, windows)
@settings(max_examples=40, deadline=None)
def test_prop_pread_bytes_matches_buffer(sizes, window):
    chunks, buffer = payload_chunks("pb", sizes)
    service = make_service("naive", tiny_config())
    result = service.ingest(chunks)
    offset, length = window
    with service.open_backup(result.backup_id) as reader:
        _, data = reader.pread_bytes(offset, length)
        assert data == buffer[offset : offset + length]


@pytest.mark.parametrize("approach", APPROACHES)
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_prop_pread_accounting_every_approach(approach, probe_seed):
    """Every approach's reader agrees with the size-list reference model,
    including after a second, overlapping backup deduplicates chunks into
    containers written for the first."""
    rng = DeterministicRng(probe_seed)
    sizes = [rng.randint(1, 1024) for _ in range(rng.randint(4, 16))]
    service = make_service(approach, tiny_config())
    service.ingest(sized_refs("pa", sizes))
    result = service.ingest(sized_refs("pa", sizes) + sized_refs("pa2", [256, 256]))
    full = sizes + [256, 256]
    total = sum(full)
    with service.open_backup(result.backup_id) as reader:
        for _ in range(4):
            offset = rng.randint(0, total)
            length = rng.randint(0, total)
            report = reader.pread(offset, length)
            chunks, nbytes = reference_window(full, offset, length)
            assert report.num_chunks == chunks
            assert report.bytes_read == nbytes


# ----------------------------------------------------------------------
# read_all ≡ restore, every approach
# ----------------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_read_all_counter_identical_to_restore(approach):
    def run_protocol():
        service = make_service(approach, tiny_config(retained=4, turnover=2))
        for round_index in range(5):
            service.ingest(refs("eq", range(round_index * 6, round_index * 6 + 24)))
        live = service.live_backup_ids()
        for victim in live[:2]:
            service.delete_backup(victim)
        service.run_gc()
        return service

    restore_service = run_protocol()
    serve_service = run_protocol()
    live = sorted(restore_service.live_backup_ids())
    assert live == sorted(serve_service.live_backup_ids())
    assert live
    for backup_id in live:
        expected = restore_service.restore(backup_id)
        with serve_service.open_backup(backup_id) as reader:
            assert reader.read_all() == expected


# ----------------------------------------------------------------------
# Defragmentation makes aged reads faster (paper Fig. 12, on point reads)
# ----------------------------------------------------------------------


class TestAgedReads:
    """After the §6.1 rotation the newest live backup has deduplicated
    against the whole history, so under naive its chunks scatter across
    every surviving container.  GCCDF's piggybacked defragmentation and
    MFDedup's lifecycle-adjacent volumes must serve seeded point reads on
    it in less mean simulated time than naive (the read cache is cold: the
    service has served no read before)."""

    # Shorter histories do not fragment: at web 0.06 / 12 backups gccdf's
    # layout equals naive's and the comparison gates nothing.
    DATASET, SCALE, BACKUPS, RETAINED, TURNOVER = "web", 0.2, 30, 20, 5
    READS, READ_FRACTION = 12, 0.0625

    def aged_mean_latency(self, approach: str) -> float:
        config = SystemConfig.scaled(retained=self.RETAINED, turnover=self.TURNOVER)
        service = make_service(approach, config)
        RotationDriver(service, config.retention, dataset_name=self.DATASET).run(
            dataset(self.DATASET, scale=self.SCALE, num_backups=self.BACKUPS)
        )
        newest = max(service.live_backup_ids())
        seconds = 0.0
        with service.open_backup(newest) as reader:
            length = int(reader.size * self.READ_FRACTION)
            for i in range(self.READS):
                rng = DeterministicRng(derive_seed(0, "serve", newest, i))
                offset = rng.randint(0, reader.size - length)
                seconds += reader.pread(offset, length).read_seconds
        return seconds / self.READS

    def test_gccdf_and_mfdedup_beat_naive(self):
        naive = self.aged_mean_latency("naive")
        assert self.aged_mean_latency("gccdf") < naive
        assert self.aged_mean_latency("mfdedup") < naive


# ----------------------------------------------------------------------
# ServiceOptions and the make_service surface
# ----------------------------------------------------------------------


class TestServiceOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS == ServiceOptions()
        assert DEFAULT_OPTIONS.gc_mode == "stw"
        assert DEFAULT_OPTIONS.read_cache_containers == 8

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_OPTIONS.gc_mode = "incremental"

    def test_validate_rejects_bad_gc_mode(self):
        with pytest.raises(ConfigError):
            ServiceOptions(gc_mode="eager").validate()

    def test_validate_rejects_bad_cache_knobs(self):
        with pytest.raises(ConfigError):
            ServiceOptions(read_cache_containers=0).validate()
        with pytest.raises(ConfigError):
            ServiceOptions(read_cache_chunks=-1).validate()

    def test_with_overrides(self):
        options = ServiceOptions().with_overrides(gc_mode="incremental")
        assert options.gc_mode == "incremental"
        with pytest.raises(ConfigError):
            ServiceOptions().with_overrides(no_such_knob=1)

    def test_unknown_policy_kwarg_named(self):
        with pytest.raises(ConfigError, match=r"capping.*valid knobs.*cap"):
            make_service("capping", tiny_config(), capp=20)

    def test_policy_kwargs_rejected_for_plain_approaches(self):
        with pytest.raises(ConfigError, match="takes no policy kwargs"):
            make_service("naive", tiny_config(), cap=20)
        with pytest.raises(ConfigError, match="takes no policy kwargs"):
            service_factory("gccdf", tiny_config(), utilization_threshold=0.5)
        # Cross-cutting knobs travel in ServiceOptions only.
        with pytest.raises(ConfigError, match="takes no policy kwargs"):
            make_service("naive", tiny_config(), gc_mode="incremental")

    def test_valid_policy_kwargs_still_work(self):
        service = make_service("capping", tiny_config(), cap=4)
        assert service.pipeline.rewriting is not None

    def test_unknown_approach_still_value_error(self):
        with pytest.raises(ValueError, match="unknown approach"):
            make_service("bogus", tiny_config())


# ----------------------------------------------------------------------
# Fleet read traffic
# ----------------------------------------------------------------------


def read_fleet(**overrides) -> FleetConfig:
    params = dict(
        datasets=("web", "mix"),
        workload_scale=0.02,
        backups_per_tenant=5,
        stream_pool=3,
        retained=3,
        turnover=1,
        read_requests=2,
        seed=11,
    )
    params.update(overrides)
    return FleetConfig.synthetic(6, 2, **params)


class TestFleetReads:
    def test_schedule_reads_after_restore(self):
        tenants = (
            TenantSpec(name="a", dataset="web", workload_scale=0.02, num_backups=4),
            TenantSpec(name="b", dataset="mix", workload_scale=0.02, num_backups=4),
        )
        schedule = shard_schedule(tenants, 3, 1, 1.0, 4.0, 7, read_requests=3)
        reads = [r for r in schedule if r.kind == "read"]
        assert len(reads) == 6
        assert KIND_PRIORITY["read"] == 5
        for tenant in ("a", "b"):
            restore_at = next(
                r.time for r in schedule if r.kind == "restore" and r.tenant == tenant
            )
            tenant_reads = [r for r in reads if r.tenant == tenant]
            assert [r.backup_index for r in tenant_reads] == [0, 1, 2]
            assert all(r.time > restore_at for r in tenant_reads)

    def test_no_reads_by_default(self):
        tenants = (
            TenantSpec(name="a", dataset="web", workload_scale=0.02, num_backups=4),
        )
        schedule = shard_schedule(tenants, 3, 1, 1.0, 4.0, 7)
        assert not any(r.kind == "read" for r in schedule)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            read_fleet(read_requests=-1)
        with pytest.raises(ConfigError):
            read_fleet(read_fraction=0.0)
        with pytest.raises(ConfigError):
            read_fleet(read_fraction=1.5)

    def test_jobs_independent_and_counted(self):
        from repro.fleet.runner import run_fleet

        serial = run_fleet(read_fleet(), jobs=1)
        pooled = run_fleet(read_fleet(), jobs=2)
        assert serial.canonical_json() == pooled.canonical_json()
        counters = serial.metrics["counters"]
        assert counters["read.requests"] == 12
        assert counters["read.chunks"] > 0
        assert counters["runtime.read_cache.chunk_misses"] > 0
        samples = [s for shard in serial.shards for s in shard.read_latencies]
        assert len(samples) == 12
        quantiles = serial.read_latency_quantiles()
        assert quantiles["max"] == max(samples)
        assert quantiles["p50"] <= quantiles["p99"] <= quantiles["max"]

    def test_read_latency_quantiles_empty(self):
        result = FleetResult(
            approach="naive", dedup_domain="shared",
            num_tenants=0, num_shards=0, seed=0,
        )
        assert result.read_latency_quantiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_read_latency_quantiles_exact(self):
        shard = ShardResult(shard_id=0, read_latencies=[0.4, 0.1, 0.2, 0.3])
        result = FleetResult(
            approach="naive", dedup_domain="shared",
            num_tenants=1, num_shards=1, seed=0, shards=[shard],
        )
        quantiles = result.read_latency_quantiles()
        assert quantiles == {"p50": 0.2, "p90": 0.4, "p99": 0.4, "max": 0.4}

    def test_shard_result_roundtrip(self):
        shard = ShardResult(shard_id=3, read_latencies=[0.5])
        assert ShardResult.from_dict(shard.to_dict()).read_latencies == [0.5]
        assert ShardResult.from_dict({
            "shard_id": 0, "tenants": [], "requests": {}, "stats": {},
            "tenant_summaries": {}, "metrics": {},
        }).read_latencies == []


# ----------------------------------------------------------------------
# Umbrella CLI
# ----------------------------------------------------------------------


class TestUmbrellaCli:
    @pytest.mark.parametrize("tool", ["experiments", "fleet"])
    def test_forwarded_help(self, tool, capsys):
        from repro.tools import main

        with pytest.raises(SystemExit) as excinfo:
            main([tool, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_forwarded_fleet_run(self, capsys):
        from repro.tools import main

        assert main([
            "fleet", "--preset", "quick", "--tenants", "4", "--shards", "2",
            "--backups", "3", "--workload-scale", "0.01", "--retained", "2",
            "--turnover", "1", "--reads", "1", "--jobs", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "read latency:" in output

    def test_existing_subcommands_unaffected(self, capsys):
        from repro.tools import main

        assert main([
            "simulate", "--dataset", "web", "--backups", "3", "--scale", "0.02",
            "--retained", "2", "--turnover", "1", "--approach", "naive",
        ]) == 0
        assert "dedup ratio" in capsys.readouterr().out

    def test_help_lists_forwarded_tools(self, capsys):
        from repro.tools import main

        with pytest.raises(SystemExit):
            main(["--help"])
        output = capsys.readouterr().out
        for tool in ("experiments", "fleet", "faults"):
            assert tool in output
