"""Integration tests for GCCDF: Preprocessor, Planner, and the full
migration strategy plugged into mark–sweep GC."""

import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.backup.system import DedupBackupService
from repro.config import GCCDFConfig, SystemConfig
from repro.core.analyzer import Analyzer
from repro.core.gccdf import GCCDFMigration
from repro.core.planner import Planner
from repro.core.preprocessor import Preprocessor
from repro.core.clusters import Cluster
from repro.dedup.keys import storage_key
from repro.gc.mark import MarkStage
from repro.gc.migration import SweepContext
from repro.hashing.bloom import BloomFilter
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.columnar import ColumnarRecipe
from repro.model import ChunkRef
from repro.obs import TraceRecorder

from tests.conftest import refs


def gccdf_service(tiny_config, **gccdf_overrides) -> DedupBackupService:
    config = tiny_config.with_gccdf(**gccdf_overrides) if gccdf_overrides else tiny_config
    return DedupBackupService(config=config, migration=GCCDFMigration(), name="gccdf")


def sweep_context(service) -> SweepContext:
    mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
    return SweepContext(
        config=service.config,
        store=service.store,
        index=service.index,
        recipes=service.recipes,
        disk=service.disk,
        mark=mark,
    )


class TestPreprocessor:
    def test_segments_respect_configured_size(self, tiny_config):
        config = tiny_config.with_gccdf(segment_size=2)
        service = DedupBackupService(config=config, migration=GCCDFMigration())
        first = service.ingest(refs("p", range(64)))  # 8 containers
        service.ingest(refs("p", range(0, 64, 2)))
        service.delete_backup(first.backup_id)
        segments = list(Preprocessor(sweep_context(service)).segments())
        assert all(len(s.container_ids) <= 2 for s in segments)
        assert len(segments) >= 2

    def test_fully_valid_containers_excluded(self, tiny_config):
        service = gccdf_service(tiny_config)
        first = service.ingest(refs("p", range(16)))
        service.ingest(refs("p", range(16)))  # everything still referenced
        service.delete_backup(first.backup_id)
        segments = list(Preprocessor(sweep_context(service)).segments())
        assert segments == []  # involved but nothing reclaimable

    def test_segment_carries_valid_chunks_and_owners(self, tiny_config):
        service = gccdf_service(tiny_config)
        # Second backup keeps every other chunk, so each old container holds
        # a mix of valid and invalid chunks.
        first = service.ingest(refs("p", range(16)))
        second = service.ingest(refs("p", range(0, 16, 2)))
        service.delete_backup(first.backup_id)
        (segment,) = Preprocessor(sweep_context(service)).segments()
        valid_keys = {c.fp for c in segment.valid_chunks}
        live_keys = {e.fp for e in service.recipes.get(second.backup_id).entries}
        assert valid_keys == live_keys
        assert segment.involved_backups == (second.backup_id,)
        assert segment.invalid_bytes == 8 * 512

    def test_segment_reads_charge_sweep_io(self, tiny_config):
        service = gccdf_service(tiny_config)
        first = service.ingest(refs("p", range(16)))
        service.ingest(refs("p", range(0, 16, 2)))
        service.delete_backup(first.backup_id)
        ctx = sweep_context(service)
        before = service.disk.stats.read_bytes
        list(Preprocessor(ctx).segments())
        assert service.disk.stats.read_bytes > before


class TestPlanner:
    def _cluster(self, owners, ids):
        return Cluster(
            ownership=tuple(owners),
            chunks=[
                ChunkRef(fp=storage_key(synthetic_fingerprint("pl", i)), size=10)
                for i in ids
            ],
        )

    def test_flattens_in_cluster_order(self):
        planner = Planner(GCCDFConfig(packing="tree"))
        clusters = [self._cluster([1, 2], [1, 2]), self._cluster([1], [3])]
        order = planner.plan(clusters, (1, 2))
        assert [c.fp for c in order.sequence] == [
            storage_key(synthetic_fingerprint("pl", i)) for i in (1, 2, 3)
        ]
        assert order.num_clusters == 2
        assert order.num_chunks == 3

    def test_greedy_reorders(self):
        planner = Planner(GCCDFConfig(packing="greedy"))
        clusters = [self._cluster([1], [3]), self._cluster([1, 2], [1, 2])]
        order = planner.plan(clusters, (1, 2))
        # Largest ownership first under greedy packing.
        assert order.sequence[0].fp == storage_key(synthetic_fingerprint("pl", 1))


class TestGCCDFMigration:
    def test_space_reclaimed_matches_naive(self, tiny_config):
        """GCCDF must reclaim exactly the same garbage as classic GC."""
        from repro.gc.migration import NaiveMigration

        outcomes = {}
        for name, migration in (("naive", NaiveMigration()), ("gccdf", GCCDFMigration())):
            service = DedupBackupService(config=tiny_config, migration=migration)
            first = service.ingest(refs("g", range(32)))
            service.ingest(refs("g", range(16, 48)))
            service.delete_backup(first.backup_id)
            service.run_gc()
            outcomes[name] = service.store.stored_bytes
        assert outcomes["naive"] == outcomes["gccdf"]

    def test_survivors_restorable_after_gccdf_gc(self, tiny_config):
        service = gccdf_service(tiny_config)
        first = service.ingest(refs("g", range(32)))
        second = service.ingest(refs("g", range(16, 48)))
        third = service.ingest(refs("g", list(range(24, 48)) + list(range(100, 108))))
        service.delete_backup(first.backup_id)
        report = service.run_gc()
        assert report.reclaimed_containers > 0
        for backup_id in (second.backup_id, third.backup_id):
            restore = service.restore(backup_id)
            assert restore.logical_bytes == 32 * 512

    def test_index_relocations_point_at_live_containers(self, tiny_config):
        service = gccdf_service(tiny_config)
        first = service.ingest(refs("g", range(32)))
        service.ingest(refs("g", range(16, 48)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        for key, placement in service.index.items():
            assert placement.container_id in service.store

    def test_analyze_time_recorded(self, tiny_config):
        service = gccdf_service(tiny_config)
        first = service.ingest(refs("g", range(32)))
        service.ingest(refs("g", range(0, 32, 2)))  # interleaved survivors
        service.delete_backup(first.backup_id)
        report = service.run_gc()
        # Simulated analyze time: Analyzer/Planner ops × modelled cost.
        assert report.analyze_seconds > 0.0

    def test_clustering_improves_ownership_locality(self, tiny_config):
        """After GCCDF GC, a backup sharing only part of an old backup's
        chunks restores with lower read amplification than under naive GC."""
        from repro.gc.migration import NaiveMigration

        amps = {}
        for name, migration in (("naive", NaiveMigration()), ("gccdf", GCCDFMigration())):
            service = DedupBackupService(config=tiny_config, migration=migration)
            base = service.ingest(refs("g", range(64)))
            # Interleaved ownership: i%4==0 shared, ==1 only a, ==2 only b,
            # ==3 garbage once the base is deleted.
            survivor_a = service.ingest(refs("g", [i for i in range(64) if i % 4 in (0, 1)]))
            survivor_b = service.ingest(refs("g", [i for i in range(64) if i % 4 in (0, 2)]))
            service.delete_backup(base.backup_id)
            service.run_gc()
            amps[name] = (
                service.restore(survivor_a.backup_id).read_amplification
                + service.restore(survivor_b.backup_id).read_amplification
            )
        assert amps["gccdf"] < amps["naive"]

    def test_random_packing_configurable(self, tiny_config):
        service = gccdf_service(tiny_config, packing="random")
        first = service.ingest(refs("g", range(32)))
        service.ingest(refs("g", range(16, 48)))
        service.delete_backup(first.backup_id)
        report = service.run_gc()  # must run without error
        assert report.reclaimed_containers > 0

    def test_cluster_counts_reported(self, tiny_config):
        migration = GCCDFMigration()
        service = DedupBackupService(config=tiny_config, migration=migration)
        first = service.ingest(refs("g", range(32)))
        service.ingest(refs("g", range(0, 32, 2)))  # interleaved survivors
        service.delete_backup(first.backup_id)
        service.run_gc()
        assert migration.last_cluster_counts
        assert all(count >= 1 for count in migration.last_cluster_counts)

    def test_gc_cache_payloads_preserved(self, tiny_config):
        """Byte-level chunks keep their payloads across a GCCDF migration."""
        from repro.chunking.base import split
        from repro.chunking.fastcdc import FastCDC
        from repro.util.rng import DeterministicRng

        service = gccdf_service(tiny_config)
        cdc = FastCDC(tiny_config.chunking)
        rng = DeterministicRng(11)
        data_a = bytes(rng.randint(0, 255) for _ in range(12_000))
        data_b = data_a[:6000] + bytes(rng.randint(0, 255) for _ in range(6000))
        first = service.ingest(split(cdc, data_a))
        second = service.ingest(split(cdc, data_b))
        service.delete_backup(first.backup_id)
        service.run_gc()
        _, restored = service.restore_bytes(second.backup_id)
        assert restored == data_b


class TestParallelSegments:
    """§5.5's extension: independent segment workflows parallelise."""

    def test_parallel_workers_shrink_analyze_time(self, tiny_config):
        config = tiny_config.with_gccdf(segment_size=1)  # many segments
        times = {}
        for workers in (1, 4):
            service = DedupBackupService(
                config=config, migration=GCCDFMigration(parallel_workers=workers)
            )
            first = service.ingest(refs("p", range(64)))
            service.ingest(refs("p", range(0, 64, 2)))
            service.delete_backup(first.backup_id)
            times[workers] = service.run_gc().analyze_seconds
        assert times[4] < times[1]

    def test_parallelism_capped_by_segment_count(self, tiny_config):
        """One segment → no speedup however many workers."""
        config = tiny_config.with_gccdf(segment_size=10_000)
        times = {}
        for workers in (1, 8):
            service = DedupBackupService(
                config=config, migration=GCCDFMigration(parallel_workers=workers)
            )
            first = service.ingest(refs("p", range(64)))
            service.ingest(refs("p", range(0, 64, 2)))
            service.delete_backup(first.backup_id)
            times[workers] = service.run_gc().analyze_seconds
        assert times[8] == pytest.approx(times[1])

    def test_parallelism_does_not_change_results(self, tiny_config):
        layouts = {}
        for workers in (1, 4):
            service = DedupBackupService(
                config=tiny_config, migration=GCCDFMigration(parallel_workers=workers)
            )
            first = service.ingest(refs("p", range(64)))
            keep = service.ingest(refs("p", range(0, 64, 2)))
            service.delete_backup(first.backup_id)
            service.run_gc()
            layouts[workers] = [
                tuple(e.fp for e in c.entries) for c in service.store.containers()
            ]
        assert layouts[1] == layouts[4]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            GCCDFMigration(parallel_workers=0)


class TestReferenceCheckAccounting:
    """The id kernel changes how membership is answered, never what the
    cost model charges: per-segment ``(last_probe_count, build_ops,
    clusters)`` and per-round ``analyze_ops`` of one pinned rotation equal
    the numbers the pre-kernel implementation produced — under exact
    checks (now the default) and under the Bloom ablation (its old
    default, false positives included)."""

    PINNED = {
        True: (
            [(258, 180, 4), (190, 317, 6), (283, 268, 5), (301, 339, 6), (334, 335, 6)],
            [540, 583, 647, 737, 773],
        ),
        False: (
            [(258, 180, 4), (189, 317, 7), (389, 336, 5), (250, 339, 6), (326, 335, 6)],
            [540, 595, 829, 678, 765],
        ),
    }

    @staticmethod
    def rotate(tiny_config, monkeypatch, during_gc=nullcontext, **options):
        """Three interleaved sources, 16 backups, 5 GC rounds (each run
        inside ``during_gc()``)."""
        segments = []
        cluster = Analyzer.cluster

        def spy(self, *args, **kwargs):
            clusters = cluster(self, *args, **kwargs)
            segments.append(
                (self.last_probe_count, self.checker.build_ops, len(clusters))
            )
            return clusters

        monkeypatch.setattr(Analyzer, "cluster", spy)
        recorder = TraceRecorder()
        service = make_service(
            "gccdf", config=tiny_config, options=ServiceOptions(tracer=recorder, **options)
        )
        for generation in range(16):
            rng = random.Random(generation)
            window = range(generation, generation + 90)
            service.ingest(
                refs(f"pin{generation % 3}", [i for i in window if rng.random() < 0.7])
            )
            if generation >= 6 and generation % 2 == 0:
                service.delete_oldest(2)
                with during_gc():
                    service.run_gc()
        rounds = [e.fields["analyze_ops"] for e in recorder.events if e.name == "gc.analyze"]
        return segments, rounds

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
    def test_pinned_rotation_op_counts(self, tiny_config, monkeypatch, exact, gc_mode):
        config = tiny_config.with_gccdf(exact_reference_check=exact)
        assert self.rotate(config, monkeypatch, gc_mode=gc_mode) == self.PINNED[exact]

    @pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
    def test_default_gc_builds_no_filter_and_no_key_set(
        self, tiny_config, monkeypatch, gc_mode
    ):
        assert GCCDFConfig().exact_reference_check
        built = []
        in_gc = []

        @contextmanager
        def during_gc():
            in_gc.append(True)
            yield
            in_gc.pop()

        def counted(name, original):
            def wrapper(self, *args, **kwargs):
                built.extend([name] * len(in_gc))
                return original(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            BloomFilter, "__init__", counted("bloom", BloomFilter.__init__)
        )
        monkeypatch.setattr(
            ColumnarRecipe,
            "unique_fingerprints",
            counted("key set", ColumnarRecipe.unique_fingerprints),
        )
        _, rounds = self.rotate(tiny_config, monkeypatch, during_gc, gc_mode=gc_mode)
        assert rounds == self.PINNED[True][1]  # five real GC cycles ran
        assert built == []
