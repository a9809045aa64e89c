"""Hybrid inline/out-of-line dedup (`repro.dedup.hybrid`).

The contract under test: hybrid ingest classifies chunks with only a
neighbor-map/Bloom probe (never a full fingerprint-index lookup on the
miss path), stores neighbor-missed duplicates as fresh copies, and defers
them as candidates; the GC cycle coalesces those candidates onto their
canonical copies under a journaled ``rededup`` intent.  Once the backlog
drains, the system must be indistinguishable from inline dedup — same
live backups, same logical chunk streams, same physical bytes — in both
GC modes, and across a crash at the ``gc.rededup`` point.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.driver import BackupSpec, RotationDriver
from repro.backup.options import ServiceOptions
from repro.backup.system import DedupBackupService
from repro.backup.verify import verify_service
from repro.config import SystemConfig
from repro.dedup.hybrid import repoint_recipe
from repro.dedup.keys import logical_fp
from repro.errors import ConfigError, GCError, SimulatedCrash
from repro.faults import FaultPlan, recover_service
from repro.fleet.topology import FleetConfig
from repro.gc.incremental import GCBudget, IncrementalGC, _CycleCopyForward
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef
from repro.workloads.datasets import dataset

from tests.conftest import columnar_recipe, refs

DATASET = "web"

#: Small budget so incremental runs take several increments per phase.
SMALL_BUDGET = GCBudget(mark_recipes=3, sweep_containers=2, rededup_keys=3)


def duplicated(backups) -> list[BackupSpec]:
    """Every backup replayed under two source names — the second copy
    neighbor-misses everything and becomes the deferred population."""
    out: list[BackupSpec] = []
    for spec in backups:
        out.append(BackupSpec(source=f"{spec.source}#a", chunks=spec.chunks))
        out.append(BackupSpec(source=f"{spec.source}#b", chunks=spec.chunks))
    return out


@lru_cache(maxsize=1)
def small_specs() -> tuple[BackupSpec, ...]:
    return tuple(dataset(DATASET, scale=0.03, num_backups=6))


def drain(service, rounds: int = 4) -> None:
    for _ in range(rounds):
        if not service.hybrid.candidates:
            return
        service.run_gc()


def live_streams(service) -> dict:
    return {
        backup_id: [
            (logical_fp(entry.fp), entry.size)
            for entry in service.recipes.get(backup_id).entries
        ]
        for backup_id in service.live_backup_ids()
    }


class TestConfigValidation:
    def test_service_options_rejects_unknown_dedup_mode(self):
        with pytest.raises(ConfigError, match="inline"):
            ServiceOptions(dedup_mode="bogus").validate()

    def test_service_rejects_unknown_dedup_mode(self, tiny_config):
        with pytest.raises(ConfigError, match="dedup_mode"):
            DedupBackupService(config=tiny_config, dedup_mode="bogus")

    def test_service_rejects_unknown_gc_mode(self, tiny_config):
        with pytest.raises(ConfigError, match="gc_mode"):
            DedupBackupService(config=tiny_config, gc_mode="bogus")

    def test_fleet_config_rejects_unknown_dedup_mode(self):
        with pytest.raises(ConfigError, match="dedup_mode"):
            FleetConfig.synthetic(4, 2, dedup_mode="bogus")

    def test_every_approach_accepts_hybrid(self, scaled_config):
        # A uniform CLI surface: every approach constructs with
        # dedup_mode="hybrid".  Rewriting policies are attached after
        # construction, so their services carry hybrid state too — the
        # pipeline dispatch falls back to inline at ingest time and the
        # state stays inert (gated below in test_rewriting_fallback_is_inert).
        for approach in APPROACHES:
            service = make_service(
                approach, scaled_config, ServiceOptions(dedup_mode="hybrid")
            )
            hybrid = getattr(service, "hybrid", None)
            if approach in ("nondedup", "mfdedup"):
                assert hybrid is None, approach
            else:
                assert hybrid is not None, approach

    def test_rewriting_fallback_is_inert(self, scaled_config):
        # Capping's pipeline needs the full inline duplicate verdict per
        # chunk, so hybrid mode must neither defer nor skip index probes.
        service = make_service(
            "capping", scaled_config, ServiceOptions(dedup_mode="hybrid")
        )
        stream = refs("fallback", range(8))
        service.ingest(stream, source="a")
        service.ingest(stream, source="b")
        assert service.hybrid.deferred == 0
        assert not service.hybrid.candidates
        assert service.pipeline.logical.lookups > 0


class TestHybridIngest:
    def test_cross_source_duplicates_deferred(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        stream = refs("hyb", range(8))
        service.ingest(stream, source="a")
        service.ingest(stream, source="b")
        # Source "b" has no neighbor window; the ingest Bloom says
        # maybe-seen, so every chunk is stored fresh and deferred.
        assert service.hybrid.deferred == 8
        assert len(service.hybrid.candidates) == 8
        assert service.runtime_metrics()["hybrid.pending"] == 8

    def test_hybrid_never_probes_logical_index(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        stream = refs("hyb", range(8))
        service.ingest(stream, source="a")
        service.ingest(stream, source="b")
        assert service.pipeline.logical.lookups == 0

    def test_probe_reduction_on_duplicated_sources(self):
        # The claim hybrid dedup exists for (arXiv 1405.5661): over an
        # ingest-only run (no deletions, no GC) inline pays one logical
        # probe per chunk plus a validate per duplicate, hybrid only the
        # validate per neighbor hit.  Duplicated sources make the miss
        # path real: the "#b" stream neighbor-misses whatever "#a" stored.
        backups = duplicated(dataset(DATASET, scale=0.25, num_backups=12))
        config = SystemConfig.scaled(retained=len(backups), turnover=1)
        services = {}
        for dedup_mode in ("inline", "hybrid"):
            service = services[dedup_mode] = make_service(
                "naive", config, ServiceOptions(dedup_mode=dedup_mode)
            )
            for spec in backups:
                service.ingest(spec.chunks, source=spec.source)

        def probes(service) -> int:
            return service.pipeline.logical.lookups + service.index.lookups

        hybrid = services["hybrid"]
        assert hybrid.pipeline.logical.lookups == 0
        assert hybrid.hybrid.deferred > 0
        # Same chunk stream on both sides, so probes/chunk halves iff probes do.
        assert probes(hybrid) <= 0.5 * probes(services["inline"])

    def test_same_source_duplicates_hit_neighbor_window(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        stream = refs("hyb", range(8))
        service.ingest(stream, source="a")
        before = service.stats().physical_bytes
        service.ingest(stream, source="a")
        # The previous backup's map catches every chunk: one validating
        # index probe each, no new copies, nothing deferred.
        assert service.hybrid.neighbor_hits == 8
        assert service.hybrid.deferred == 0
        assert service.stats().physical_bytes == before

    def test_fresh_chunks_pass_the_filter_unstored_elsewhere(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        service.ingest(refs("hyb", range(8)), source="a")
        assert service.hybrid.filter_new == 8
        assert not service.hybrid.candidates

    def test_inline_service_has_no_hybrid_metrics(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        assert service.hybrid is None
        assert not any(k.startswith("hybrid.") for k in service.runtime_metrics())


class TestRededup:
    @pytest.mark.parametrize("approach", ["naive", "gccdf"])
    @pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
    def test_gc_coalesces_deferred_duplicates(self, tiny_config, gc_mode, approach):
        budget = SMALL_BUDGET if gc_mode == "incremental" else None
        options = ServiceOptions(gc_mode=gc_mode, gc_budget=budget)
        service = make_service(
            approach, tiny_config, options.with_overrides(dedup_mode="hybrid")
        )
        inline = make_service(approach, tiny_config, options)
        stream = refs("hyb", range(8))
        for peer in (service, inline):
            peer.ingest(stream, source="a")
            peer.ingest(stream, source="b")
        service.run_gc()
        drain(service)
        inline.run_gc()
        assert service.hybrid.coalesced == 8
        assert not service.hybrid.candidates
        assert service.stats().physical_bytes == inline.stats().physical_bytes
        assert live_streams(service) == live_streams(inline)
        assert verify_service(service).errors == []

    def test_dead_candidates_dropped_after_sweep(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        stream = refs("hyb", range(8))
        service.ingest(stream, source="a")
        second = service.ingest(stream, source="b")
        service.delete_backup(second.backup_id)
        # First GC: the candidates' only referer is dead, so they stay
        # idle while the sweep reclaims their copies; the next GC sees
        # them gone from the index and drops them.
        service.run_gc()
        service.run_gc()
        assert not service.hybrid.candidates
        assert service.hybrid.dropped == 8
        assert service.hybrid.coalesced == 0
        assert verify_service(service).errors == []

    def test_candidate_without_older_copy_promoted(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_mode="hybrid")
        stream = refs("hyb", range(8))
        first = service.ingest(stream, source="a")
        service.delete_backup(first.backup_id)
        service.run_gc()
        # The filter still remembers the reclaimed fingerprints, so the
        # re-ingest defers every chunk — but no older copy exists, so the
        # candidates are promoted to canonical, not coalesced.
        service.ingest(stream, source="b")
        assert len(service.hybrid.candidates) == 8
        service.run_gc()
        assert service.hybrid.promoted == 8
        assert not service.hybrid.candidates
        assert verify_service(service).errors == []

    def test_repoint_recipe(self):
        recipes = RecipeStore()
        dup, canonical, other = b"d" * 24, b"c" * 24, b"o" * 24
        recipes.add(
            columnar_recipe(
                recipes.interner,
                recipes.new_backup_id(),
                (
                    ChunkRef(fp=dup, size=10),
                    ChunkRef(fp=other, size=20),
                    ChunkRef(fp=dup, size=30),
                ),
                source="s",
            )
        )
        assert repoint_recipe(recipes, 0, dup, canonical) == 2
        entries = recipes.get(0).entries
        assert [entry.fp for entry in entries] == [canonical, other, canonical]
        assert [entry.size for entry in entries] == [10, 20, 30]
        assert recipes.get(0).source == "s"
        # Replays are idempotent: nothing references the dup any more.
        assert repoint_recipe(recipes, 0, dup, canonical) == 0


class TestDrainedEquivalenceProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        order=st.permutations(list(range(6))),
        sources=st.lists(
            st.sampled_from(["s0", "s1", "s2"]), min_size=6, max_size=6
        ),
        deletions=st.integers(min_value=0, max_value=3),
    )
    def test_hybrid_drained_equals_inline(self, order, sources, deletions):
        # Any ingest order, any source assignment, any deletion prefix:
        # after GC drains the deferred backlog, hybrid is inline.
        specs = small_specs()
        config = SystemConfig.scaled(retained=10, turnover=3)
        services = {
            "inline": make_service("naive", config, ServiceOptions()),
            "hybrid": make_service(
                "naive", config, ServiceOptions(dedup_mode="hybrid")
            ),
        }
        for service in services.values():
            for position, spec_index in enumerate(order):
                service.ingest(specs[spec_index].chunks, source=sources[position])
            for backup_id in service.live_backup_ids()[:deletions]:
                service.delete_backup(backup_id)
            service.run_gc()
        drain(services["hybrid"])
        assert (
            services["hybrid"].live_backup_ids()
            == services["inline"].live_backup_ids()
        )
        assert live_streams(services["hybrid"]) == live_streams(services["inline"])
        assert (
            services["hybrid"].stats().physical_bytes
            == services["inline"].stats().physical_bytes
        )
        assert verify_service(services["hybrid"]).errors == []


class TestRededupCrashRecovery:
    @pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
    @pytest.mark.parametrize("occurrence", [1, 2])
    def test_crash_recover_resume(self, gc_mode, occurrence):
        plan = FaultPlan.single("gc.rededup", occurrence=occurrence)
        budget = SMALL_BUDGET if gc_mode == "incremental" else None
        config = SystemConfig.scaled(retained=10, turnover=3)
        service = make_service(
            "naive",
            config,
            ServiceOptions(
                faults=plan, dedup_mode="hybrid", gc_mode=gc_mode, gc_budget=budget
            ),
        )
        driver = RotationDriver(service, config.retention, dataset_name=DATASET)
        with pytest.raises(SimulatedCrash) as exc:
            driver.run(duplicated(dataset(DATASET, scale=0.05, num_backups=12)))
        assert exc.value.point == "gc.rededup"

        report = recover_service(service)
        assert report.replayed >= 1  # the rededup intent rolls forward
        assert verify_service(service).errors == []

        # The survived system keeps operating: restores stay clean, GC
        # resumes (finishing the in-flight incremental cycle) and the
        # deferred backlog still drains to nothing.
        for backup_id in service.live_backup_ids():
            service.restore(backup_id)
        service.run_gc()
        drain(service)
        assert not service.hybrid.candidates
        assert verify_service(service).errors == []
        assert len(service.store.journal) == 0


def step_capped(monkeypatch, cap: int) -> list:
    """Fail (instead of hanging the suite) if a cycle takes > ``cap`` steps."""
    steps = []
    step = IncrementalGC.step

    def capped(self):
        steps.append(self._state.phase if self._state else None)
        assert len(steps) <= cap, f"cycle still in {steps[-1]} after {cap} steps"
        return step(self)

    monkeypatch.setattr(IncrementalGC, "step", capped)
    return steps


class TestIncrementalHybridDrains:
    """e2e README "Known defect 1": a backup deleted between ``begin()`` and
    the rededup slice of a duplicate it references keeps the duplicate's
    key in its (snapshot-live) recipe, so the key enters the VC table after
    it left the index.  The reclaim barrier must treat such a key as dead,
    like the partition does — it used to re-queue the source forever."""

    @pytest.mark.parametrize("approach", ["naive", "gccdf"])
    def test_backup_deleted_mid_rededup_does_not_pin_its_sources(
        self, tiny_config, monkeypatch, approach
    ):
        steps = step_capped(monkeypatch, 500)
        service = make_service(
            approach,
            tiny_config,
            ServiceOptions(
                dedup_mode="hybrid", gc_mode="incremental", gc_budget=SMALL_BUDGET
            ),
        )
        service.ingest(refs("x", range(24)), source="a")
        doomed = service.ingest(refs("x", range(24)), source="b")  # all deferred
        service.ingest(refs("x", range(24)), source="b")  # live referer
        assert len(service.hybrid.candidates) == 24
        service.gc.begin()  # snapshot: all three live
        service.delete_backup(doomed.backup_id)
        report = service.run_gc()

        assert "sweep" in steps and service.hybrid.coalesced == 24
        assert report.reclaimed_containers > 0
        service.run_gc()  # purges the deleted backup and its dead references
        assert not service.hybrid.candidates
        assert not service.hybrid.pending_sweep
        assert verify_service(service).errors == []
        assert len(service.store.journal) == 0

    def test_fleet_shard_finishes(self, monkeypatch):
        from repro.fleet import run_fleet

        steps = step_capped(monkeypatch, 5000)
        result = run_fleet(
            FleetConfig.synthetic(
                12,
                1,
                backups_per_tenant=20,
                approach="naive",
                gc_mode="incremental",
                dedup_mode="hybrid",
                seed=1,
            ),
            jobs=1,
        )
        assert steps.count("rededup") > 0 and steps.count("sweep") > 0
        counters = result.metrics["counters"]
        assert counters["runtime.hybrid.coalesced"] > 0
        assert counters["runtime.hybrid.pending"] == 0

    def test_drained_cycle_that_cannot_progress_raises(self, tiny_config, monkeypatch):
        """Whatever the cause, ``collect()`` must not spin: re-queueing the
        same sources twice with nothing reclaimed in between is an error."""
        step_capped(monkeypatch, 500)
        monkeypatch.setattr(
            _CycleCopyForward,
            "_reclaim",
            lambda self, container_id, fps, nbytes: self._state.requeue.append(
                container_id
            ),
        )
        service = make_service(
            "naive", tiny_config, ServiceOptions(gc_mode="incremental")
        )
        service.ingest(refs("y", range(24)))
        service.ingest(refs("y", range(12, 36)))
        service.delete_oldest(1)
        with pytest.raises(GCError, match="cannot drain"):
            service.run_gc()
