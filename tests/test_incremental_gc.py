"""Incremental, crash-recoverable GC (`repro.gc.incremental`).

Three pillars:

* **Drained equivalence** — running every ``run_gc`` as a budgeted
  incremental cycle (drained increment by increment) must end every
  approach in *exactly* the stop-the-world state: same stats, same live
  backups, same physical layout, same simulated device time, same GC
  reports (modulo the wall-clock ``analyze_cpu_seconds``).  Budgets only
  change how the work is sliced, never what it computes.
* **Crash-resume** — a crash at *every* ``gc.increment`` boundary must
  recover to a verifier-clean state from which the journaled cycle
  resumes to completion (journal empty afterwards).
* **Interleaving safety** — property tests mixing incremental GC steps
  with ingest/restore/crash+recover: when each cycle drains before the
  next mutation, the final state equals the uninterrupted stop-the-world
  run; with ingests *inside* a cycle, the live-reference barrier keeps
  every backup restorable and the verifier clean.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.options import ServiceOptions
from repro.backup.driver import RotationDriver
from repro.backup.system import DedupBackupService
from repro.backup.verify import verify_service
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.errors import ConfigError, SimulatedCrash
from repro.faults import FaultPlan, recover_service
from repro.gc.incremental import GCBudget, IncrementalGC
from repro.gc.mark import MarkScan
from repro.gc.migration import NaiveMigration
from repro.index.columnar import RecipeEntriesView
from repro.workloads.datasets import dataset

from tests.conftest import refs

DATASET = "web"
#: Small enough that every phase spans several increments.
SMALL_BUDGET = GCBudget(mark_recipes=3, sweep_containers=2, mfdedup_volumes=1)


def run_protocol(approach: str, gc_mode: str, budget=None, faults=None):
    config = SystemConfig.scaled(retained=10, turnover=3)
    service = make_service(
        approach, config, ServiceOptions(gc_mode=gc_mode, gc_budget=budget, faults=faults)
    )
    driver = RotationDriver(service, config.retention, dataset_name=DATASET)
    result = driver.run(dataset(DATASET, scale=0.1, num_backups=16))
    return service, result


def report_key(report) -> dict:
    data = dataclasses.asdict(report)
    data.pop("analyze_cpu_seconds")  # interpreter wall-clock, not simulated
    return data


def layout_ids(service) -> list:
    if hasattr(service, "store"):
        return sorted(service.store.ids())
    return sorted(service.volumes._volumes)


def live_journal(service):
    return service.volumes.journal if hasattr(service, "volumes") else service.store.journal


class TestBudget:
    def test_defaults_are_positive(self):
        budget = GCBudget()
        assert budget.mark_recipes >= 1
        assert budget.sweep_containers >= 1
        assert budget.mfdedup_volumes >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mark_recipes": 0},
            {"sweep_containers": 0},
            {"mfdedup_volumes": -1},
            {"rededup_keys": 0},
        ],
    )
    def test_non_positive_budgets_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GCBudget(**kwargs)

    def test_unknown_gc_mode_rejected(self):
        with pytest.raises(ConfigError):
            make_service("naive", options=ServiceOptions(gc_mode="eager"))


class TestDrainedEquivalence:
    """Budgeted-and-drained incremental GC ≡ stop-the-world, per approach."""

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_final_state_counter_identical(self, approach):
        stw_service, stw = run_protocol(approach, "stw")
        inc_service, inc = run_protocol(approach, "incremental", budget=SMALL_BUDGET)

        assert inc_service.stats() == stw_service.stats()
        assert inc_service.live_backup_ids() == stw_service.live_backup_ids()
        assert layout_ids(inc_service) == layout_ids(stw_service)
        assert inc_service.disk.sim_time == stw_service.disk.sim_time
        assert [report_key(r) for r in inc.gc_reports] == [
            report_key(r) for r in stw.gc_reports
        ]
        assert verify_service(inc_service).errors == []
        assert len(live_journal(inc_service)) == 0

    @pytest.mark.parametrize("approach", ("naive", "gccdf", "mfdedup"))
    def test_budget_size_never_changes_the_outcome(self, approach):
        tiny = GCBudget(mark_recipes=1, sweep_containers=1, mfdedup_volumes=1)
        huge = GCBudget(
            mark_recipes=10_000, sweep_containers=10_000, mfdedup_volumes=10_000
        )
        a_service, a = run_protocol(approach, "incremental", budget=tiny)
        b_service, b = run_protocol(approach, "incremental", budget=huge)
        assert a_service.stats() == b_service.stats()
        assert layout_ids(a_service) == layout_ids(b_service)
        assert a_service.disk.sim_time == b_service.disk.sim_time
        assert [report_key(r) for r in a.gc_reports] == [
            report_key(r) for r in b.gc_reports
        ]


class TestCrashResume:
    """Crash at every increment boundary; recover; resume; verify."""

    def count_boundaries(self, approach: str) -> int:
        plan = FaultPlan()  # nothing armed: just counts hits
        run_protocol(approach, "incremental", budget=SMALL_BUDGET, faults=plan)
        return plan.hits.get("gc.increment", 0)

    @pytest.mark.parametrize("approach", ("naive", "capping", "gccdf", "mfdedup"))
    def test_every_boundary_recovers_and_resumes(self, approach):
        boundaries = self.count_boundaries(approach)
        assert boundaries > 0, "budget too large: no increment boundary fired"
        for occurrence in range(1, boundaries + 1):
            plan = FaultPlan.single("gc.increment", occurrence=occurrence)
            config = SystemConfig.scaled(retained=10, turnover=3)
            service = make_service(
                approach, config,
                ServiceOptions(gc_mode="incremental", gc_budget=SMALL_BUDGET, faults=plan),
            )
            driver = RotationDriver(service, config.retention, dataset_name=DATASET)
            with pytest.raises(SimulatedCrash):
                driver.run(dataset(DATASET, scale=0.1, num_backups=16))

            recover_service(service)
            assert verify_service(service).errors == [], (approach, occurrence)
            # The journaled cycle resumes to completion, not from scratch.
            service.run_gc()
            assert verify_service(service).errors == [], (approach, occurrence)
            assert len(live_journal(service)) == 0, (approach, occurrence)
            for backup_id in service.live_backup_ids():
                service.restore(backup_id)


# ----------------------------------------------------------------------
# Property tests: incremental steps interleaved with foreground traffic.
# ----------------------------------------------------------------------


def make_config() -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
    )
    config.validate()
    return config


def build_incremental(budget: GCBudget) -> DedupBackupService:
    return DedupBackupService(
        config=make_config(),
        migration=NaiveMigration(),
        gc_mode="incremental",
        gc_budget=budget,
    )


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=4, max_value=40),
        ),
        st.tuples(st.just("gc"), st.just(0), st.just(0)),
    ),
    min_size=2,
    max_size=10,
)

budgets = st.builds(
    GCBudget,
    mark_recipes=st.integers(min_value=1, max_value=6),
    sweep_containers=st.integers(min_value=1, max_value=4),
    mfdedup_volumes=st.just(1),
)


@given(operations, budgets, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_interleaved_steps_match_stop_the_world(ops, budget, restores_between):
    """Cycles stepped to completion before the next mutation — with
    read-only restores interleaved *between* the increments — end in the
    stop-the-world state: identical stats, live ids, and layout."""
    stw = DedupBackupService(config=make_config(), migration=NaiveMigration())
    inc = build_incremental(budget)

    for op, start, length in ops:
        if op == "ingest":
            stream = refs("prop", range(start, start + length))
            stw.ingest(stream)
            inc.ingest(stream)
        else:
            stw.delete_oldest(1)
            stw.run_gc()
            inc.delete_oldest(1)
            inc.gc.begin()
            while inc.gc.active:
                report = inc.gc.step()
                if report is not None:
                    break
                # Restores mid-cycle are read-only: they must neither stall
                # the cycle nor perturb its outcome.
                for backup_id in inc.live_backup_ids()[:restores_between]:
                    inc.restore(backup_id)

    assert inc.stats() == stw.stats()
    assert inc.live_backup_ids() == stw.live_backup_ids()
    assert sorted(inc.store.ids()) == sorted(stw.store.ids())
    assert sorted(key for key, _ in inc.index.items()) == sorted(
        key for key, _ in stw.index.items()
    )
    assert verify_service(inc).errors == []
    assert len(inc.store.journal) == 0


@given(operations, budgets, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_mid_cycle_ingest_stays_consistent(ops, budget, steps_before_ingest):
    """Ingests landing *inside* an open cycle exercise the live-reference
    barrier: new references to chunks the collector considered dead must
    survive.  Stop-the-world equality is deliberately not asserted — a
    mid-cycle ingest may legally dedup against not-yet-reclaimed chunks —
    but every live backup must stay restorable and the verifier clean."""
    service = build_incremental(budget)
    expected: dict[int, int] = {}

    for op, start, length in ops:
        if op == "ingest":
            stream = refs("prop", range(start, start + length))
            if service.gc.active:
                for _ in range(steps_before_ingest):
                    if service.gc.step() is not None:
                        break
            result = service.ingest(stream)
            expected[result.backup_id] = sum(ref.size for ref in stream)
        else:
            service.delete_oldest(1)
            service.gc.begin()
            service.gc.step()  # leave the cycle open across what follows

    while service.gc.active:
        service.gc.step()

    assert verify_service(service).errors == []
    assert len(service.store.journal) == 0
    for backup_id in service.live_backup_ids():
        if backup_id in expected:
            report = service.restore(backup_id)
            assert report.logical_bytes == expected[backup_id]


@given(
    operations,
    budgets,
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_crash_at_increment_then_recover_keeps_backups(ops, budget, occurrence):
    """An armed ``gc.increment`` crash anywhere in the sequence recovers
    in place, the journaled cycle resumes, and the run keeps going."""
    plan = FaultPlan.single("gc.increment", occurrence=occurrence)
    service = build_incremental(budget)
    service.disk.faults = plan
    expected: dict[int, int] = {}

    crashed = False
    for op, start, length in ops:
        try:
            if op == "ingest":
                stream = refs("prop", range(start, start + length))
                result = service.ingest(stream)
                expected[result.backup_id] = sum(ref.size for ref in stream)
            else:
                service.delete_oldest(1)
                service.run_gc()
        except SimulatedCrash:
            crashed = True
            recover_service(service)
            assert verify_service(service).errors == []
            service.run_gc()  # resume the journaled cycle

    while service.gc.active:
        service.gc.step()
    assert verify_service(service).errors == []
    assert len(service.store.journal) == 0
    for backup_id in service.live_backup_ids():
        if backup_id in expected:
            report = service.restore(backup_id)
            assert report.logical_bytes == expected[backup_id]
    if not crashed:
        assert plan.fired is None


class TestEngineSurface:
    def test_begin_is_idempotent_while_active(self):
        service = build_incremental(SMALL_BUDGET)
        service.ingest(refs("s", range(12)))
        service.ingest(refs("s", range(6, 18)))
        service.delete_oldest(1)
        gc = service.gc
        assert isinstance(gc, IncrementalGC)
        assert gc.should_run()
        gc.begin()
        record = live_journal(service).open_records("gc.cycle")[0]
        gc.begin()  # second begin is a no-op, not a second cycle
        assert live_journal(service).open_records("gc.cycle") == [record]
        while gc.active:
            gc.step()
        assert len(live_journal(service)) == 0

    def test_step_without_cycle_returns_none(self):
        service = build_incremental(SMALL_BUDGET)
        assert service.gc.step() is None
        assert not service.gc.active

    def test_pending_tracks_deletions(self):
        service = build_incremental(SMALL_BUDGET)
        service.ingest(refs("p", range(10)))
        service.ingest(refs("p", range(20, 30)))
        assert service.gc.pending() == 0
        assert not service.gc.should_run()
        service.delete_oldest(1)
        assert service.gc.pending() == 1
        assert service.gc.should_run()


# ----------------------------------------------------------------------
# The mark phase: one id-set kernel (repro.gc.mark.MarkScan) in slices.
# ----------------------------------------------------------------------


def rotated_gccdf(tiny_config, **options) -> DedupBackupService:
    """Six overlapping backups, the two oldest deleted: a cycle whose mark
    has two deleted and four live recipes to scan."""
    service = make_service(
        "gccdf", tiny_config, ServiceOptions(gc_mode="incremental", **options)
    )
    for generation in range(6):
        service.ingest(refs("mk", range(generation * 7, generation * 7 + 40)))
    service.delete_oldest(2)
    return service


class TestMarkCrashResume:
    """A mark interrupted anywhere resumes to the uninterrupted result."""

    ONE_RECIPE = GCBudget(mark_recipes=1)

    @staticmethod
    def captured_marks(monkeypatch) -> list:
        marks = []
        finish = MarkScan.finish

        def spy(self, *args, **kwargs):
            marks.append(finish(self, *args, **kwargs))
            return marks[-1]

        monkeypatch.setattr(MarkScan, "finish", spy)
        return marks

    @pytest.mark.parametrize(
        "point,occurrence,mark_pass,mark_pos",
        [
            ("gc.increment", 1, 0, 1),  # inside the deleted-recipe pass
            ("gc.mark", 1, 0, 2),  # between the passes
            ("gc.increment", 3, 1, 1),  # inside the live-recipe pass
        ],
    )
    def test_resumed_mark_equals_uncrashed(
        self, tiny_config, monkeypatch, point, occurrence, mark_pass, mark_pos
    ):
        marks = self.captured_marks(monkeypatch)
        rotated_gccdf(tiny_config, gc_budget=self.ONE_RECIPE).run_gc()
        (expected,) = marks
        marks.clear()

        plan = FaultPlan.single(point, occurrence=occurrence)
        service = rotated_gccdf(tiny_config, gc_budget=self.ONE_RECIPE, faults=plan)
        with pytest.raises(SimulatedCrash):
            service.run_gc()
        state = service.gc._state
        assert (state.phase, state.mark_pass, state.mark_pos) == ("mark", mark_pass, mark_pos)
        scan = state.mark
        assert scan.resolved
        survives = ("gs_members", "gs_of", "candidate_ids", "live_ids", "rrt_sets")
        before = {name: copy.deepcopy(getattr(scan, name)) for name in survives}

        recover_service(service)
        # Recovery clears exactly the probe memo: ids are re-probed, and
        # land where they already are.
        assert state.mark is scan and scan.resolved == set()
        assert {name: getattr(scan, name) for name in survives} == before

        service.run_gc()  # resumes the journaled cycle
        (resumed,) = marks
        keys = service.recipes.interner.keys()
        assert resumed.gs_list == expected.gs_list
        assert resumed.rrt == expected.rrt
        assert resumed.candidate_keys == expected.candidate_keys
        assert resumed.live_ids == expected.live_ids
        assert [k in resumed.vc_table for k in keys] == [
            k in expected.vc_table for k in keys
        ]
        assert verify_service(service).errors == []
        assert len(live_journal(service)) == 0


class TestMarkHotPath:
    def test_mark_phase_never_materialises_chunk_refs(self, tiny_config, monkeypatch):
        """A default incremental gccdf cycle marks off the recipes' cached
        id sets: no ``ChunkRef`` view is built during the mark phase."""
        marking = []
        increments = []
        mark_increment = IncrementalGC._mark_increment

        def flagged(self, state):
            marking.append(True)
            try:
                mark_increment(self, state)
            finally:
                marking.pop()
            increments.append(state.mark_pos)

        def forbidden(name):
            original = getattr(RecipeEntriesView, name)

            def guard(self, *args, **kwargs):
                assert not marking, f"RecipeEntriesView.{name} during the mark phase"
                return original(self, *args, **kwargs)

            return guard

        monkeypatch.setattr(IncrementalGC, "_mark_increment", flagged)
        for name in ("__iter__", "__getitem__"):
            monkeypatch.setattr(RecipeEntriesView, name, forbidden(name))

        service = rotated_gccdf(tiny_config)
        report = service.run_gc()
        assert increments and report.backups_purged == 2
        assert report.reclaimed_containers > 0
        assert verify_service(service).errors == []
