"""Property-based end-to-end invariants of the backup system.

The heavyweight guarantee: under *any* interleaving of ingest / delete / GC
(with either migration strategy, any packing, exact or Bloom VC table),
every live backup remains restorable with its exact chunk sequence, and the
metadata stays mutually consistent.
"""

from hypothesis import given, settings, strategies as st

from repro.backup.system import DedupBackupService
from repro.backup.verify import verify_service
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.core.gccdf import GCCDFMigration
from repro.dedup.keys import logical_fp
from repro.errors import SimulatedCrash
from repro.faults import FaultPlan, points_for, recover_service
from repro.gc.incremental import GCBudget
from repro.gc.migration import NaiveMigration

from tests.conftest import refs


def make_config(vc_table: str) -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
        vc_table=vc_table,
    )
    config.validate()
    return config


# One operation = ingest a window of the chunk-id space, or delete+GC.
operation = st.one_of(
    st.tuples(
        st.just("ingest"),
        st.integers(min_value=0, max_value=60),  # window start
        st.integers(min_value=4, max_value=40),  # window length
    ),
    st.tuples(st.just("gc"), st.just(0), st.just(0)),
)
operations = st.lists(operation, min_size=1, max_size=12)

strategies_to_test = st.sampled_from(["naive", "gccdf", "gccdf-random", "gccdf-tree"])
vc_tables = st.sampled_from(["exact", "bloom"])


def build_service(strategy: str, vc_table: str, **modes) -> DedupBackupService:
    """``modes``: the service's ``gc_mode``/``gc_budget``/``dedup_mode``."""
    config = make_config(vc_table)
    if strategy == "naive":
        return DedupBackupService(config=config, migration=NaiveMigration(), **modes)
    packing = {"gccdf": "greedy", "gccdf-random": "random", "gccdf-tree": "tree"}[strategy]
    return DedupBackupService(
        config=config.with_gccdf(packing=packing, segment_size=2),
        migration=GCCDFMigration(),
        **modes,
    )


@given(operations, strategies_to_test, vc_tables)
@settings(max_examples=60, deadline=None)
def test_live_backups_always_restorable(ops, strategy, vc_table):
    service = build_service(strategy, vc_table)
    expected: dict[int, list[bytes]] = {}

    for op, start, length in ops:
        if op == "ingest":
            stream = refs("prop", range(start, start + length))
            result = service.ingest(stream)
            expected[result.backup_id] = [r.fp for r in stream]
        else:
            service.delete_oldest(1)
            service.run_gc()

    # Every live backup restores to its exact logical chunk sequence.
    for backup_id in service.live_backup_ids():
        recipe = service.recipes.get(backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == expected[backup_id]
        report = service.restore(backup_id)
        assert report.logical_bytes == recipe.logical_size
        # And every recipe key resolves to a live container that really
        # holds that key.
        intern = service.recipes.interner.id_of
        for entry in recipe.entries:
            placement = service.index.get(entry.fp)
            container = service.store.peek(placement.container_id)
            assert intern(entry.fp) in container.distinct_ids()


@given(operations, strategies_to_test)
@settings(max_examples=40, deadline=None)
def test_store_and_index_mutually_consistent(ops, strategy):
    service = build_service(strategy, "exact")
    for op, start, length in ops:
        if op == "ingest":
            service.ingest(refs("prop", range(start, start + length)))
        else:
            service.delete_oldest(1)
            service.run_gc()

    # Index placements point at live containers holding the key.
    interner = service.recipes.interner
    for key, placement in service.index.items():
        assert placement.container_id in service.store
        container = service.store.peek(placement.container_id)
        assert interner.id_of(key) in container.distinct_ids()

    # With an exact VC table, GC leaves no unreferenced keys behind after
    # the most recent collection *if* one ran with no later ingests; in
    # general the index may lead the store only via the open container, so
    # we check the weaker direction: store keys are a subset of the index.
    store_keys = set()
    for container in service.store.containers():
        store_keys.update(map(interner.key_of, container.distinct_ids()))
    index_keys = {key for key, _ in service.index.items()}
    assert store_keys == index_keys


#: Small budgets, so an incremental cycle crosses many step boundaries.
CRASH_BUDGET = GCBudget(mark_recipes=2, sweep_containers=1, rededup_keys=2)

#: Longer histories than ``operations``: room for several crashes per run.
crash_operations = st.lists(operation, min_size=6, max_size=16)


@given(
    crash_operations,
    strategies_to_test,
    st.sampled_from(["stw", "incremental"]),
    st.sampled_from(["inline", "hybrid"]),
    st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_injected_crash_recovery_keeps_system_consistent(
    ops, strategy, gc_mode, dedup_mode, seeds
):
    """Up to three crashes per run: each seed arms one ``FaultPlan`` at a
    point the configuration can reach.  After every crash the service is
    recovered in place, the next seeded plan is armed, and the remaining
    operations (then a final drain GC) keep executing: every surviving
    backup must stay restorable and the verifier must stay clean
    throughout."""
    approach = "gccdf" if strategy.startswith("gccdf") else "naive"
    points = points_for(approach, gc_mode, dedup_mode)
    plans = [FaultPlan.seeded(seed, points, max_occurrence=3) for seed in seeds]
    service = build_service(
        strategy, "exact", gc_mode=gc_mode, gc_budget=CRASH_BUDGET, dedup_mode=dedup_mode
    )
    service.disk.faults = plans[0]
    expected: dict[int, list[bytes]] = {}
    crashes = 0

    def survives(action) -> bool:
        nonlocal crashes
        try:
            action()
        except SimulatedCrash:
            recover_service(service)
            assert verify_service(service).errors == []
            crashes += 1
            if crashes < len(plans):
                service.disk.faults = plans[crashes]
            return False
        return True

    for position, (op, start, length) in enumerate(ops):
        if op == "ingest":
            stream = refs("prop", range(start, start + length))

            def ingest():
                # Two sources: a copy under the other one misses the hybrid
                # neighbor window and is deferred for GC to coalesce.
                result = service.ingest(stream, source=f"s{position % 2}")
                expected[result.backup_id] = [r.fp for r in stream]

            survives(ingest)
        else:
            def collect():
                service.delete_oldest(1)
                service.run_gc()

            survives(collect)
    # Drain: finish a cycle a crash left in flight (incremental recovery
    # resumes, not restarts, it); each retry is one more armed plan spent.
    while not survives(service.run_gc):
        pass

    assert verify_service(service).errors == []
    assert len(service.store.journal) == 0
    for backup_id in service.live_backup_ids():
        recipe = service.recipes.get(backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == expected[backup_id]
        report = service.restore(backup_id)
        assert report.logical_bytes == recipe.logical_size
    # Every crash was one plan firing; the plans not yet armed never fired.
    assert [plan.fired is not None for plan in plans] == [True] * crashes + [
        False
    ] * (len(plans) - crashes)


@given(operations)
@settings(max_examples=30, deadline=None)
def test_gc_reclaims_identically_across_strategies(ops):
    """Naive and GCCDF sweeps must free exactly the same bytes."""
    stored = {}
    for strategy in ("naive", "gccdf"):
        service = build_service(strategy, "exact")
        for op, start, length in ops:
            if op == "ingest":
                service.ingest(refs("prop", range(start, start + length)))
            else:
                service.delete_oldest(1)
                service.run_gc()
        stored[strategy] = service.store.stored_bytes
        assert service.dedup_ratio >= 1.0
    assert stored["naive"] == stored["gccdf"]
