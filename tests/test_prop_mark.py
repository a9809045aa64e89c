"""Property test: the mark kernel driven in slices ≡ ``MarkStage.run()``.

``IncrementalGC`` feeds :class:`~repro.gc.mark.MarkScan` a few recipes per
step; ``MarkStage`` feeds it (or, for tuple recipes, the legacy per-entry
loop) the whole population at once.  Over random populations — shared and
repeated chunks, keys the index never held or no longer holds, GS seeds
from the hybrid rededup pass, barrier keys arriving mid-mark, either
recipe representation, either VC table — every slicing must hand the sweep
the same :class:`~repro.gc.mark.MarkResult` for the same index probes and
the same simulated recipe reads.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.dedup.hybrid import HybridState
from repro.dedup.keys import storage_key
from repro.faults import IntentJournal
from repro.gc.incremental import GCBudget, IncrementalGC
from repro.gc.mark import MarkStage
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import Recipe, RecipeStore
from repro.model import ChunkRef
from repro.simio.disk import DiskModel

CONTAINERS = 6
BUDGETS = (1, 3, 8, 10**9)


def key(i: int) -> bytes:
    return storage_key(synthetic_fingerprint("pm", i))


class StubStore:
    """The mark reads no container: it needs the journal, and the hybrid
    GS seeds need ``container_id in store``."""

    def __init__(self) -> None:
        self.journal = IntentJournal()

    def __contains__(self, container_id: int) -> bool:
        return True


# m chunks, each placed in a container, never indexed (None), or indexed
# and since dropped ("gone": the negative guard has seen the key).
worlds = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: st.fixed_dictionaries(
        {
            "placements": st.lists(
                st.one_of(
                    st.none(),
                    st.just("gone"),
                    st.integers(min_value=0, max_value=CONTAINERS - 1),
                ),
                min_size=m,
                max_size=m,
            ),
            # (chunk occurrences in stream order, deleted?, columnar?)
            "recipes": st.lists(
                st.tuples(
                    st.lists(st.integers(min_value=0, max_value=m - 1), max_size=30),
                    st.booleans(),
                    st.booleans(),
                ),
                min_size=1,
                max_size=9,
            ),
            "all_columnar": st.booleans(),
            "extra_gs": st.sets(st.integers(min_value=0, max_value=CONTAINERS + 1)),
            "barrier": st.sets(st.integers(min_value=0, max_value=m + 3)),
            "barrier_after": st.integers(min_value=0, max_value=6),
            "vc_table": st.sampled_from(["exact", "bloom"]),
        }
    )
)


def build(world):
    config = dataclasses.replace(SystemConfig.scaled(), vc_table=world["vc_table"])
    index = FingerprintIndex(negative_guard=True)
    for i, placement in enumerate(world["placements"]):
        if placement is not None:
            index.insert(key(i), 0 if placement == "gone" else placement, 64)
            if placement == "gone":
                index.discard(key(i))
    recipes = RecipeStore()
    for occurrences, deleted, columnar in world["recipes"]:
        backup_id = recipes.new_backup_id()
        if columnar or world["all_columnar"]:
            recipe = ColumnarRecipe(
                backup_id,
                recipes.interner,
                [recipes.interner.intern(key(i)) for i in occurrences],
                [64] * len(occurrences),
            )
        else:
            recipe = Recipe(backup_id, tuple(ChunkRef(key(i), 64) for i in occurrences))
        recipes.add(recipe)
        if deleted:
            recipes.mark_deleted(backup_id)
    return config, index, recipes, DiskModel(config.disk)


def probe_counters(index: FingerprintIndex) -> tuple:
    return (index.lookups, index.hits, index.guard_probes, index.guard_skips)


@given(worlds)
@settings(max_examples=120, deadline=None)
def test_sliced_mark_equals_mark_stage(world):
    barrier = {key(i) for i in world["barrier"]}
    universe = [key(i) for i in range(len(world["placements"]) + 6)]

    config, index, recipes, disk = build(world)
    expected = MarkStage(config, index, recipes, disk, extra_gs=world["extra_gs"]).run()
    expected.vc_table.update(barrier)
    expected_probes = probe_counters(index)
    expected_reads = disk.stats.to_dict()
    assert expected.live_ids is None or recipes.all_columnar()

    for mark_recipes in BUDGETS:
        config, index, recipes, disk = build(world)
        hybrid = HybridState()
        hybrid.pending_sweep = set(world["extra_gs"])
        engine = IncrementalGC(
            config,
            StubStore(),
            index,
            recipes,
            disk,
            budget=GCBudget(mark_recipes=mark_recipes),
            hybrid=hybrid,
        )
        engine.begin()
        state = engine._state
        steps = 0
        while state.mark_result is None:
            if steps == world["barrier_after"]:
                engine.note_live_references(barrier)  # mid-mark: barrier_keys
            engine.step()
            steps += 1
        if steps <= world["barrier_after"]:
            engine.note_live_references(barrier)  # after the mark: straight in
        mark = state.mark_result

        assert mark.gs_list == expected.gs_list
        assert mark.rrt == expected.rrt
        assert mark.candidate_keys == expected.candidate_keys
        assert mark.live_ids == expected.live_ids
        assert [k in mark.vc_table for k in universe] == [
            k in expected.vc_table for k in universe
        ]
        assert probe_counters(index) == expected_probes
        assert disk.stats.to_dict() == pytest.approx(expected_reads, rel=1e-12)
        assert state.mark_seconds == pytest.approx(expected.mark_seconds, rel=1e-12)
        assert state.mark is None and not state.barrier_keys
