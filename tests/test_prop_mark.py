"""Property test: the mark kernel ≡ a per-entry model, under any slicing.

``MarkStage`` feeds :class:`~repro.gc.mark.MarkScan` each pass as one
slice; ``IncrementalGC`` feeds it a few recipes per step.  The reference
for both is :func:`model_mark`: the mark as the paper states it (§2.4,
§5.5) — walk every deleted recipe entry by entry, then every live one —
written over the generated world itself (occurrence lists, deleted flags,
placements), with no interner, no id sets and no product mark code.  Over
random populations — shared and repeated chunks, keys the index never held
or no longer holds, GS seeds from the hybrid rededup pass, barrier keys
arriving mid-mark, either VC table — ``MarkStage.run()`` must agree with
the model, and every slicing must hand the sweep the same
:class:`~repro.gc.mark.MarkResult` for the same index probes and the same
simulated recipe reads.
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
from repro.gc.mark import RECIPE_ENTRY_BYTES, MarkStage
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef
from repro.simio.disk import DiskModel

from tests.conftest import columnar_recipe

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
# and since dropped ("gone").
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
            # (chunk occurrences in stream order, deleted?)
            "recipes": st.lists(
                st.tuples(
                    st.lists(st.integers(min_value=0, max_value=m - 1), max_size=30),
                    st.booleans(),
                ),
                min_size=1,
                max_size=9,
            ),
            "extra_gs": st.sets(st.integers(min_value=0, max_value=CONTAINERS + 1)),
            "barrier": st.sets(st.integers(min_value=0, max_value=m + 3)),
            "barrier_after": st.integers(min_value=0, max_value=6),
            "vc_table": st.sampled_from(["exact", "bloom"]),
        }
    )
)


def build(world):
    config = dataclasses.replace(SystemConfig.scaled(), vc_table=world["vc_table"])
    index = FingerprintIndex()
    for i, placement in enumerate(world["placements"]):
        if placement is not None:
            index.insert(key(i), 0 if placement == "gone" else placement, 64)
            if placement == "gone":
                index.discard(key(i))
    recipes = RecipeStore()
    for occurrences, deleted in world["recipes"]:
        backup_id = recipes.new_backup_id()
        recipes.add(
            columnar_recipe(
                recipes.interner,
                backup_id,
                (ChunkRef(key(i), 64) for i in occurrences),
            )
        )
        if deleted:
            recipes.mark_deleted(backup_id)
    return config, index, recipes, DiskModel(config.disk)


def probe_counters(index: FingerprintIndex) -> tuple:
    return (index.lookups, index.hits)


def model_mark(world) -> dict:
    """The mark, entry by entry, over the world as generated.

    Pass 1 walks the deleted recipes: every key they reference is a
    candidate for invalidation, and the container holding it joins the GS
    list.  Pass 2 walks the live recipes: every key is live (the VC
    table), and each GS container learns which live backups reference it
    (the RRT).  A key is probed in the index once, however often and in
    whichever pass it recurs; a recipe is read once, whole.
    """
    placements = world["placements"]
    probed: set[int] = set()
    candidates: set[int] = set()
    gs = set(world["extra_gs"])
    for occurrences, deleted in world["recipes"]:
        if deleted:
            for chunk in occurrences:
                candidates.add(chunk)
                probed.add(chunk)
                if isinstance(placements[chunk], int):
                    gs.add(placements[chunk])
    live: set[int] = set()
    rrt: dict[int, set[int]] = {container_id: set() for container_id in gs}
    for backup_id, (occurrences, deleted) in enumerate(world["recipes"]):
        if not deleted:
            for chunk in occurrences:
                live.add(chunk)
                probed.add(chunk)
                if placements[chunk] in rrt:  # never None / "gone"
                    rrt[placements[chunk]].add(backup_id)
    return {
        "gs_list": tuple(sorted(gs)),
        "rrt": {cid: tuple(sorted(backups)) for cid, backups in rrt.items()},
        "candidate_keys": len(candidates),
        "live_keys": {key(chunk) for chunk in live},
        "lookups": len(probed),
        "hits": sum(isinstance(placements[chunk], int) for chunk in probed),
        "read_ops": len(world["recipes"]),
        "read_bytes": RECIPE_ENTRY_BYTES
        * sum(len(occurrences) for occurrences, _ in world["recipes"]),
    }


@given(worlds)
@settings(max_examples=120, deadline=None)
def test_sliced_mark_equals_mark_stage(world):
    barrier = {key(i) for i in world["barrier"]}
    universe = [key(i) for i in range(len(world["placements"]) + 6)]

    config, index, recipes, disk = build(world)
    expected = MarkStage(config, index, recipes, disk, extra_gs=world["extra_gs"]).run()

    model = model_mark(world)
    assert expected.gs_list == model["gs_list"]
    assert expected.rrt == model["rrt"]
    assert expected.candidate_keys == model["candidate_keys"]
    assert {recipes.interner.key_of(i) for i in expected.live_ids} == model["live_keys"]
    if world["vc_table"] == "exact":
        assert {k for k in universe if k in expected.vc_table} == model["live_keys"]
    else:  # Bloom: no false negatives
        assert all(k in expected.vc_table for k in model["live_keys"])
    assert (index.lookups, index.hits) == (model["lookups"], model["hits"])
    assert (disk.stats.read_ops, disk.stats.read_bytes) == (
        model["read_ops"],
        model["read_bytes"],
    )

    expected.vc_table.update(barrier)
    expected_probes = probe_counters(index)
    expected_reads = disk.stats.to_dict()

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
