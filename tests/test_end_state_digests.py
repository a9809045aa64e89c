"""Every approach × GC mode × dedup mode ends in its frozen end state.

``tests/data/end_state_digests.json`` holds one sha256 per scripted cell
(``tests/end_state.py``), generated from the tuple-recipe ("legacy") hot
path on the last commit that had one.  The columnar path reproduced every
digest there before the legacy path was deleted; this test keeps it that
way.  The digests must not depend on set iteration order — CI reruns this
file under ``PYTHONHASHSEED=0`` and ``=1``.
"""

from __future__ import annotations

import json

import pytest

from tests.end_state import (
    CELLS,
    DIGESTS_PATH,
    REGENERATE,
    cell_name,
    digest,
    run_cell,
)

PINNED = json.loads(DIGESTS_PATH.read_text())["cells"]


def test_every_cell_is_pinned():
    assert set(PINNED) == {cell_name(*cell) for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_name(*cell))
def test_end_state_matches_frozen_digest(cell):
    approach, _, dedup_mode, _ = cell
    pinned = PINNED[cell_name(*cell)]
    state, witnesses = run_cell(*cell)

    # Non-vacuity: the cell exercised what its mode implies.
    assert witnesses["reclaimed_containers"] > 0
    if approach not in ("nondedup", "mfdedup"):  # those never copy forward
        assert witnesses["migrated_chunks"] > 0
    if dedup_mode == "hybrid" and approach in ("naive", "gccdf"):
        # Policy-bearing, nondedup and mfdedup services never defer.
        assert witnesses["deferred"] > 0 and witnesses["coalesced"] > 0

    assert witnesses == {name: pinned[name] for name in witnesses}
    assert digest(state) == pinned["sha256"], (
        f"end state of {cell_name(*cell)} changed; if deliberate, re-pin with "
        f"`{REGENERATE}` and explain the diff"
    )


@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
@pytest.mark.parametrize("dedup_mode", ["inline", "hybrid"])
def test_bloom_ablation_cells_differ_from_exact(gc_mode, dedup_mode):
    # The ablation's false positives actually misplace chunks in this
    # scenario: its cells pin a different layout than the exact kernel's.
    exact = PINNED[cell_name("gccdf", gc_mode, dedup_mode, False)]
    bloom = PINNED[cell_name("gccdf", gc_mode, dedup_mode, True)]
    assert exact["sha256"] != bloom["sha256"]
