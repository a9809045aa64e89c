"""Shared end-state oracle: snapshot, canonical digest, scripted cells.

``snapshot`` is everything a service's ingest/GC engines can influence;
``digest`` is its canonical sha256.  ``tests/data/end_state_digests.json``
pins one digest per ``CELLS`` entry (``tests/test_end_state_digests.py``).
The digests were first frozen from the tuple-recipe ("legacy") hot path on
the last commit that had one, so the A/B oracle outlived the path it was
taken from.  The committed file was re-written by this module on a
checkout of the commit it names, whose snapshot differed from this one
only in also pinning the fingerprint index's Bloom-guard counters; this
tree, which has no guard, reproduces every digest and witness.

Regenerate (a deliberate re-pin from the current tree)::

    PYTHONPATH=src python -m tests.end_state --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.options import ServiceOptions
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.gc.incremental import GCBudget

from tests.conftest import refs

DIGESTS_PATH = Path(__file__).parent / "data" / "end_state_digests.json"
REGENERATE = "PYTHONPATH=src python -m tests.end_state --write"


def make_config() -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
    )
    config.validate()
    return config


def snapshot(service) -> dict:
    """Observable end state of a service."""
    state: dict = {
        "stats": dataclasses.asdict(service.stats()),
        "live_backups": service.live_backup_ids(),
    }
    store = getattr(service, "store", None)
    if store is not None:
        # Container ids are allocated in commit order, so the full layout
        # (id -> ordered (fp, size) entries) pins both the reclaim order
        # and the copy-forward write order, not just the surviving set.
        keys = service.recipes.interner.keys()
        state["layout"] = {
            container.container_id: [
                (keys[chunk_id], size)
                for chunk_id, size in zip(container.chunk_ids, container.chunk_sizes)
            ]
            for container in store.containers()
        }
        state["stored_bytes"] = store.stored_bytes
        state["containers_deleted"] = store.containers_deleted
        journal = store.journal
        state["journal"] = (journal.begun, journal.closed, len(journal))
    index = getattr(service, "index", None)
    if index is not None:  # mfdedup has no flat fingerprint index
        state["index"] = {
            fp: (placement.container_id, placement.size)
            for fp, placement in index.items()
        }
        state["probes"] = (index.lookups, index.hits)
    hybrid = getattr(service, "hybrid", None)
    if hybrid is not None:
        state["hybrid"] = hybrid.counters()
    state["gc_reports"] = [report.to_dict() for report in service.gc_history]
    state["sim_time"] = service.disk.sim_time
    return state


def _canonical(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(_canonical(k)): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(state: dict) -> str:
    """sha256 of the snapshot's canonical JSON (sorted keys, bytes → hex)."""
    text = json.dumps(_canonical(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The scripted cells
# ---------------------------------------------------------------------------

#: Small budgets, so a drained incremental cycle takes many increments.
BUDGET = GCBudget(mark_recipes=3, sweep_containers=2, rededup_keys=3)

#: (approach, gc_mode, dedup_mode, bloom): every approach in every mode,
#: plus GCCDF's Bloom reference-check ablation at a false-positive rate
#: high enough to misplace chunks.
CELLS = [
    (approach, gc_mode, dedup_mode, False)
    for approach in APPROACHES
    for gc_mode in ("stw", "incremental")
    for dedup_mode in ("inline", "hybrid")
] + [
    ("gccdf", gc_mode, dedup_mode, True)
    for gc_mode in ("stw", "incremental")
    for dedup_mode in ("inline", "hybrid")
]


def cell_name(approach: str, gc_mode: str, dedup_mode: str, bloom: bool) -> str:
    return f"{approach}/{gc_mode}/{dedup_mode}" + ("/bloom" if bloom else "")


def run_cell(approach, gc_mode, dedup_mode, bloom):
    """Drive one cell's scripted rotation; returns ``(snapshot, witnesses)``.

    Every generation is a sliding window over one chunk-id space with a
    generation-dependent stride of ids knocked out (so backups share
    uneven subsets and containers age into mixed validity), ingested under
    two source names: the mirrored copy misses the hybrid neighbor window
    entirely and becomes the deferred-duplicate population.  From the
    third generation on, each round deletes the two oldest backups and
    runs a full GC cycle.
    """
    config = make_config()
    if bloom:
        config = config.with_gccdf(exact_reference_check=False, bloom_fp_rate=0.2)
    service = make_service(
        approach,
        config=config,
        options=ServiceOptions(
            gc_mode=gc_mode, gc_budget=BUDGET, dedup_mode=dedup_mode
        ),
    )
    for generation in range(8):
        stride = 2 + generation % 3
        ids = [i for i in range(generation * 5, generation * 5 + 60) if i % stride]
        service.ingest(refs("end-state", ids), source="a")
        service.ingest(refs("end-state", ids), source="b")
        if generation >= 2:
            service.delete_oldest(2)
            service.run_gc()
    reports = service.gc_history
    hybrid = getattr(service, "hybrid", None)
    witnesses = {
        "reclaimed_containers": sum(r.reclaimed_containers for r in reports),
        "migrated_chunks": sum(r.migrated_chunks for r in reports),
        "deferred": hybrid.deferred if hybrid is not None else 0,
        "coalesced": hybrid.coalesced if hybrid is not None else 0,
    }
    return snapshot(service), witnesses


def write_digests() -> None:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    cells = {}
    for cell in CELLS:
        state, witnesses = run_cell(*cell)
        cells[cell_name(*cell)] = {"sha256": digest(state), **witnesses}
    payload = {
        "generated_at_commit": sha,
        "generated_from": "the current tree (re-pin)",
        "regenerate": REGENERATE,
        "cells": cells,
    }
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    write_digests()
