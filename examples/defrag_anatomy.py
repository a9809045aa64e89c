"""Anatomy of a GCCDF pass: clustering and packing, step by step.

Builds the paper's running example by hand — a handful of backups sharing
chunks in controlled patterns — and walks one GC round with the internals
exposed: the mark stage's GS list and RRT, the Analyzer's ownership
clusters, the Planner's packed migration order, and the before/after
container layout with per-backup read amplification.

    python examples/defrag_anatomy.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.backup.system import DedupBackupService
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.core.gccdf import GCCDFMigration
from repro.core.planner import Planner
from repro.core.preprocessor import Preprocessor
from repro.gc.mark import MarkStage
from repro.gc.migration import SweepContext
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.model import ChunkRef


def refs(ids):
    return [ChunkRef(fp=synthetic_fingerprint("demo", i), size=512) for i in ids]


def demo_ids(service, chunk_ids):
    """The demo's logical chunk numbers for interned storage-key ids."""
    number = {synthetic_fingerprint("demo", i): i for i in range(200)}
    keys = service.recipes.interner.keys()
    return [number.get(keys[chunk_id][:20], "?") for chunk_id in chunk_ids]


def show_layout(service, label):
    print(f"-- container layout: {label} --")
    for container in service.store.containers():
        ids = demo_ids(service, container.chunk_ids)
        print(f"  container {container.container_id}: chunks {ids}")


def read_amp(service, backup_id):
    recipe = service.recipes.get(backup_id)
    needed = defaultdict(int)
    for entry in recipe.entries:
        needed[service.index.get(entry.fp).container_id] += entry.size
    read = sum(service.store.peek(c).used_bytes for c in needed)
    return read / recipe.logical_size


def main() -> None:
    config = SystemConfig(
        container_size=4 * 512,  # four chunks per container: mixing is visible
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=4, turnover=1),
    ).with_gccdf(split_denial_threshold=0)  # full splits: tiny demo clusters
    service = DedupBackupService(config=config, migration=GCCDFMigration(), name="gccdf")

    # The base backup writes chunks 0..15.  Two later backups keep
    # interleaved subsets (the Fig. 5 dilemma): α keeps 0,1 of every four,
    # β keeps 0,2 — so chunk i%4==0 is shared, 1 is α-only, 2 is β-only,
    # and 3 dies with the base backup.
    base = service.ingest(refs(range(16)), source="base")
    alpha = service.ingest(refs([i for i in range(16) if i % 4 in (0, 1)]), source="alpha")
    beta = service.ingest(refs([i for i in range(16) if i % 4 in (0, 2)]), source="beta")
    print(f"backups: base={base.backup_id}, alpha={alpha.backup_id}, beta={beta.backup_id}\n")

    show_layout(service, "after ingest (dedup natural order)")
    print(f"  read amp: alpha {read_amp(service, alpha.backup_id):.2f}, "
          f"beta {read_amp(service, beta.backup_id):.2f}\n")

    # Delete the base backup and walk the GC by hand.
    service.delete_backup(base.backup_id)
    mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
    print(f"mark stage: GS list = {list(mark.gs_list)}")
    print(f"            RRT     = { {c: list(b) for c, b in mark.rrt.items()} }\n")

    ctx = SweepContext(
        config=service.config,
        store=service.store,
        index=service.index,
        recipes=service.recipes,
        disk=service.disk,
        mark=mark,
    )
    checker = ReferenceChecker(service.recipes, service.config.gccdf)
    analyzer = Analyzer(checker, service.config.gccdf)
    for segment in Preprocessor(ctx).segments():
        clusters = analyzer.cluster(segment.valid_ids, segment.involved_backups)
        print(f"segment {segment.index}: involved backups {list(segment.involved_backups)}")
        for cluster in clusters:
            chunk_ids = demo_ids(service, cluster.ids)
            print(f"  cluster owners={list(cluster.ownership)}: chunks {chunk_ids}")
        order = Planner(service.config.gccdf).plan(clusters, segment.involved_backups)
        print(f"  packed migration order: {order.num_chunks} chunks in "
              f"{order.num_clusters} clusters\n")

    # Now run the real GC end-to-end (a fresh service replays the same
    # history so the hand-walk above did not consume the sweep).
    service2 = DedupBackupService(config=config, migration=GCCDFMigration(), name="gccdf")
    service2.ingest(refs(range(16)), source="base")
    a2 = service2.ingest(refs([i for i in range(16) if i % 4 in (0, 1)]), source="alpha")
    b2 = service2.ingest(refs([i for i in range(16) if i % 4 in (0, 2)]), source="beta")
    service2.delete_backup(0)
    report = service2.run_gc()
    print(report.summary(), "\n")
    show_layout(service2, "after GCCDF GC (clustered by ownership)")
    print(f"  read amp: alpha {read_amp(service2, a2.backup_id):.2f}, "
          f"beta {read_amp(service2, b2.backup_id):.2f}")
    print("\nShared chunks now sit apart from α-only and β-only chunks, so each")
    print("restore touches only containers it mostly needs — the §4.1 effect.")


if __name__ == "__main__":
    main()
