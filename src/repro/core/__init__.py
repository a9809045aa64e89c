"""GCCDF — garbage-collection-collaborative defragmentation (paper §4–§5).

The pipeline plugs into mark–sweep GC between the mark and sweep stages:

* :class:`Preprocessor` (§5.2) — segments the GC work list, loads valid
  chunks into the GC cache, and derives each segment's *Involved Backups*
  from the RRT.
* :class:`Analyzer` (§5.3) — locality-promoting chunk clustering: a binary
  tree splits chunks by per-backup reference (most recent backup first,
  exact interned-id membership checks — Bloom filters as the ablation —
  split-denial threshold), leaving leaves = clusters of identical ownership.
* :class:`Planner` (§5.4) — container-adaptable cluster packing: orders
  clusters (tree order realises the packing implicitly; greedy and random
  orders exist for the §6.5 ablation) and emits the migration order.
* :class:`GCCDFMigration` (§5.1) — the :class:`~repro.gc.migration.
  MigrationStrategy` that executes all of the above during the sweep.
"""

from repro.core.clusters import Cluster
from repro.core.preprocessor import Preprocessor, Segment
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.core.packing import (
    ownership_similarity,
    matching_suffix_length,
    greedy_pack,
    random_pack,
    order_clusters,
)
from repro.core.planner import Planner
from repro.core.gccdf import GCCDFMigration

__all__ = [
    "Cluster",
    "Preprocessor",
    "Segment",
    "Analyzer",
    "ReferenceChecker",
    "ownership_similarity",
    "matching_suffix_length",
    "greedy_pack",
    "random_pack",
    "order_clusters",
    "Planner",
    "GCCDFMigration",
]
