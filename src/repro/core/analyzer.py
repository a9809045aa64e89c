"""The GCCDF Analyzer (paper §5.3): locality-promoting chunk clustering.

The Analyzer classifies a segment's valid chunks by *ownership* using a
binary tree: every round checks one backup and splits each leaf into the
chunks that backup references and those it does not.  After all involved
backups are checked, each leaf holds chunks with identical ownership — a
:class:`~repro.core.clusters.Cluster`.

All four of the paper's optimizations are implemented:

① **Per-recipe membership structures instead of recipe scans** — exact
   interned-id sets by default, the paper's Bloom filters as the opt-in
   ablation; see :class:`ReferenceChecker`.
② **Reverse (most-recent-first) backup order** — the first split is on the
   newest involved backup, so adjacent leaves agree on the most recent
   backups (the Planner's packing property, §5.4).
③ **Split denial** — leaves at or below the configured chunk-count
   threshold stop splitting, bounding cluster fragmentation.
④ **Doubly-linked leaves holding chunk references** — leaves form a linked
   list for the Planner's left-to-right traversal and store interned chunk
   ids, not data.

Tree orientation: *referenced* chunks go to the **left** child.  The
leftmost leaf is therefore the cluster owned by every recent backup (the
"largest ownership" the §4.2 packing strategy starts from), and left-to-right
traversal yields the similarity-sorted order of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import Callable

from repro.config import GCCDFConfig
from repro.core.clusters import Cluster
from repro.hashing.bloom import BloomFilter
from repro.index.recipe import RecipeStore


class ReferenceChecker:
    """Answers "does backup *b* reference this chunk?" (optimization ①).

    :meth:`exact_ids` is a recipe's cached ``unique_ids()`` — the
    Analyzer's id kernel; nothing is built.  :meth:`membership` is the
    per-key predicate behind the Bloom ablation: a Bloom filter when
    ``exact_reference_check`` is off (an exact key set otherwise), built
    lazily and kept for the whole GC run.  A Bloom false positive can misplace a
    chunk into a slightly-too-large ownership cluster — harmless for
    correctness (clustering only affects layout), bounded by
    ``bloom_fp_rate``.  Whichever form answers, a recipe's first
    consultation charges ``build_ops`` one operation per entry: the paper's
    filter-construction cost, which simulated analyze time keeps.
    """

    def __init__(self, recipes: RecipeStore, config: GCCDFConfig):
        self.recipes = recipes
        self.config = config
        self._filters: dict[int, Callable[[bytes], bool]] = {}
        self._charged: set[int] = set()
        #: Predicates actually built (none on the id kernel's path).
        self.filters_built = 0
        #: Total filter-construction operations (one per recipe entry).
        self.build_ops = 0

    def _recipe(self, backup_id: int):
        """The backup's recipe; its first consultation is charged."""
        recipe = self.recipes.get(backup_id)
        if backup_id not in self._charged:
            self._charged.add(backup_id)
            self.build_ops += recipe.num_chunks
        return recipe

    def _build(self, recipe) -> Callable[[bytes], bool]:
        self.filters_built += 1
        if self.config.exact_reference_check:
            return recipe.unique_fingerprints().__contains__
        bloom = BloomFilter(
            capacity=max(1, recipe.num_chunks),
            fp_rate=self.config.bloom_fp_rate,
            salt=b"recipe" + recipe.backup_id.to_bytes(8, "big"),
        )
        bloom.update(recipe.fingerprints())
        return bloom.__contains__

    def membership(self, backup_id: int) -> Callable[[bytes], bool]:
        """The per-key membership predicate for one backup's recipe."""
        predicate = self._filters.get(backup_id)
        if predicate is None:
            predicate = self._build(self._recipe(backup_id))
            self._filters[backup_id] = predicate
        return predicate

    def exact_ids(self, backup_id: int) -> frozenset[int]:
        """One recipe's exact interned-id member set."""
        return self._recipe(backup_id).unique_ids()


@dataclass
class _LeafNode:
    """A leaf of the ownership tree (optimization ④: linked, ids only)."""

    #: Interned ids of the chunks in this leaf.
    ids: list[int]
    #: Backups (ascending id) confirmed to reference every chunk here.
    owners: list[int] = field(default_factory=list)
    denied: bool = False
    prev: "_LeafNode | None" = None
    next: "_LeafNode | None" = None

    def split(self, flags: list[bool]) -> None:
        """Keep the flagged chunks (left child); the rest become a new right
        sibling, linked in after this leaf."""
        right = _LeafNode(
            ids=list(compress(self.ids, map(not_, flags))),
            owners=list(self.owners),
            prev=self,
            next=self.next,
        )
        self.ids = list(compress(self.ids, flags))
        if self.next is not None:
            self.next.prev = right
        self.next = right


class Analyzer:
    """Clusters one segment's valid chunks by ownership."""

    def __init__(self, checker: ReferenceChecker, config: GCCDFConfig):
        self.checker = checker
        self.config = config
        #: Peak number of leaves seen in the last run (tree-size reporting).
        self.last_leaf_count = 0
        #: Membership probes performed in the last run (cost accounting).
        self.last_probe_count = 0
        #: Chunks clustered in the last run (tree-size estimation).
        self.last_chunk_count = 0

    def estimated_tree_bytes(self) -> int:
        """Approximate memory of the last run's tree (paper §5.5: an
        ~80-byte node structure per leaf plus one chunk pointer per chunk —
        leaves hold references, not data, per optimization ④)."""
        node_bytes = 80
        pointer_bytes = 8
        return self.last_leaf_count * node_bytes + self.last_chunk_count * pointer_bytes

    def cluster(
        self, valid_ids: list[int], involved_backups: tuple[int, ...]
    ) -> list[Cluster]:
        """Cluster a segment's valid chunks, given as interned ids; returns
        clusters in tree order.

        Two kernels, same clusters whenever membership answers agree.  With
        an exact reference check (the default) the **id kernel** runs:
        C-level set algebra of each leaf's id column against the recipe's
        cached id set, where only a real split pays a per-chunk pass.
        Otherwise (the Bloom ablation) every chunk's key, read from the
        interner's id → key table, goes through the per-recipe predicate.
        ``probes`` counts chunk classifications on both, so ``analyze_ops``
        and the ``gc.segment`` trace do not depend on which kernel ran.
        """
        if not valid_ids:
            self.last_leaf_count = self.last_probe_count = self.last_chunk_count = 0
            return []

        by_id = self.config.exact_reference_check
        keys = self.checker.recipes.interner.keys()
        head = _LeafNode(ids=list(valid_ids))
        threshold = self.config.split_denial_threshold
        probes = 0

        # Optimization ②: most recent backup first.
        for backup_id in sorted(involved_backups, reverse=True):
            if by_id:
                members = self.checker.exact_ids(backup_id)
            else:
                predicate = self.checker.membership(backup_id)
            node: _LeafNode | None = head
            while node is not None:
                successor = node.next
                if node.denied or (threshold and len(node.ids) <= threshold):
                    # Optimization ③: deny further splitting of tiny leaves.
                    node.denied = True
                    node = successor
                    continue
                probes += len(node.ids)
                # `flags`: True / False when the leaf is wholly referenced /
                # unreferenced, else one bool per chunk.
                if by_id:
                    if members.issuperset(node.ids):
                        flags = True
                    elif members.isdisjoint(node.ids):
                        flags = False
                    else:
                        flags = list(map(members.__contains__, node.ids))
                else:
                    flags = [predicate(keys[chunk_id]) for chunk_id in node.ids]
                    if all(flags) or not any(flags):
                        flags = flags[0]
                if flags:
                    if flags is not True:
                        node.split(flags)
                    node.owners.append(backup_id)
                node = successor

        clusters: list[Cluster] = []
        node = head
        while node is not None:
            clusters.append(
                Cluster(
                    # Paper convention: ownership ascending (oldest first);
                    # owners were appended newest-first, so reverse.
                    ownership=tuple(sorted(node.owners)),
                    ids=node.ids,
                    denied=node.denied,
                )
            )
            node = node.next
        self.last_leaf_count = len(clusters)
        self.last_probe_count = probes
        self.last_chunk_count = len(valid_ids)
        return clusters
