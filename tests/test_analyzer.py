"""Unit tests for the GCCDF Analyzer (ownership clustering, §5.3)."""

from repro.backup.system import DedupBackupService
from repro.config import GCCDFConfig
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.dedup.keys import storage_key
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef

from tests.conftest import columnar_recipe, refs


def key_ref(i: int, size: int = 100) -> ChunkRef:
    return ChunkRef(fp=storage_key(synthetic_fingerprint("an", i)), size=size)


def chunk_ids(recipes: RecipeStore, numbers) -> list[int]:
    """Interned ids (in ``recipes``' id space) of the chunks ``numbers``."""
    return [recipes.interner.intern(key_ref(i).fp) for i in numbers]


def build_recipes(memberships: dict[int, list[int]]) -> RecipeStore:
    """memberships: backup_id → chunk ids it references."""
    store = RecipeStore()
    for backup_id in sorted(memberships):
        assert store.new_backup_id() == backup_id
        store.add(
            columnar_recipe(
                store.interner,
                backup_id,
                (key_ref(i) for i in memberships[backup_id]),
            )
        )
    return store


def exact_config(**kwargs) -> GCCDFConfig:
    defaults = dict(exact_reference_check=True, split_denial_threshold=0)
    defaults.update(kwargs)
    return GCCDFConfig(**defaults)


class TestReferenceChecker:
    def test_exact_membership(self):
        recipes = build_recipes({0: [1, 2], 1: [2, 3]})
        checker = ReferenceChecker(recipes, exact_config())
        assert checker.membership(0)(key_ref(1).fp)
        assert not checker.membership(0)(key_ref(3).fp)

    def test_bloom_membership_no_false_negatives(self):
        recipes = build_recipes({0: list(range(50))})
        checker = ReferenceChecker(recipes, GCCDFConfig())
        member = checker.membership(0)
        assert all(member(key_ref(i).fp) for i in range(50))

    def test_filters_built_once_per_backup(self):
        recipes = build_recipes({0: [1], 1: [2]})
        checker = ReferenceChecker(recipes, exact_config())
        checker.membership(0)
        checker.membership(0)
        checker.membership(1)
        assert checker.filters_built == 2


class TestAnalyzerClustering:
    def test_paper_figure_6_example(self):
        """Chunks 1,5,7 owned by all; 2,4,8 by {α,β}; 3,6,9 by {α} (§4.1)."""
        alpha, beta, gamma = 0, 1, 2
        recipes = build_recipes(
            {
                alpha: [1, 5, 7, 2, 4, 8, 3, 6, 9],
                beta: [1, 5, 7, 2, 4, 8],
                gamma: [1, 5, 7],
            }
        )
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        clusters = analyzer.cluster(chunk_ids(recipes, range(1, 10)), (alpha, beta, gamma))
        by_ownership = {c.ownership: sorted(c.ids) for c in clusters}
        assert by_ownership[(alpha, beta, gamma)] == sorted(chunk_ids(recipes, (1, 5, 7)))
        assert by_ownership[(alpha, beta)] == sorted(chunk_ids(recipes, (2, 4, 8)))
        assert by_ownership[(alpha,)] == sorted(chunk_ids(recipes, (3, 6, 9)))

    def test_clusters_ordered_by_recency(self):
        """The first cluster must be the one owned by the newest backups
        (reverse checking order + referenced-goes-left)."""
        recipes = build_recipes({0: [1, 2], 1: [2, 3]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        clusters = analyzer.cluster(chunk_ids(recipes, (1, 2, 3)), (0, 1))
        # Chunk 2 is owned by both; chunk 3 only by backup 1 (newest);
        # chunk 1 only by backup 0.  Order: {0,1}, {1}, {0}.
        assert [c.ownership for c in clusters] == [(0, 1), (1,), (0,)]

    def test_all_chunks_preserved_exactly_once(self):
        recipes = build_recipes({0: [1, 3, 5], 1: [2, 3, 6], 2: [1, 2, 3]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        ids = chunk_ids(recipes, range(1, 7))
        clusters = analyzer.cluster(ids, (0, 1, 2))
        flattened = [i for c in clusters for i in c.ids]
        assert sorted(flattened) == sorted(ids)
        assert len(flattened) == len(set(flattened))

    def test_same_ownership_same_cluster(self):
        recipes = build_recipes({0: [1, 2, 3, 4], 1: [1, 2]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        clusters = analyzer.cluster(chunk_ids(recipes, range(1, 5)), (0, 1))
        assert len(clusters) == 2  # {0,1} and {0}

    def test_empty_input(self):
        recipes = build_recipes({0: [1]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        assert analyzer.cluster([], (0,)) == []
        assert analyzer.last_leaf_count == 0

    def test_no_involved_backups_single_cluster(self):
        recipes = build_recipes({0: [1]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        clusters = analyzer.cluster(chunk_ids(recipes, (7, 8)), ())
        assert len(clusters) == 1
        assert clusters[0].ownership == ()

    def test_unreferenced_chunks_form_ownerless_cluster(self):
        recipes = build_recipes({0: [1]})
        analyzer = Analyzer(ReferenceChecker(recipes, exact_config()), exact_config())
        clusters = analyzer.cluster(chunk_ids(recipes, (1, 99)), (0,))
        ownerless = [c for c in clusters if c.ownership == ()]
        assert len(ownerless) == 1
        assert ownerless[0].ids == chunk_ids(recipes, (99,))


class TestSplitDenial:
    def test_small_leaves_stop_splitting(self):
        """With a threshold of 2 the initial 2-chunk node never splits, even
        though the chunks have different ownership."""
        recipes = build_recipes({0: [1], 1: [2]})
        config = exact_config(split_denial_threshold=2)
        analyzer = Analyzer(ReferenceChecker(recipes, config), config)
        clusters = analyzer.cluster(chunk_ids(recipes, (1, 2)), (0, 1))
        assert len(clusters) == 1
        assert clusters[0].denied

    def test_zero_threshold_disables_denial(self):
        recipes = build_recipes({0: [1], 1: [2]})
        config = exact_config(split_denial_threshold=0)
        analyzer = Analyzer(ReferenceChecker(recipes, config), config)
        clusters = analyzer.cluster(chunk_ids(recipes, (1, 2)), (0, 1))
        assert len(clusters) == 2
        assert not any(c.denied for c in clusters)

    def test_denial_bounds_cluster_count(self):
        """With n backups of disjoint chunks, denial keeps leaves ≥ threshold."""
        memberships = {b: [10 * b + i for i in range(8)] for b in range(6)}
        recipes = build_recipes(memberships)
        config = exact_config(split_denial_threshold=4)
        analyzer = Analyzer(ReferenceChecker(recipes, config), config)
        ids = chunk_ids(recipes, [i for owned in memberships.values() for i in owned])
        clusters = analyzer.cluster(ids, tuple(range(6)))
        assert all(c.num_chunks >= 1 for c in clusters)
        total = sum(c.num_chunks for c in clusters)
        assert total == len(ids)


class TestMemoryEstimates:
    """The paper's §5.5 sizing arguments, as executable accounting."""

    def test_tree_estimate_tracks_leaves_and_chunks(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("m", range(16)))
        service.ingest(refs("m", range(8, 24)))
        config = exact_config()
        analyzer = Analyzer(ReferenceChecker(service.recipes, config), config)
        ids = list(service.recipes.get(0).chunk_ids)
        clusters = analyzer.cluster(ids, (0, 1))
        expected = 80 * len(clusters) + 8 * len(ids)
        assert analyzer.estimated_tree_bytes() == expected
