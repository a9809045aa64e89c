"""Unit tests for container-adaptable cluster packing (§4.2)."""

import pytest

from repro.core.clusters import Cluster
from repro.core.packing import (
    greedy_pack,
    matching_suffix_length,
    order_clusters,
    ownership_similarity,
    random_pack,
)
from repro.errors import ConfigError
from repro.util.rng import DeterministicRng


def cluster(owners, n_chunks=2) -> Cluster:
    base = hash(tuple(owners)) & 0xFFFF
    return Cluster(
        ownership=tuple(owners), ids=[base * 100 + i for i in range(n_chunks)]
    )


class TestSimilarity:
    def test_paper_example_values(self):
        """§4.2: A={1,2,3,4}, B={1,3,4}, C={1,2,4} over 4 backups."""
        a, b, c = (1, 2, 3, 4), (1, 3, 4), (1, 2, 4)
        assert ownership_similarity(a, b, 4) == pytest.approx(0.75)
        assert ownership_similarity(a, c, 4) == pytest.approx(0.75)
        assert ownership_similarity(b, c, 4) == pytest.approx(0.5)

    def test_disjoint_is_zero(self):
        assert ownership_similarity((1,), (2,), 4) == 0.0

    def test_empty_universe(self):
        assert ownership_similarity((1,), (1,), 0) == 0.0


class TestMatchingSuffix:
    def test_paper_example(self):
        """A={1,2,3,4} vs B={1,3,4} share the suffix (3,4) → length 2;
        A vs C={1,2,4} share only (4) → length 1 — the §4.2 tie-break."""
        assert matching_suffix_length((1, 2, 3, 4), (1, 3, 4)) == 2
        assert matching_suffix_length((1, 2, 3, 4), (1, 2, 4)) == 1

    def test_identical(self):
        assert matching_suffix_length((1, 2), (1, 2)) == 2

    def test_no_match(self):
        assert matching_suffix_length((1, 2), (3, 4)) == 0

    def test_empty(self):
        assert matching_suffix_length((), (1,)) == 0


class TestGreedyPack:
    def test_starts_with_largest_ownership(self):
        clusters = [cluster([1]), cluster([1, 2, 3, 4]), cluster([1, 2])]
        ordered = greedy_pack(clusters, num_backups=4)
        assert ordered[0].ownership == (1, 2, 3, 4)

    def test_prefers_suffix_on_similarity_tie(self):
        """From A={1,2,3,4}, B={1,3,4} must precede C={1,2,4} (§4.2 case ①
        over ②): equal similarity, longer matching suffix."""
        a, b, c = cluster([1, 2, 3, 4]), cluster([1, 3, 4]), cluster([1, 2, 4])
        ordered = greedy_pack([c, b, a], num_backups=4)
        assert [cl.ownership for cl in ordered] == [
            (1, 2, 3, 4),
            (1, 3, 4),
            (1, 2, 4),
        ]

    def test_chains_by_similarity(self):
        """Same-group clusters stay adjacent; a disjoint group comes last."""
        group_a = [cluster([1, 2, 3]), cluster([1, 2]), cluster([1, 2, 3, 4])]
        group_b = [cluster([9]), cluster([8, 9])]
        ordered = greedy_pack(group_a + group_b, num_backups=9)
        positions = {cl.ownership: i for i, cl in enumerate(ordered)}
        a_positions = [positions[c.ownership] for c in group_a]
        b_positions = [positions[c.ownership] for c in group_b]
        assert max(a_positions) < min(b_positions)

    def test_is_permutation(self):
        clusters = [cluster([i, i + 1]) for i in range(10)]
        ordered = greedy_pack(clusters, num_backups=12)
        assert sorted(c.ownership for c in ordered) == sorted(
            c.ownership for c in clusters
        )

    def test_empty(self):
        assert greedy_pack([], num_backups=3) == []

    def test_deterministic(self):
        clusters = [cluster([i % 4, 4 + (i % 3)]) for i in range(8)]
        assert [c.ownership for c in greedy_pack(list(clusters), 8)] == [
            c.ownership for c in greedy_pack(list(clusters), 8)
        ]


class TestRandomAndDispatch:
    def test_random_is_permutation(self):
        clusters = [cluster([i]) for i in range(10)]
        shuffled = random_pack(list(clusters), DeterministicRng(1))
        assert sorted(c.ownership for c in shuffled) == sorted(
            c.ownership for c in clusters
        )

    def test_random_seed_determinism(self):
        clusters = [cluster([i]) for i in range(10)]
        a = random_pack(list(clusters), DeterministicRng(5))
        b = random_pack(list(clusters), DeterministicRng(5))
        assert [c.ownership for c in a] == [c.ownership for c in b]

    def test_tree_dispatch_is_identity(self):
        clusters = [cluster([2]), cluster([1])]
        assert order_clusters(clusters, "tree", 2) == clusters

    def test_random_dispatch_requires_rng(self):
        with pytest.raises(ConfigError):
            order_clusters([cluster([1])], "random", 1, rng=None)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            order_clusters([], "alphabetical", 1)
