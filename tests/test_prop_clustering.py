"""Property-based tests for the Analyzer's clustering and the packing."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import GCCDFConfig
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.core.clusters import Cluster
from repro.core.packing import (
    greedy_pack,
    matching_suffix_length,
    ownership_similarity,
)
from repro.dedup.keys import storage_key
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef

from tests.conftest import columnar_recipe


def key_ref(i: int) -> ChunkRef:
    return ChunkRef(fp=storage_key(synthetic_fingerprint("pc", i)), size=64)


# A world: n backups, each referencing a random subset of m chunks.
worlds = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=30).flatmap(
        lambda m: st.tuples(
            st.just(n),
            st.just(m),
            st.lists(
                st.sets(st.integers(min_value=0, max_value=m - 1)),
                min_size=n,
                max_size=n,
            ),
        )
    )
)


def build(world):
    n, m, memberships = world
    recipes = RecipeStore()
    for backup_id in range(n):
        assert recipes.new_backup_id() == backup_id
        recipes.add(
            columnar_recipe(
                recipes.interner,
                backup_id,
                (key_ref(i) for i in sorted(memberships[backup_id])),
            )
        )
    config = GCCDFConfig(exact_reference_check=True, split_denial_threshold=0)
    analyzer = Analyzer(ReferenceChecker(recipes, config), config)
    ids = [recipes.interner.intern(key_ref(i).fp) for i in range(m)]
    clusters = analyzer.cluster(ids, tuple(range(n)))
    return n, m, memberships, ids, clusters


@given(worlds)
@settings(max_examples=80, deadline=None)
def test_clusters_partition_the_chunks(world):
    _, m, _, ids, clusters = build(world)
    flattened = [i for cluster in clusters for i in cluster.ids]
    assert sorted(flattened) == sorted(ids)
    assert len(flattened) == len(set(flattened)) == m


@given(worlds)
@settings(max_examples=80, deadline=None)
def test_cluster_ownership_is_exact(world):
    """Every cluster's ownership equals the true referencing-backup set of
    each of its chunks (no denial, exact checking)."""
    n, _, memberships, ids, clusters = build(world)
    true_owner = {}
    for backup_id in range(n):
        for i in memberships[backup_id]:
            true_owner.setdefault(i, set()).add(backup_id)
    number = {chunk_id: i for i, chunk_id in enumerate(ids)}
    for cluster in clusters:
        for chunk_id in cluster.ids:
            assert set(cluster.ownership) == true_owner.get(number[chunk_id], set())


@given(worlds)
@settings(max_examples=50, deadline=None)
def test_distinct_clusters_have_distinct_ownership(world):
    _, _, _, _, clusters = build(world)
    ownerships = [c.ownership for c in clusters]
    assert len(ownerships) == len(set(ownerships))


@given(
    world=worlds,
    threshold=st.sampled_from([0, 4]),
    order=st.randoms(use_true_random=False),
    involved=st.sets(st.integers(min_value=0, max_value=4)),
)
@settings(max_examples=150, deadline=None)
def test_id_kernel_matches_predicate_path(world, threshold, order, involved):
    """Set algebra over interned ids ≡ one predicate probe per chunk (the
    Bloom ablation's path, here answered by the checker's exact key
    predicate): same clusters in the same order (owners, chunks, denial)
    and the same probe and build accounting, on any segment — shuffled,
    with repeated chunks, with chunks no involved backup references."""
    n, m, memberships = world
    recipes = RecipeStore()
    intern = recipes.interner.intern
    for backup_id in range(n):
        assert recipes.new_backup_id() == backup_id
        members = [key_ref(i) for i in sorted(memberships[backup_id])]
        order.shuffle(members)
        recipes.add(columnar_recipe(recipes.interner, backup_id, members))
    chunks = [key_ref(i) for i in range(m)] + [key_ref(0)] * (m % 3)
    order.shuffle(chunks)
    ids = [intern(ref.fp) for ref in chunks]
    involved = tuple(sorted(b for b in involved if b < n))
    config = GCCDFConfig(exact_reference_check=True, split_denial_threshold=threshold)

    def run(analyzer_config):
        checker = ReferenceChecker(recipes, config)
        analyzer = Analyzer(checker, analyzer_config)
        clusters = analyzer.cluster(ids, involved)
        return (
            [(c.ownership, c.ids, c.denied) for c in clusters],
            (analyzer.last_probe_count, analyzer.last_leaf_count, checker.build_ops),
            checker.filters_built,
        )

    by_id, by_id_counts, by_id_built = run(config)
    by_key, by_key_counts, by_key_built = run(
        replace(config, exact_reference_check=False)
    )
    assert by_id == by_key
    assert by_id_counts == by_key_counts
    # Each run took the path it was meant to exercise.
    assert by_id_built == 0 and by_key_built == len(involved)


def greedy_pack_reference(clusters, num_backups):
    """The pre-bitmask ``greedy_pack``, frozen verbatim: O(n²) set builds,
    suffix walk, ``max`` over the full four-part key."""
    if not clusters:
        return []
    remaining = list(clusters)
    first = max(
        remaining,
        key=lambda c: (len(c.ownership), c.num_chunks, tuple(-b for b in c.ownership)),
    )
    remaining.remove(first)
    ordered = [first]
    while remaining:
        last = ordered[-1].ownership
        best = max(
            remaining,
            key=lambda c: (
                ownership_similarity(last, c.ownership, num_backups),
                matching_suffix_length(last, c.ownership),
                len(c.ownership),
                c.ownership,
            ),
        )
        remaining.remove(best)
        ordered.append(best)
    return ordered


ownerships_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=8), min_size=0, max_size=6).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=0,
    max_size=12,
)


@given(ownerships_strategy)
@settings(max_examples=80)
def test_greedy_pack_is_permutation(ownerships):
    clusters = [Cluster(ownership=o, ids=[i]) for i, o in enumerate(ownerships)]
    ordered = greedy_pack(clusters, num_backups=9)
    assert sorted(id(c) for c in ordered) == sorted(id(c) for c in clusters)


@given(
    st.lists(
        st.tuples(
            # Few distinct backups and sizes: similarity, suffix and
            # whole-key ties (equal ownerships) are the common case.
            st.sets(st.sampled_from([2, 3, 5, 8, 13]), max_size=5),
            st.integers(min_value=1, max_value=2),
        ),
        max_size=14,
    )
)
@settings(max_examples=300)
def test_greedy_pack_matches_frozen_reference(specs):
    clusters = [
        Cluster(ownership=tuple(sorted(owners)), ids=[i] * size)
        for i, (owners, size) in enumerate(specs)
    ]
    ordered = greedy_pack(list(clusters), num_backups=5)
    reference = greedy_pack_reference(list(clusters), num_backups=5)
    assert [id(c) for c in ordered] == [id(c) for c in reference]


@given(ownerships_strategy)
@settings(max_examples=50)
def test_greedy_pack_starts_with_max_ownership(ownerships):
    if not ownerships:
        return
    clusters = [Cluster(ownership=o, ids=[i]) for i, o in enumerate(ownerships)]
    ordered = greedy_pack(clusters, num_backups=9)
    assert len(ordered[0].ownership) == max(len(o) for o in ownerships)


owner_tuples = st.sets(st.integers(min_value=0, max_value=10), max_size=8).map(
    lambda s: tuple(sorted(s))
)


@given(owner_tuples, owner_tuples)
@settings(max_examples=100)
def test_similarity_symmetric_and_bounded(a, b):
    assert ownership_similarity(a, b, 11) == ownership_similarity(b, a, 11)
    assert 0.0 <= ownership_similarity(a, b, 11) <= 1.0


@given(owner_tuples)
@settings(max_examples=50)
def test_suffix_with_self_is_full_length(a):
    assert matching_suffix_length(a, a) == len(a)


@given(owner_tuples, owner_tuples)
@settings(max_examples=100)
def test_suffix_symmetric_and_bounded(a, b):
    length = matching_suffix_length(a, b)
    assert length == matching_suffix_length(b, a)
    assert 0 <= length <= min(len(a), len(b))
    if length:
        assert a[-length:] == b[-length:]
