"""The columnar recipe and its substrate (interner, negative-lookup guard).

A :class:`~repro.index.columnar.ColumnarRecipe` (interned ids +
``array('q')`` columns) must present exactly the stream it was built from:
same fingerprints in order, same unique set, same logical size, and an
``entries`` view indistinguishable from the tuple of ``ChunkRef``s.
Property tests check the views against the raw stream over random inputs
(the mark over these recipes is checked against a per-entry model in
``tests/test_prop_mark.py``); unit tests pin the interner and the Bloom
negative-lookup guard.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import (
    GUARD_INITIAL_CAPACITY,
    FingerprintIndex,
)
from repro.index.interning import FingerprintInterner
from repro.model import ChunkRef

from tests.conftest import columnar_recipe


# ---------------------------------------------------------------------------
# Recipe-level equivalence: ColumnarRecipe views vs the stream it encodes
# ---------------------------------------------------------------------------

# (chunk id, size) pairs; repeated ids model the duplicate-heavy streams the
# columnar representation exists for.
stream_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=4096),
    ),
    min_size=0,
    max_size=200,
)


def build_pair(
    entries: list[tuple[int, int]],
) -> tuple[tuple[ChunkRef, ...], ColumnarRecipe]:
    stream = tuple(
        ChunkRef(fp=synthetic_fingerprint("hotpath", i), size=size)
        for i, size in entries
    )
    return stream, columnar_recipe(FingerprintInterner(), 1, stream, source="prop")


@given(stream_entries)
def test_fingerprints_in_order_match(entries):
    stream, columnar = build_pair(entries)
    assert list(columnar.fingerprints()) == [ref.fp for ref in stream]


@given(stream_entries)
def test_unique_fingerprints_match(entries):
    stream, columnar = build_pair(entries)
    assert columnar.unique_fingerprints() == {ref.fp for ref in stream}
    # The cached unique-id set agrees with the column it summarises.
    assert columnar.unique_ids() == frozenset(columnar.chunk_ids)
    assert columnar.unique_ids() is columnar.unique_ids()  # cached


@given(stream_entries)
def test_logical_size_and_num_chunks_match(entries):
    _, columnar = build_pair(entries)
    assert columnar.logical_size == sum(size for _, size in entries)
    assert columnar.num_chunks == len(entries)


@given(stream_entries)
def test_entries_view_matches_tuple(entries):
    stream, columnar = build_pair(entries)
    view = columnar.entries
    assert len(view) == len(stream)
    assert list(view) == list(stream)
    for i in range(len(entries)):
        assert view[i] == stream[i]
    if entries:
        assert view[-1] == stream[-1]
    assert view[1:7] == stream[1:7]
    assert view[::2] == stream[::2]


# ---------------------------------------------------------------------------
# FingerprintInterner unit behaviour
# ---------------------------------------------------------------------------

class TestInterner:
    def test_ids_are_dense_and_stable(self):
        interner = FingerprintInterner()
        keys = [synthetic_fingerprint("intern", i) for i in range(5)]
        ids = [interner.intern(k) for k in keys]
        assert ids == list(range(5))
        assert [interner.intern(k) for k in keys] == ids  # idempotent
        assert len(interner) == 5
        for chunk_id, key in zip(ids, keys):
            assert interner.key_of(chunk_id) == key
            assert interner.id_of(key) == chunk_id
            assert key in interner

    def test_id_of_unknown_is_none(self):
        interner = FingerprintInterner()
        assert interner.id_of(b"\x00" * 20) is None

    def test_width_is_pinned_by_first_key(self):
        interner = FingerprintInterner()
        assert interner.width is None
        interner.intern(b"a" * 20)
        assert interner.width == 20
        try:
            interner.intern(b"b" * 24)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("mixed-width intern must raise")

    def test_fingerprint_table_layout(self):
        interner = FingerprintInterner()
        keys = [synthetic_fingerprint("table", i) for i in range(4)]
        for key in keys:
            interner.intern(key)
        table = interner.fingerprint_table()
        width = interner.width
        assert table == b"".join(keys)
        for i, key in enumerate(keys):
            assert table[i * width : (i + 1) * width] == key

    def test_id_map_is_live_view(self):
        interner = FingerprintInterner()
        mapping = interner.id_map()
        chunk_id = interner.intern(b"c" * 20)
        assert mapping[b"c" * 20] == chunk_id


# ---------------------------------------------------------------------------
# Bloom negative-lookup guard: result- and counter-identical to unguarded
# ---------------------------------------------------------------------------

class TestNegativeGuard:
    def test_guarded_lookup_matches_unguarded(self):
        guarded = FingerprintIndex(negative_guard=True)
        plain = FingerprintIndex(negative_guard=False)
        keys = [synthetic_fingerprint("guard", i) + b"\x00" * 4 for i in range(64)]
        for i, key in enumerate(keys[:32]):
            guarded.insert(key, container_id=i, size=512)
            plain.insert(key, container_id=i, size=512)
        for key in keys:  # 32 present, 32 never inserted
            assert guarded.lookup(key) == plain.lookup(key)
        assert guarded.lookups == plain.lookups == 64
        assert guarded.hits == plain.hits == 32
        assert guarded.guard_probes == 64
        # Every never-inserted key is skipped (no false negatives; false
        # positives may only reduce the skip count, never add wrong skips).
        assert guarded.guard_skips <= 32
        assert guarded.guard_skip_rate == guarded.guard_skips / 64
        assert plain.guard_probes == plain.guard_skips == 0
        assert not plain.guard_enabled and guarded.guard_enabled

    def test_guard_rebuild_preserves_correctness(self):
        index = FingerprintIndex(negative_guard=True)
        n = GUARD_INITIAL_CAPACITY + 100  # forces at least one rebuild
        keys = [b"%020d\x00\x00\x00\x00" % i for i in range(n)]
        for i, key in enumerate(keys):
            index.insert(key, container_id=i, size=1)
        for key in keys:
            assert index.lookup(key) is not None
        assert index.hits == n

    def test_validate_counts_like_lookup_without_guard_probes(self):
        index = FingerprintIndex(negative_guard=True)
        key = b"v" * 24
        index.insert(key, container_id=0, size=1)
        assert index.validate(key) is not None
        assert index.validate(b"w" * 24) is None
        assert index.lookups == 2 and index.hits == 1
        assert index.guard_probes == 0
