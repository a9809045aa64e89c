"""Container-adaptable cluster packing (paper §4.2).

Cluster sizes rarely align with container boundaries, so chunks of *adjacent*
clusters end up mixed in the same container.  The packing order decides which
clusters become neighbours, and therefore which mixes happen.  The paper's
strategy:

1. start from the cluster with the largest ownership;
2. repeatedly append the remaining cluster most similar (by ownership) to
   the last one placed;
3. break similarity ties by the longest matching *suffix* of the ownership
   lists — i.e. agreement on the most recent backups, which both suffer the
   most fragmentation and live the longest (§4.2's two reasons).

Three implementations are exposed for the §6.5 ablation:

* ``tree`` — the production path: the Analyzer's binary-tree leaf order
  realises this packing implicitly (§5.4), so no work is needed;
* ``greedy`` — the explicit strategy above, applied to any cluster list;
* ``random`` — the ablation baseline (≈20 % extra read amplification in the
  paper's Fig. 15a).
"""

from __future__ import annotations

from itertools import compress

from repro.core.clusters import Cluster
from repro.errors import ConfigError
from repro.util.rng import DeterministicRng


def ownership_similarity(a: tuple[int, ...], b: tuple[int, ...], num_backups: int) -> float:
    """Fraction of all involved backups common to both ownerships (§4.2)."""
    if num_backups <= 0:
        return 0.0
    return len(set(a) & set(b)) / num_backups


def matching_suffix_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the common trailing run of two ascending ownership lists.

    Ownership lists end with their most recent backups, so this measures
    agreement on recency: ``{1,2,3,4}`` vs ``{1,3,4}`` share the suffix
    ``(3, 4)`` → 2.
    """
    count = 0
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            break
        count += 1
    return count


def greedy_pack(clusters: list[Cluster], num_backups: int) -> list[Cluster]:
    """The explicit §4.2 packing: similarity chain from the largest owner set.

    Deterministic: all ties beyond the paper's two criteria fall back to the
    ownership tuple itself.  O(n²) in the number of clusters (§5.5 reports
    1200–1600 leaves per segment), so comparisons run on ownership
    *bitmasks*, bit *i* standing for the *i*-th most recent backup:
    ``(a & b).bit_count()`` counts shared owners — similarity times
    ``num_backups``, which therefore never changes the order — and the
    common owners below the lowest differing bit are the matching suffix.
    """
    if not clusters:
        return []
    owners = [c.ownership for c in clusters]
    recent_first = sorted({b for owned in owners for b in owned}, reverse=True)
    bit = {backup: 1 << i for i, backup in enumerate(recent_first)}
    masks = [sum({bit[b] for b in owned}) for owned in owners]
    remaining = list(range(len(clusters)))
    # Initial entry: largest ownership (ties: more chunks, then tuple order).
    pick = max(
        remaining,
        key=lambda i: (len(owners[i]), clusters[i].num_chunks, tuple(-b for b in owners[i])),
    )

    def suffix_key(i: int) -> tuple:
        # For candidates tied on similarity to `last`, the mask just placed.
        differ = last ^ masks[i]
        suffix = last & ((differ & -differ) - 1)  # `last` itself when equal
        return (suffix.bit_count(), len(owners[i]), owners[i])

    ordered = []
    while True:
        remaining.remove(pick)
        ordered.append(clusters[pick])
        if not remaining:
            return ordered
        last = masks[pick]
        shared = [(last & masks[i]).bit_count() for i in remaining]
        most = max(shared)
        pick = max(compress(remaining, [n == most for n in shared]), key=suffix_key)


def random_pack(clusters: list[Cluster], rng: DeterministicRng) -> list[Cluster]:
    """Ablation baseline: uniformly random cluster order."""
    shuffled = list(clusters)
    rng.shuffle(shuffled)
    return shuffled


def order_clusters(
    clusters: list[Cluster],
    strategy: str,
    num_backups: int,
    rng: DeterministicRng | None = None,
) -> list[Cluster]:
    """Dispatch on the configured packing strategy."""
    if strategy == "tree":
        return list(clusters)
    if strategy == "greedy":
        return greedy_pack(clusters, num_backups)
    if strategy == "random":
        if rng is None:
            raise ConfigError("random packing requires an RNG")
        return random_pack(clusters, rng)
    raise ConfigError(f"unknown packing strategy {strategy!r}")
