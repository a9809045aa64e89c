"""Chunk clusters: the unit GCCDF reorders.

A cluster is a maximal group of valid chunks sharing the same *ownership* —
the set of live backups that reference them (paper §4.1).  Chunks in one
cluster are always needed together (restoring any owner needs all of them)
or not at all, so packing a cluster contiguously can never cause read
amplification by itself; only the container-boundary mixing *between*
clusters can (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Cluster:
    """One ownership cluster produced by the Analyzer.

    ``ownership`` lists the owning backup ids ascending (oldest first), the
    paper's convention — so the *suffix* of the list is its most recent
    owners, which is what the longest-matching-suffix tie-break inspects.
    For a split-denied leaf (§5.3 optimization ③) the ownership is the set
    decided so far and ``denied`` is True; chunks inside may disagree on the
    backups that were never checked.  ``ids`` are the chunks' interned ids
    (the recipe store's id space), in segment order.
    """

    ownership: tuple[int, ...]
    ids: list[int] = field(default_factory=list)
    denied: bool = False

    @property
    def num_chunks(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        flag = ", denied" if self.denied else ""
        return (
            f"Cluster(owners={list(self.ownership)}, {self.num_chunks} chunks{flag})"
        )
