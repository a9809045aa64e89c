"""The GCCDF Planner (paper §5.4).

The Planner turns the Analyzer's clusters into the *Migration Order*: it
walks the leaf list left to right (for the default ``tree`` packing the tree
order *is* the container-adaptable packing — §5.4's "binary-tree-assisted
implementation"), or applies the explicit greedy/random packing for the
ablation configurations, then flattens clusters into the final reordered
chunk-id sequence the sweep writes out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GCCDFConfig
from repro.core.clusters import Cluster
from repro.core.packing import order_clusters
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class MigrationOrder:
    """The Planner's output for one segment."""

    #: Interned chunk ids in final write order.
    sequence: tuple[int, ...]
    #: Cluster count after packing (tree-size/leaf statistics, §5.5).
    num_clusters: int

    @property
    def num_chunks(self) -> int:
        return len(self.sequence)


class Planner:
    """Produces the reordered migration sequence for each segment."""

    def __init__(self, config: GCCDFConfig, rng: DeterministicRng | None = None):
        self.config = config
        self._rng = rng or DeterministicRng(0)

    def plan(
        self,
        clusters: list[Cluster],
        involved_backups: tuple[int, ...],
    ) -> MigrationOrder:
        """Order clusters per the configured packing, flatten to chunks."""
        ordered = order_clusters(
            clusters,
            strategy=self.config.packing,
            num_backups=len(involved_backups),
            rng=self._rng,
        )
        sequence: list[int] = []
        for cluster in ordered:
            sequence.extend(cluster.ids)
        return MigrationOrder(sequence=tuple(sequence), num_clusters=len(ordered))
