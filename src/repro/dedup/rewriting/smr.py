"""SMR — cost-efficient rewriting (after Wu et al., TPDS '19).

The published scheme estimates, per stream segment, the *rewrite utility* of
each referenced old container — how little of it the segment actually uses —
and rewrites duplicates housed in the highest-utility (worst-utilized)
containers, subject to a rewrite budget that bounds the dedup-ratio damage
per segment.

This is a reimplementation from the paper's description rather than the
(unavailable) original code; DESIGN.md records the substitution.  The
qualitative profile the GCCDF paper relies on — modest restore gains, the
largest dedup-ratio losses among the rewriters (up to ~56 % on MIX) — comes
from the aggressive default budget below.
"""

from __future__ import annotations

from repro.dedup.rewriting.base import RewritingPolicy
from repro.errors import ConfigError, UnknownContainerError
from repro.storage.store import ContainerStore


class SMRRewriting(RewritingPolicy):
    """Utility-ranked, budgeted rewriting per stream segment."""

    def __init__(
        self,
        store: ContainerStore,
        utility_threshold: float = 0.3,
        rewrite_budget: float = 0.05,
        segment_containers: int = 5,
    ):
        """``utility_threshold``: containers with referenced fraction below
        this are rewrite candidates.  ``rewrite_budget``: ceiling on rewritten
        bytes as a fraction of segment bytes.  ``segment_containers``:
        segment length in containers."""
        if not (0.0 < utility_threshold <= 1.0):
            raise ConfigError("utility_threshold must be in (0, 1]")
        if not (0.0 <= rewrite_budget <= 1.0):
            raise ConfigError("rewrite_budget must be in [0, 1]")
        if segment_containers <= 0:
            raise ConfigError("segment_containers must be positive")
        self.store = store
        self.utility_threshold = utility_threshold
        self.rewrite_budget = rewrite_budget
        self.segment_bytes = segment_containers * store.capacity

    def _container_utility(self, container_id: int, referenced_bytes: int) -> float:
        """1 - referenced fraction: high utility == badly utilized."""
        try:
            container = self.store.peek(container_id)
        except UnknownContainerError:
            return 0.0
        if container.used_bytes == 0:
            return 0.0
        return 1.0 - referenced_bytes / container.used_bytes

    def decide(self, referenced: dict[int, int], segment_bytes: int) -> set[int]:
        """The worst-utilized candidates whose bytes fit the segment budget."""
        # Rank candidate containers worst-utilized first.
        candidates = []
        for container_id, referenced_bytes in referenced.items():
            utility = self._container_utility(container_id, referenced_bytes)
            if utility > 1.0 - self.utility_threshold:
                candidates.append((utility, container_id, referenced_bytes))
        candidates.sort(key=lambda item: (-item[0], item[1]))

        budget = self.rewrite_budget * segment_bytes
        to_rewrite: set[int] = set()
        spent = 0
        for _, container_id, referenced_bytes in candidates:
            if spent + referenced_bytes > budget:
                continue
            to_rewrite.add(container_id)
            spent += referenced_bytes
        return to_rewrite
