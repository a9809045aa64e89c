"""Rewriting-based defragmentation baselines (paper §2.3, §6.1).

A rewriting policy watches the ingest stream and may have duplicate chunks
*stored again* near their backup's other chunks, trading dedup ratio for
restore locality.  Three published techniques are implemented:

* :class:`CappingRewriting` — Lillibridge et al., FAST '13.
* :class:`HARRewriting` — History-Aware Rewriting, Fu et al., TPDS '16.
* :class:`SMRRewriting` — cost-efficient utility-threshold rewriting after
  Wu et al., TPDS '19 (approximation; see DESIGN.md substitution table).

Each is a segment function (:meth:`RewritingPolicy.decide`); services
without a policy (Naïve, GCCDF, Non-dedup) pass ``rewriting=None``.
"""

from repro.dedup.rewriting.base import RewritingPolicy
from repro.dedup.rewriting.capping import CappingRewriting
from repro.dedup.rewriting.har import HARRewriting
from repro.dedup.rewriting.smr import SMRRewriting

_REGISTRY = {
    "capping": CappingRewriting,
    "har": HARRewriting,
    "smr": SMRRewriting,
}


def make_rewriting(name: str, store, **kwargs) -> RewritingPolicy:
    """Instantiate a rewriting policy by name.

    ``store`` is the container store the policy may consult for container
    metadata (utilization); policies that do not need it ignore it.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rewriting policy {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(store=store, **kwargs)


__all__ = [
    "RewritingPolicy",
    "CappingRewriting",
    "HARRewriting",
    "SMRRewriting",
    "make_rewriting",
]
