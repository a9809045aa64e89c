"""Service construction options, folded into one frozen dataclass.

:class:`ServiceOptions` is the cross-cutting construction surface of
:func:`~repro.backup.approaches.make_service` (tracer, faults, GC mode and
budget, dedup mode, the serve-layer cache knobs) as a single immutable
value that can be validated once, shared across a fleet of services, and
extended without touching every call-site signature.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.plan import FaultPlan
    from repro.gc.incremental import GCBudget
    from repro.obs.tracer import Tracer

#: Valid ``gc_mode`` values: stop-the-world per rotation, or budgeted
#: incremental cycles interleaved with traffic.
GC_MODES = ("stw", "incremental")

#: Valid ``dedup_mode`` values: full inline dedup at ingest, or the
#: hybrid inline/out-of-line mode whose deferred duplicates are coalesced
#: by the GC cycle.
DEDUP_MODES = ("inline", "hybrid")


@dataclass(frozen=True)
class ServiceOptions:
    """Cross-cutting construction options for every approach.

    ``tracer`` attaches a :class:`~repro.obs.tracer.Tracer` to the
    service's simulated disk (default: the null tracer).  ``faults`` arms
    a :class:`~repro.faults.FaultPlan` on the disk.
    ``gc_mode``/``gc_budget`` select stop-the-world versus budgeted
    incremental GC.  ``dedup_mode`` selects inline
    deduplication (every chunk probes the fingerprint index at ingest)
    versus the hybrid inline/out-of-line mode (ingest classifies with a
    cheap neighbor/Bloom probe and GC coalesces deferred duplicates; see
    :mod:`repro.dedup.hybrid`).  ``read_cache_containers`` /
    ``read_cache_chunks`` size the serve layer's
    :class:`~repro.serve.cache.TieredReadCache` tiers (``None`` =
    unbounded tier).
    """

    tracer: "Tracer | None" = None
    faults: "FaultPlan | None" = None
    gc_mode: str = "stw"
    gc_budget: "GCBudget | None" = None
    dedup_mode: str = "inline"
    read_cache_containers: int | None = 8
    read_cache_chunks: int | None = 1024

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on invalid knobs."""
        if self.gc_mode not in GC_MODES:
            raise ConfigError(
                f"unknown gc_mode {self.gc_mode!r}; choose one of {GC_MODES}"
            )
        if self.dedup_mode not in DEDUP_MODES:
            raise ConfigError(
                f"unknown dedup_mode {self.dedup_mode!r}; choose one of "
                f"{DEDUP_MODES}"
            )
        for knob in ("read_cache_containers", "read_cache_chunks"):
            value = getattr(self, knob)
            if value is not None and value <= 0:
                raise ConfigError(f"{knob} must be positive or None, got {value!r}")

    def with_overrides(self, **changes) -> "ServiceOptions":
        """A copy with the given fields replaced (validated)."""
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise ConfigError(
                f"unknown ServiceOptions field(s) {unknown}; valid fields: "
                f"{sorted(valid)}"
            )
        options = replace(self, **changes)
        options.validate()
        return options


#: The all-defaults options value (shared; the dataclass is frozen).
DEFAULT_OPTIONS = ServiceOptions()
