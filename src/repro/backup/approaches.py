"""Factory for the six evaluated approaches (paper §6.1 and artifact §A.2).

==========  =============================================================
name        configuration
==========  =============================================================
nondedup    dedup disabled (every chunk stored), classic GC
naive       full dedup, no rewriting, classic GC
capping     Capping rewriting + classic GC
har         HAR rewriting + classic GC
smr         SMR rewriting + classic GC
gccdf       full dedup, no rewriting, GCCDF-powered GC
mfdedup     MFDedup engine (neighbor dedup, volumes, deletion-only GC)
==========  =============================================================

Cross-cutting construction knobs travel in one frozen
:class:`~repro.backup.options.ServiceOptions` value.
"""

from __future__ import annotations

from repro.backup.options import DEFAULT_OPTIONS, ServiceOptions
from repro.backup.service import BackupService
from repro.backup.system import DedupBackupService
from repro.config import SystemConfig
from repro.core.gccdf import GCCDFMigration
from repro.dedup.rewriting import make_rewriting
from repro.errors import ConfigError
from repro.gc.migration import NaiveMigration
from repro.mfdedup.engine import MFDedupService
from repro.obs.tracer import Tracer

#: Approaches in the order the paper's figures list them.
APPROACHES = ("nondedup", "naive", "capping", "har", "smr", "mfdedup", "gccdf")

#: Valid ``**policy_kwargs`` per approach; approaches without a rewriting
#: policy accept none.
POLICY_KNOBS: dict[str, tuple[str, ...]] = {
    "capping": ("cap", "segment_containers"),
    "har": ("utilization_threshold",),
    "smr": ("utility_threshold", "rewrite_budget", "segment_containers"),
}


def _validate_policy_kwargs(approach: str, policy_kwargs: dict) -> None:
    """Reject policy kwargs the approach's rewriting policy does not take.

    Mirrors the unknown-preset :class:`~repro.errors.ConfigError`
    treatment: the error names the approach and its valid knobs, instead
    of silently dropping the kwarg (nondedup/naive/gccdf/mfdedup
    historically ignored them — a typo'd ``cap=`` simply vanished).
    """
    if not policy_kwargs:
        return
    valid = POLICY_KNOBS.get(approach, ())
    unknown = sorted(set(policy_kwargs) - set(valid))
    if not unknown:
        return
    if valid:
        raise ConfigError(
            f"unknown policy kwarg(s) {unknown} for approach {approach!r}; "
            f"valid knobs: {sorted(valid)}"
        )
    raise ConfigError(
        f"approach {approach!r} takes no policy kwargs, got {unknown}"
    )


def make_service(
    approach: str,
    config: SystemConfig | None = None,
    options: ServiceOptions | None = None,
    seed: int = 0,
    **policy_kwargs,
) -> BackupService:
    """Build a backup service for one approach.

    ``options`` carries every cross-cutting knob (see
    :class:`~repro.backup.options.ServiceOptions`): the attached tracer,
    an armed fault plan, the GC mode/budget, the dedup mode, and the serve
    layer's read-cache capacities.  ``policy_kwargs`` are
    forwarded to the approach's rewriting policy (e.g. ``cap=20`` for
    capping, ``utilization_threshold=0.5`` for HAR); unknown policy
    kwargs raise :class:`~repro.errors.ConfigError` naming the approach
    and its valid knobs.  ``seed`` feeds GCCDF's migration RNG.
    """
    config = config or SystemConfig.scaled()
    options = options if options is not None else DEFAULT_OPTIONS
    options.validate()
    _validate_policy_kwargs(approach, policy_kwargs)
    service = _build_service(approach, config, seed, options, **policy_kwargs)
    if options.faults is not None:
        service.disk.faults = options.faults
    return service


def service_factory(
    approach: str,
    config: SystemConfig | None = None,
    options: ServiceOptions | None = None,
    **policy_kwargs,
):
    """Bind an approach, config, and options once; build instances on demand.

    Returns ``build(seed=0, tracer=None) -> BackupService``.  Multi-service
    hosts (the fleet's shard runner builds one service per shard or per
    tenant) resolve the approach and validate the config a single time, then
    stamp out services that differ only in their seed (GCCDF's migration
    RNG) and attached tracer.
    """
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}; choose from {APPROACHES}")
    config = config or SystemConfig.scaled()
    config.validate()
    base = options if options is not None else DEFAULT_OPTIONS
    base.validate()
    _validate_policy_kwargs(approach, policy_kwargs)

    def build(seed: int = 0, tracer: Tracer | None = None) -> BackupService:
        built = base if tracer is None else base.with_overrides(tracer=tracer)
        return make_service(approach, config, built, seed=seed, **policy_kwargs)

    return build


def _build_service(
    approach: str,
    config: SystemConfig,
    seed: int,
    options: ServiceOptions,
    **policy_kwargs,
) -> BackupService:
    tracer = options.tracer
    gc_kwargs = {"gc_mode": options.gc_mode, "gc_budget": options.gc_budget}
    if approach == "mfdedup":
        # MFDedup brings its own neighbor-dedup engine; the hybrid
        # inline/out-of-line split does not apply (dedup_mode is accepted
        # on the options for a uniform CLI surface and ignored here).
        return MFDedupService(
            config=config,
            tracer=tracer,
            read_cache_chunks=options.read_cache_chunks,
            **gc_kwargs,
        )
    gc_kwargs["dedup_mode"] = options.dedup_mode
    serve_kwargs = {
        "read_cache_containers": options.read_cache_containers,
        "read_cache_chunks": options.read_cache_chunks,
    }
    if approach == "nondedup":
        return DedupBackupService(
            config=config,
            dedup_enabled=False,
            migration=NaiveMigration(),
            name="nondedup",
            tracer=tracer,
            **gc_kwargs,
            **serve_kwargs,
        )
    if approach == "gccdf":
        return DedupBackupService(
            config=config,
            migration=GCCDFMigration(seed=seed),
            name="gccdf",
            tracer=tracer,
            **gc_kwargs,
            **serve_kwargs,
        )
    if approach in ("naive", "capping", "har", "smr"):
        service = DedupBackupService(
            config=config,
            migration=NaiveMigration(),
            name=approach,
            tracer=tracer,
            **gc_kwargs,
            **serve_kwargs,
        )
        if approach != "naive":
            service.pipeline.rewriting = make_rewriting(
                approach, store=service.store, **policy_kwargs
            )
        return service
    raise ValueError(f"unknown approach {approach!r}; choose from {APPROACHES}")
