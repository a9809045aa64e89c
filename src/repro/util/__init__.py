"""Small shared utilities: units and a deterministic RNG."""

from repro.util.units import (
    KIB,
    MIB,
    GIB,
    TIB,
    format_bytes,
    format_duration,
    parse_size,
)
from repro.util.rng import DeterministicRng, derive_seed

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "format_bytes",
    "format_duration",
    "parse_size",
    "DeterministicRng",
    "derive_seed",
]
