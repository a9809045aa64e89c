"""Deduplicating ingest (paper §2.2) and rewriting defragmentation (§2.3).

The pipeline implements the five-step dedup workflow: chunk → fingerprint →
duplicate detection → (rewriting hook) → container write + recipe.  Rewriting
policies — the paper's comparison baselines Capping, HAR and SMR — plug into
the hook and may choose to store a duplicate again for locality.
"""

from repro.dedup.keys import storage_key, logical_fp, key_generation
from repro.dedup.logical_index import LogicalIndex
from repro.dedup.pipeline import IngestPipeline, IngestResult
from repro.dedup.rewriting import (
    RewritingPolicy,
    CappingRewriting,
    HARRewriting,
    SMRRewriting,
    make_rewriting,
)

__all__ = [
    "storage_key",
    "logical_fp",
    "key_generation",
    "LogicalIndex",
    "IngestPipeline",
    "IngestResult",
    "RewritingPolicy",
    "CappingRewriting",
    "HARRewriting",
    "SMRRewriting",
    "make_rewriting",
]
