"""Metadata: the fingerprint index and backup recipes (paper §2.2)."""

from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore

__all__ = ["ColumnarRecipe", "FingerprintIndex", "RecipeStore"]
