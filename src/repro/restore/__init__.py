"""Backup restoration with container-granular reads."""

from repro.restore.engine import RestoreEngine
from repro.restore.report import RestoreReport

__all__ = ["RestoreEngine", "RestoreReport"]
