"""ASCII container-layout rendering for small systems.

Intended for teaching, debugging and example scripts: prints each container
as one line of owner glyphs, making fragmentation visible at a glance.
Chunks are labelled by their ownership group — chunks needed by the same
set of backups share a letter — so an ingest-order layout shows interleaved
letters and a GCCDF-clustered layout shows solid runs.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.ownership import _ownership_map
from repro.backup.system import DedupBackupService

_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
#: Glyph for chunks no live backup references (garbage awaiting GC).
_DEAD = "."


def render_layout(service: DedupBackupService, max_containers: int | None = None) -> str:
    """Render the store as one line per container.

    Ownership groups are assigned glyphs in first-seen order; with more
    groups than glyphs, later groups all render as ``#`` (the rendering is
    a lens for small systems, not a serialization).
    """
    owners = _ownership_map(service)
    glyph_of: dict[frozenset[int], str] = {}
    legend: dict[str, frozenset[int]] = {}

    def glyph(ownership: frozenset[int]) -> str:
        if not ownership:
            return _DEAD
        assigned = glyph_of.get(ownership)
        if assigned is None:
            assigned = _GLYPHS[len(glyph_of)] if len(glyph_of) < len(_GLYPHS) else "#"
            glyph_of[ownership] = assigned
            if assigned != "#":
                legend[assigned] = ownership
        return assigned

    lines: list[str] = []
    for position, container in enumerate(service.store.containers()):
        if max_containers is not None and position >= max_containers:
            lines.append(f"… ({len(service.store) - max_containers} more containers)")
            break
        cells = "".join(
            glyph(owners.get(chunk_id, frozenset())) for chunk_id in container.chunk_ids
        )
        fill = container.utilization
        lines.append(f"container {container.container_id:>4} |{cells}| {fill:4.0%}")

    lines.append("")
    lines.append(f"legend ('{_DEAD}' = unreferenced):")
    for symbol, ownership in legend.items():
        lines.append(f"  {symbol} = backups {sorted(ownership)}")
    return "\n".join(lines)


def ownership_histogram(service: DedupBackupService, width: int = 40) -> str:
    """A bar chart of chunk count per ownership-set size."""
    owners = _ownership_map(service)
    by_size: dict[int, int] = defaultdict(int)
    for ownership in owners.values():
        by_size[len(ownership)] += 1
    if not by_size:
        return "(no referenced chunks)"
    peak = max(by_size.values())
    lines = ["owners  chunks"]
    for size in sorted(by_size):
        count = by_size[size]
        bar = "█" * max(1, round(count / peak * width))
        lines.append(f"{size:>6}  {count:>6} {bar}")
    return "\n".join(lines)
