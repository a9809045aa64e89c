"""Rewriting-policy interface.

A policy decides over stream segments.  The ingest kernel probes every
chunk as it arrives and buffers it until ``segment_bytes`` of stream have
arrived (``0``: every chunk is its own segment); it then hands the policy
the segment's duplicate bytes per referenced old container, in
first-reference order, and stores again every duplicate housed in a
container the policy returns.  The segment is recorded in stream order
after the decision, and the stream's final partial segment is decided too.
"""

from __future__ import annotations


class RewritingPolicy:
    """Base class: subclasses implement :meth:`decide`."""

    #: Stream bytes buffered per decision; 0 decides after every chunk.
    segment_bytes = 0

    def begin_backup(self, backup_id: int) -> None:
        """Called before the first chunk of each backup."""

    def decide(self, referenced: dict[int, int], segment_bytes: int) -> set[int]:
        """Containers whose duplicates in this segment are stored again.

        ``referenced`` maps each old container the segment's duplicates
        live in to their total bytes; ``segment_bytes`` counts every chunk
        of the segment, duplicate or not.
        """
        raise NotImplementedError

    def end_backup(self) -> None:
        """Called after the backup's last segment has been recorded."""
