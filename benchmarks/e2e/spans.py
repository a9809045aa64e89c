"""Outside-in span recorder for the traced passes of the e2e benchmark.

Nothing under ``src/`` knows about this module.  For the duration of one
traced pass :func:`installed` replaces the public boundary of each layer
(the ``TARGETS`` table) with a wrapper that records ``(name, start, end,
parent, op)`` in memory; the originals are restored on exit.  Only
per-backup / per-container / per-segment boundaries are wrapped — nothing
that runs once per chunk — so the overhead stays a few percent and is
reported as ``trace.overhead_ratio``.

A layer's *self time* is its spans' duration minus the part covered by
their direct children, so self times over every span (root included) sum
to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter


def _count_analyzer(counts: dict, analyzer, clusters) -> None:
    counts["analyzer.probes"] = counts.get("analyzer.probes", 0) + analyzer.last_probe_count
    counts["analyzer.clusters"] = counts.get("analyzer.clusters", 0) + len(clusters)


#: (module, attribute path, span name, optional count hook).  Several
#: boundaries may share one span name; their self times add up.
#: ``rededup_slice`` is deliberately absent: it runs once per deferred
#: chunk, and ``run_rededup`` already brackets the whole pass.
TARGETS = (
    ("repro.workloads.datasets", "WorkloadCache.materialize", "workloads.gen", None),
    ("repro.dedup.pipeline", "IngestPipeline.ingest", "dedup.ingest", None),
    ("repro.dedup.hybrid", "run_rededup", "hybrid.rededup", None),
    ("repro.dedup.hybrid", "HybridState.maybe_rebuild_filter", "hybrid.filter_rebuild", None),
    ("repro.index.fingerprint_index", "FingerprintIndex.lookup_many", "index.bulk", None),
    ("repro.index.fingerprint_index", "FingerprintIndex.relocate_many", "index.bulk", None),
    ("repro.storage.store", "ContainerStore.commit", "storage.commit", None),
    ("repro.storage.store", "ContainerStore.read_container", "storage.read", None),
    ("repro.storage.store", "ContainerStore.delete_container", "storage.delete", None),
    ("repro.gc.mark", "MarkStage.run", "gc.mark", None),
    # First call per backup builds that recipe's Bloom filter; later calls
    # are dictionary hits.
    ("repro.core.analyzer", "ReferenceChecker.membership", "analyzer.checker", None),
    ("repro.core.analyzer", "Analyzer.cluster", "analyzer.cluster", _count_analyzer),
    ("repro.core.planner", "Planner.plan", "planner.plan", None),
    ("repro.gc.migration", "partition", "migration.partition", None),
    ("repro.gc.migration", "JournaledCopyForward.migrate_batch", "migration.copyforward", None),
    ("repro.gc.migration", "JournaledCopyForward.finish", "migration.copyforward", None),
    ("repro.core.gccdf", "GCCDFMigration.migrate", "migration.strategy", None),
    ("repro.gc.migration", "NaiveMigration.migrate", "migration.strategy", None),
    ("repro.gc.engine", "MarkSweepGC.collect", "gc.engine", None),
    ("repro.gc.incremental", "IncrementalGC.begin", "incgc.engine", None),
    ("repro.gc.incremental", "IncrementalGC.step", "incgc.engine", None),
    ("repro.gc.incremental", "IncrementalGC.collect", "incgc.engine", None),
    ("repro.restore.engine", "RestoreEngine.restore", "restore", None),
    ("repro.serve.reader", "BackupReader.pread", "serve.pread", None),
    ("repro.mfdedup.engine", "MFDedupService.ingest", "mfdedup.ingest", None),
    ("repro.mfdedup.engine", "MFDedupService.run_gc", "mfdedup.gc", None),
    ("repro.mfdedup.engine", "MFDedupService.restore", "mfdedup.restore", None),
    ("repro.fleet.scheduler", "shard_schedule", "fleet.schedule", None),
    ("repro.fleet.shard", "execute_shard", "fleet.loop", None),
)


class Recorder:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 = root), op id]`` per span.
        self.spans: list[list] = []
        #: Counts taken at the wrapped boundaries (see ``TARGETS`` hooks).
        self.counts: dict[str, float] = {}
        #: Shared request id: the harness bumps it once per op (one
        #: ingest / GC call / restore / pread / fleet run).
        self.op = 0
        self._stack: list[int] = []

    def push(self, name: str) -> None:
        stack = self._stack
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
        stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter()

    def pop(self) -> None:
        end = perf_counter()
        self.spans[self._stack.pop()][2] = end

    @contextmanager
    def span(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` bracketed by a ``name`` span (and its count hook)."""
        push, pop, counts = self.push, self.pop, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            if count is not None:
                count(counts, args[0], result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, child spans subtracted."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def calls(self) -> dict[str, int]:
        """Span count per name."""
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span[0]] = totals.get(span[0], 0) + 1
        return totals

    def dump(self, path) -> None:
        """Write the spans as JSON Lines."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` of a dotted attribute."""
    owner = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr, owner.__dict__[attr]


@contextmanager
def patched(module_name: str, path: str, make_wrapper):
    """Replace one function or method by ``make_wrapper(original)``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name (``from x import f`` binds a second
    reference the defining module's attribute does not reach).
    """
    owner, attr, original = _resolve(module_name, path)
    wrapper = make_wrapper(original)
    sites = [(owner, attr)]
    if "." not in path:
        for name, module in list(sys.modules.items()):
            if module is owner or module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    sites.append((module, key))
    for site, key in sites:
        setattr(site, key, wrapper)
    try:
        yield
    finally:
        for site, key in sites:
            setattr(site, key, original)


@contextmanager
def installed(recorder: Recorder):
    """Wrap every ``TARGETS`` boundary for the duration of the block."""
    with ExitStack() as stack:
        for module_name, path, name, count in TARGETS:
            stack.enter_context(
                patched(
                    module_name,
                    path,
                    lambda fn, name=name, count=count: recorder.wrap(name, fn, count),
                )
            )
        yield recorder
