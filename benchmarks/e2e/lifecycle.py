"""One workload, measured: set-up, passes, checks, metrics.

A *pass* runs the whole backup life cycle once on a fresh service over
the same materialised input:

1. protocol — the paper's §6.1 rotation driven through the public
   ``BackupService`` calls, or one fleet shard through ``run_fleet``;
2. restore rounds — restore-all of every live backup;
3. point reads — a cold phase (working set far larger than the read
   cache) and a hot phase (fits both cache tiers);
4. audit — ``verify_service`` plus byte-count checks (untimed).

Host (wall) time and simulated (``DiskModel``) time are different
quantities: every ``sim_*`` value must repeat exactly for a fixed seed
and the harness asserts that across passes; everything else is host
time on this sandbox, not a device's.
"""

from __future__ import annotations

import faulthandler
import gc
import random
import resource
import signal
import statistics
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro import (
    FleetConfig,
    ServiceOptions,
    SystemConfig,
    dataset,
    make_service,
    run_fleet,
    verify_service,
)
from repro.util.units import KIB, MIB
from repro.workloads import WorkloadCache, materialize_dataset

import spans
from catalog import FLEET_DATASETS, Workload

COLD_WINDOW = 64 * KIB
HOT_WINDOW = 16 * KIB
HOT_REGION = 512 * KIB
#: The ``verify_service`` finding tolerated on fleet rows (see run_pass).
FP_SIZE_COLLISION = " != indexed size "
#: Input generations per run; ``setup_s`` reports their median.
SETUP_REPS = 3


class PassFailed(Exception):
    """A pass could not produce its samples (its errors are in the message)."""


class WatchdogExpired(BaseException):
    """The workload outlived its wall limit (BaseException so that no
    ``except Exception`` between here and the hang can swallow it)."""


@contextmanager
def watchdog(limit_s: float):
    """Raise :class:`WatchdogExpired` in the main thread after
    ``limit_s`` seconds, dumping the stack first."""

    def expire(signum, frame):
        faulthandler.dump_traceback(file=sys.stderr, all_threads=False)
        raise WatchdogExpired(f"wall limit of {limit_s:.0f} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """What the program receives: generated from the seed, nothing else."""

    backups: tuple = ()
    fleet_config: FleetConfig | None = None
    chunk_refs: int = 0
    logical_bytes: int = 0


def generate(workload: Workload, seed: int) -> Inputs:
    """Materialise the workload's input streams (the timed part of set-up)."""
    if not workload.fleet:
        backups = tuple(
            dataset(
                workload.dataset,
                scale=workload.scale,
                num_backups=workload.num_backups,
                seed=seed,
            )
        )
        return Inputs(
            backups=backups,
            chunk_refs=sum(len(spec.chunks) for spec in backups),
            logical_bytes=sum(spec.logical_bytes for spec in backups),
        )
    config = FleetConfig.synthetic(
        num_shards=1,
        approach=workload.approach,
        datasets=FLEET_DATASETS,
        seed=seed,
        **workload.fleet,
    )
    # The shard regenerates these through its own WorkloadCache; they are
    # materialised here so that set-up pays the same generation cost on
    # every row and the ingested byte counts can be checked.
    cache = WorkloadCache()
    sizes: dict[tuple, tuple[int, int]] = {}
    chunk_refs = logical_bytes = 0
    for tenant in config.tenants:
        key = tenant.stream_key()
        if key not in sizes:
            stream = materialize_dataset(*key, cache=cache)
            sizes[key] = (
                sum(len(spec.chunks) for spec in stream),
                sum(spec.logical_bytes for spec in stream),
            )
        chunk_refs += sizes[key][0]
        logical_bytes += sizes[key][1]
    return Inputs(fleet_config=config, chunk_refs=chunk_refs, logical_bytes=logical_bytes)


# ----------------------------------------------------------------------
# Op accounting and timing
# ----------------------------------------------------------------------


class Ops:
    """Attempted/failed op counts; an op that raises (or returns a wrong
    byte count) is failed and the pass continues."""

    def __init__(self, recorder: spans.Recorder | None):
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.op += 1
            recorder.push("op." + kind)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{kind} raised {exc!r}")
            return None
        finally:
            if recorder is not None:
                recorder.pop()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


class OpClock:
    """Host wall per public service op, taken on the service instance.

    ``attach`` replaces ``service.ingest`` / ``service.run_gc`` (and an
    incremental engine's ``begin``/``step``/``collect``) with timing
    wrappers on that one instance, so the same clock reads the ops the
    harness issues itself and the ops ``run_fleet`` issues internally.
    Nested GC entry points (``run_gc`` → ``collect`` → ``step``) are
    charged once, to the outermost call.
    """

    def __init__(self) -> None:
        self.services: list = []
        self.ingest_s = 0.0
        self.ingests: list = []
        self.gc_s = 0.0
        self.gc_reports: list = []
        #: Wall per completed GC cycle (one ``run_gc``, or every increment
        #: of one incremental cycle).
        self.cycle_walls: list[float] = []
        self.step_walls: list[float] = []
        self._cycle_s = 0.0
        self._gc_depth = 0

    def attach(self, service):
        self.services.append(service)
        service.ingest = self._timed_ingest(service.ingest)
        service.run_gc = self._timed_gc(service.run_gc)
        engine = getattr(service, "gc", None)
        if hasattr(engine, "step"):
            engine.begin = self._timed_gc(engine.begin)
            engine.step = self._timed_gc(engine.step, is_step=True)
            engine.collect = self._timed_gc(engine.collect)
        return service

    def _timed_ingest(self, fn):
        def ingest(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.ingest_s += perf_counter() - start
            self.ingests.append(result)
            return result

        return ingest

    def _timed_gc(self, fn, is_step: bool = False):
        def collect(*args, **kwargs):
            outermost = self._gc_depth == 0
            self._gc_depth += 1
            start = perf_counter()
            try:
                report = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._gc_depth -= 1
                if is_step:
                    self.step_walls.append(elapsed)
                if outermost:
                    self.gc_s += elapsed
                    self._cycle_s += elapsed
            if outermost and report is not None:
                self.gc_reports.append(report)
                self.cycle_walls.append(self._cycle_s)
                self._cycle_s = 0.0
            return report

        return collect

    @contextmanager
    def capturing(self):
        """Attach to every service built through ``make_service`` inside
        the block (how the fleet shard's service is reached)."""

        def hook(original):
            def build(*args, **kwargs):
                return self.attach(original(*args, **kwargs))

            return build

        with spans.patched("repro.backup.approaches", "make_service", hook):
            yield


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


def _rotation(workload: Workload, inputs: Inputs, seed: int, clock: OpClock, ops: Ops):
    """The §6.1 protocol up to the final GC: fill the window, then per
    round delete the oldest ``turnover``, collect, ingest the next
    ``turnover``; one last delete + collect."""
    config = SystemConfig.scaled(retained=workload.retained, turnover=workload.turnover)
    service = clock.attach(
        make_service(workload.approach, config, ServiceOptions(), seed=seed)
    )
    for index, spec in enumerate(inputs.backups):
        if index >= workload.retained and (index - workload.retained) % workload.turnover == 0:
            service.delete_oldest(workload.turnover)
            ops.run("gc", service.run_gc)
        ops.run("ingest", service.ingest, spec.chunks, source=spec.source)
    service.delete_oldest(workload.turnover)
    ops.run("gc", service.run_gc)
    return service


def _restore_all(service, live, expected, ops: Ops):
    """One restore-all round; returns ``(wall, reports)``."""
    wall = 0.0
    reports = []
    for backup_id in live:
        start = perf_counter()
        report = ops.run("restore", service.restore, backup_id)
        wall += perf_counter() - start
        if report is None:
            continue
        ops.check(
            report.logical_bytes == expected[backup_id],
            f"restore of backup {backup_id} returned {report.logical_bytes} bytes, "
            f"ingested {expected[backup_id]}",
        )
        reports.append(report)
    return wall, reports


def _point_reads(readers, targets, window: int, ops: Ops):
    """Timed ``pread`` calls; returns ``(wall samples, reports)``."""
    recorder = ops.recorder
    walls: list[float] = []
    reports = []
    for index, offset in targets:
        reader = readers[index]
        ops.attempted += 1
        if recorder is not None:
            recorder.op += 1
            recorder.push("op.pread")
        try:
            start = perf_counter()
            report = reader.pread(offset, window)
            end = perf_counter()
        except Exception as exc:
            ops.fail(f"pread raised {exc!r}")
            continue
        finally:
            if recorder is not None:
                recorder.pop()
        walls.append(end - start)
        reports.append(report)
        ops.check(
            report.bytes_read == min(window, reader.size - offset),
            f"pread({offset}, {window}) of backup {reader.backup_id} served "
            f"{report.bytes_read} bytes",
        )
    return walls, reports


def _hit_rate(reports) -> float:
    chunks = sum(report.num_chunks for report in reports)
    return sum(report.chunk_hits for report in reports) / chunks if chunks else 0.0


def run_pass(workload: Workload, inputs: Inputs, seed: int, recorder=None) -> dict:
    """One life-cycle pass; returns its walls, simulated values, counts."""
    ops = Ops(recorder)
    clock = OpClock()
    rng = random.Random(seed)
    fleet_result = None
    root = recorder.span("pass") if recorder is not None else ExitStack()

    with root:
        # 1. protocol
        started = perf_counter()
        if workload.fleet:
            with clock.capturing():
                fleet_result = ops.run("fleet", run_fleet, inputs.fleet_config, jobs=1)
            if fleet_result is None or len(clock.services) != 1:
                raise PassFailed(f"fleet run failed: {ops.errors}")
            lifecycle_s = perf_counter() - started
            ops.attempted += fleet_result.total_requests
            lifecycle_chunks = fleet_result.chunk_ops
            service = clock.services[0]
        else:
            service = _rotation(workload, inputs, seed, clock, ops)
        live = service.live_backup_ids()
        expected = {result.backup_id: result.logical_bytes for result in clock.ingests}

        # 2. restore rounds (the first is the protocol's restore phase)
        restore_s, first_round = _restore_all(service, live, expected, ops)
        restored_bytes = sum(report.logical_bytes for report in first_round)
        if not workload.fleet:
            lifecycle_s = perf_counter() - started
            lifecycle_chunks = sum(r.num_chunks for r in clock.ingests) + sum(
                r.num_chunks for r in first_round
            )
        for _ in range(workload.restore_rounds - 1):
            wall, reports = _restore_all(service, live, expected, ops)
            restore_s += wall
            restored_bytes += sum(report.logical_bytes for report in reports)

        # 3. point reads
        with ExitStack() as stack:
            readers = [stack.enter_context(service.open_backup(backup_id)) for backup_id in live]
            for reader in readers:
                ops.check(
                    reader.size == expected[reader.backup_id],
                    f"backup {reader.backup_id} opens at {reader.size} bytes",
                )
            cold_targets = []
            for _ in range(workload.cold_reads):
                index = rng.randrange(len(readers))
                span = max(1, readers[index].size - COLD_WINDOW + 1)
                cold_targets.append((index, rng.randrange(span)))
            cold_walls, cold_reports = _point_reads(readers, cold_targets, COLD_WINDOW, ops)

            newest = len(readers) - 1
            region = min(HOT_REGION, readers[newest].size)
            span = max(1, region - HOT_WINDOW + 1)
            hot_targets = [(newest, rng.randrange(span)) for _ in range(workload.hot_reads)]
            # Let the cache fill before timing: one untimed sweep of the region.
            ops.run("pread", readers[newest].pread, 0, region)
            hot_walls, hot_reports = _point_reads(readers, hot_targets, HOT_WINDOW, ops)
        pass_s = perf_counter() - started

    # 4. audit (untimed, and outside the traced region)
    ops.recorder = None
    audit = ops.run("verify", verify_service, service)
    findings = audit.errors if audit is not None else ["no report"]
    collisions = 0
    if workload.fleet:
        # Known defect (README): same-preset tenants emit equal fingerprints
        # with different sizes, which trips this one invariant on any shard.
        collisions = sum(FP_SIZE_COLLISION in finding for finding in findings)
        findings = [finding for finding in findings if FP_SIZE_COLLISION not in finding]
    ops.check(not findings, f"verify_service: {findings[:3]}")
    stats = service.stats()
    ingested = sum(result.logical_bytes for result in clock.ingests)
    ops.check(
        ingested == inputs.logical_bytes == stats.cumulative_logical_bytes,
        f"ingested {ingested} bytes, generated {inputs.logical_bytes}, "
        f"service counted {stats.cumulative_logical_bytes}",
    )
    if not (cold_walls and hot_walls and first_round and clock.gc_reports):
        raise PassFailed(f"a phase of the pass produced no samples: {ops.errors}")

    gc_reports = clock.gc_reports
    ingests = clock.ingests
    ingested_chunks = sum(r.num_chunks for r in ingests)
    cold_sim_ms = [report.read_seconds * 1e3 for report in cold_reports]
    sim = {
        "sim_restore_mib_per_s": sum(r.logical_bytes for r in first_round)
        / sum(r.read_seconds for r in first_round)
        / MIB,
        "sim_gc_s": sum(report.total_seconds for report in gc_reports),
        "read_amplification": statistics.fmean(r.read_amplification for r in first_round),
        "dedup_ratio": stats.dedup_ratio,
        # The simulated latency is a small multiple of one container read,
        # so its percentiles jump by whole containers from seed to seed;
        # the mean is the steady end-to-end figure (percentiles: per layer).
        "sim_pread_cold_ms_mean": statistics.fmean(cold_sim_ms),
    }
    wall = {
        "pass_s": pass_s,
        "lifecycle_chunks_per_s": lifecycle_chunks / lifecycle_s,
        "ingest_chunks_per_s": ingested_chunks / clock.ingest_s,
        "gc_wall_s": clock.gc_s,
        "restore_mib_per_s": restored_bytes / MIB / restore_s,
        "pread_cold_wall_us_p50": percentile(cold_walls, 50) * 1e6,
        "pread_cold_wall_us_p99": percentile(cold_walls, 99) * 1e6,
        "pread_hot_wall_us_p50": percentile(hot_walls, 50) * 1e6,
        "gc.cycle_wall_ms_p50": percentile(clock.cycle_walls, 50) * 1e3,
        "gc.cycle_wall_ms_max": max(clock.cycle_walls) * 1e3,
        "incgc.step_wall_ms_p50": percentile(clock.step_walls, 50) * 1e3 if clock.step_walls else 0.0,
        "incgc.step_wall_ms_max": max(clock.step_walls, default=0.0) * 1e3,
    }

    # Deterministic counts: from the reports and counters the system
    # already keeps (never from spans; those are added by the caller).
    runtime = service.runtime_metrics()
    io = service.disk.stats
    reads = cold_reports + hot_reports
    container_lookups = sum(r.container_hits + r.containers_read for r in reads)
    restore_lookups = sum(r.cache_hits + r.containers_read for r in first_round)
    involved = sum(r.involved_containers for r in gc_reports)
    live_bytes = sum(expected[backup_id] for backup_id in live)
    counts = {
        "workloads.chunk_refs": inputs.chunk_refs,
        "dedup.ingest_calls": len(ingests),
        "dedup.dup_fraction": sum(r.dedup_bytes for r in ingests) / ingested,
        "dedup.rewritten_bytes": sum(r.rewritten_bytes for r in ingests),
        "hybrid.deferred": runtime.get("hybrid.deferred", 0),
        "hybrid.coalesced": runtime.get("hybrid.coalesced", 0),
        "hybrid.useful_ratio": runtime.get("hybrid.coalesced", 0)
        / max(1, runtime.get("hybrid.deferred", 0)),
        "hybrid.neighbor_hit_rate": runtime.get("hybrid.neighbor_hits", 0) / ingested_chunks,
        "index.lookups": runtime.get("index.lookups", 0),
        "index.hit_rate": runtime.get("index.hits", 0) / max(1, runtime.get("index.lookups", 0)),
        "index.probes_per_chunk": runtime.get("index.lookups", 0) / ingested_chunks,
        "index.guard_skip_rate": runtime.get("index.guard_skip_rate", 0.0),
        "storage.bytes_written_per_logical_byte": io.write_bytes / ingested,
        "storage.space_per_live_byte": stats.physical_bytes / live_bytes,
        "gc.rounds": len(gc_reports),
        "gc.mark_sim_s": sum(r.mark_seconds for r in gc_reports),
        "analyzer.sim_s": sum(r.analyze_seconds for r in gc_reports),
        "migration.migrated_chunks": sum(r.migrated_chunks for r in gc_reports),
        "migration.migrated_bytes": sum(r.migrated_bytes for r in gc_reports),
        "migration.reclaimed_bytes": sum(r.reclaimed_bytes for r in gc_reports),
        "migration.useful_ratio": sum(r.reclaimed_containers for r in gc_reports) / max(1, involved),
        "migration.sim_read_s": sum(r.sweep_read_seconds for r in gc_reports),
        "migration.sim_write_s": sum(r.sweep_write_seconds for r in gc_reports),
        "incgc.cycles": len(gc_reports) if clock.step_walls else 0,
        "incgc.steps": len(clock.step_walls),
        "restore.backups": len(first_round),
        "restore.containers_read": sum(r.containers_read for r in first_round),
        "restore.cache_hit_rate": sum(r.cache_hits for r in first_round) / max(1, restore_lookups),
        "serve.preads": len(reads),
        "serve.chunk_hit_rate_cold": _hit_rate(cold_reports),
        "serve.chunk_hit_rate_hot": _hit_rate(hot_reports),
        "serve.container_hit_rate": sum(r.container_hits for r in reads) / max(1, container_lookups),
        "serve.evictions": runtime.get("read_cache.chunk_evictions", 0)
        + runtime.get("read_cache.container_evictions", 0),
        "serve.device_bytes_per_logical_byte": sum(r.container_bytes_read for r in reads)
        / sum(r.bytes_read for r in reads),
        "serve.sim_pread_cold_ms_p50": percentile(cold_sim_ms, 50),
        "serve.sim_pread_cold_ms_p99": percentile(cold_sim_ms, 99),
        "mfdedup.migrated_fraction": getattr(service, "migration_fraction", 0.0),
        "simio.seeks": io.read_ops + io.write_ops,
        "simio.bytes_read": io.read_bytes,
        "simio.bytes_written": io.write_bytes,
        "fleet.requests": 0,
        "fleet.fp_size_collisions": collisions,
        "fleet.gc_skipped": 0,
        "fleet.ingest_stall_sim_p99": 0.0,
        "workloads.cache_hit_rate": 0.0,
    }
    if fleet_result is not None:
        counters = fleet_result.metrics.get("counters", {})
        hits = counters.get("runtime.workload_cache.hits", 0)
        misses = counters.get("runtime.workload_cache.misses", 0)
        counts.update(
            {
                "fleet.requests": fleet_result.total_requests,
                "fleet.gc_skipped": counters.get("fleet.requests.gc_skipped", 0),
                "fleet.ingest_stall_sim_p99": fleet_result.ingest_stall_quantiles()["p99"],
                "workloads.cache_hit_rate": hits / max(1, hits + misses),
            }
        )
        ops.check(
            counters.get("gc.rounds", 0) == len(gc_reports)
            and counters.get("ingest.logical_bytes", 0) == ingested,
            "fleet counters disagree with the ops observed on its service",
        )
    return {
        "wall": wall,
        "sim": sim,
        "counts": counts,
        "samples": {
            "pread_cold": len(cold_walls),
            "pread_hot": len(hot_walls),
            "restores": len(live) * workload.restore_rounds,
            "gc_cycles": len(gc_reports),
            "ingests": len(ingests),
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
    }


# ----------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ----------------------------------------------------------------------

#: per-layer metric → span names whose self times it sums.
SELF_TIME_METRICS = {
    "workloads.inrun_gen_s": ("workloads.gen",),
    "dedup.ingest_self_s": ("dedup.ingest",),
    "hybrid.rededup_self_s": ("hybrid.rededup",),
    "hybrid.filter_rebuild_self_s": ("hybrid.filter_rebuild",),
    "index.bulk_self_s": ("index.bulk",),
    "storage.commit_self_s": ("storage.commit",),
    "storage.read_self_s": ("storage.read",),
    "storage.delete_self_s": ("storage.delete",),
    "gc.mark_self_s": ("gc.mark",),
    "gc.engine_self_s": ("gc.engine",),
    "analyzer.checker_build_self_s": ("analyzer.checker",),
    "analyzer.cluster_self_s": ("analyzer.cluster",),
    "planner.plan_self_s": ("planner.plan",),
    "migration.partition_self_s": ("migration.partition",),
    "migration.copyforward_self_s": ("migration.copyforward",),
    "migration.strategy_self_s": ("migration.strategy",),
    "incgc.engine_self_s": ("incgc.engine",),
    "restore.self_s": ("restore",),
    "serve.pread_self_s": ("serve.pread",),
    "mfdedup.ingest_self_s": ("mfdedup.ingest",),
    "mfdedup.gc_self_s": ("mfdedup.gc",),
    "mfdedup.restore_self_s": ("mfdedup.restore",),
    "fleet.schedule_self_s": ("fleet.schedule",),
    "fleet.loop_self_s": ("fleet.loop",),
    # What no layer boundary covers: the harness's own loops and the
    # service facades between an op and the first layer it calls.
    "trace.unattributed_s": ("pass", "op.ingest", "op.gc", "op.restore", "op.pread", "op.fleet"),
}


def layer_metrics(recorder: spans.Recorder) -> dict[str, float]:
    """Self times and boundary counts of one traced pass."""
    self_times = recorder.self_times()
    known = {name for names in SELF_TIME_METRICS.values() for name in names}
    stray = set(self_times) - known
    if stray:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(stray)}")
    calls = recorder.calls()
    metrics = {
        metric: sum(self_times.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    metrics.update(
        {
            "storage.containers_written": calls.get("storage.commit", 0),
            "storage.containers_read": calls.get("storage.read", 0),
            "storage.containers_deleted": calls.get("storage.delete", 0),
            "gc.mark_calls": calls.get("gc.mark", 0),
            "analyzer.probes": recorder.counts.get("analyzer.probes", 0),
            "analyzer.clusters": recorder.counts.get("analyzer.clusters", 0),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

#: Wall metrics reported per run as the median over passes.
WALL_END_TO_END = (
    "lifecycle_chunks_per_s",
    "ingest_chunks_per_s",
    "gc_wall_s",
    "restore_mib_per_s",
    "pread_cold_wall_us_p50",
    "pread_cold_wall_us_p99",
    "pread_hot_wall_us_p50",
)
WALL_PER_LAYER = (
    "gc.cycle_wall_ms_p50",
    "gc.cycle_wall_ms_max",
    "incgc.step_wall_ms_p50",
    "incgc.step_wall_ms_max",
)


def nominal_ops(workload: Workload) -> int:
    """A lower bound on one pass's op count (ingests + point reads +
    audit), used when the watchdog fires before any pass completed."""
    backups = (
        workload.fleet["num_tenants"] * workload.fleet["backups_per_tenant"]
        if workload.fleet
        else workload.num_backups
    )
    return backups + workload.cold_reads + workload.hot_reads + 1


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    import_s: float,
    limit_s: float,
    enforce_checks: bool = True,
    spans_path=None,
) -> dict:
    """Set up, run passes for ``seconds``, check, and reduce to metrics.

    Untraced: passes repeat until ``seconds`` have elapsed and the
    end-to-end metrics are medians over them.  Traced: untraced and
    traced passes alternate for the same time; per-layer self times are
    medians over the traced ones and ``trace.overhead_ratio`` is the ratio
    of the two medians of pass wall.
    """
    attempted = failed = 0
    errors: list[str] = []
    plain: list[dict] = []
    traced_passes: list[dict] = []
    layers: list[dict] = []
    gen_walls: list[float] = []
    recorder = None
    aborted = False
    try:
        with watchdog(limit_s):
            for _ in range(SETUP_REPS):
                inputs = None
                gc.collect()
                start = perf_counter()
                inputs = generate(workload, seed)
                gen_walls.append(perf_counter() - start)

            started = perf_counter()
            while not plain or perf_counter() - started < seconds:
                gc.collect()
                plain.append(run_pass(workload, inputs, seed))
                if traced:
                    gc.collect()
                    recorder = spans.Recorder()
                    with spans.installed(recorder):
                        traced_passes.append(run_pass(workload, inputs, seed, recorder))
                    layers.append(layer_metrics(recorder))
    except (WatchdogExpired, PassFailed) as exc:
        aborted = True
        done = plain[0]["attempted"] if plain else nominal_ops(workload)
        failed += done
        attempted += done
        errors.append(f"{exc}; the pass in flight counts as {done} failed ops")

    if spans_path and layers:
        recorder.dump(spans_path)
    passes = plain + traced_passes
    for result in passes:
        attempted += result["attempted"]
        failed += result["failed"]
        errors.extend(result["errors"])
    if not passes:
        return {
            "workload": workload.name,
            "seed": seed,
            "correct": False,
            "attempted": max(1, attempted),
            "failed": max(1, failed),
            "errors": errors,
            "passes": 0,
        }

    first = passes[0]
    for result in passes[1:]:
        if result["sim"] != first["sim"] or result["counts"] != first["counts"]:
            failed += 1
            errors.append("passes of one run disagree on a simulated value or a count")
            break

    end_to_end = {"setup_s": import_s + statistics.median(gen_walls)}
    for name in WALL_END_TO_END:
        end_to_end[name] = statistics.median(result["wall"][name] for result in plain)
    end_to_end["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB
    end_to_end.update(first["sim"])

    counts = dict(first["counts"])
    per_layer = None
    if layers:
        per_layer = dict(counts)
        per_layer["workloads.gen_s"] = statistics.median(gen_walls)
        for name in layers[0]:
            per_layer[name] = statistics.median(layer[name] for layer in layers)
        for name in WALL_PER_LAYER:
            per_layer[name] = statistics.median(result["wall"][name] for result in plain)
        per_layer["trace.overhead_ratio"] = statistics.median(
            result["wall"]["pass_s"] for result in traced_passes
        ) / statistics.median(result["wall"]["pass_s"] for result in plain)
        counts.update(
            {name: per_layer[name] for name in ("analyzer.probes", "analyzer.clusters")}
        )

    exercised = []
    for check in workload.checks:
        if check.traced_only and per_layer is None:
            continue
        exercised.append(
            {
                "check": str(check),
                "value": counts[check.metric],
                "ok": check.holds(counts),
            }
        )
    exercised.append({"check": "ops_failed == 0", "value": failed, "ok": failed == 0})
    vacuous = enforce_checks and [row["check"] for row in exercised if not row["ok"]]
    if vacuous:
        errors.append(f"preconditions not met: {vacuous}")

    return {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0 and not aborted and not vacuous,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "pass_s": statistics.median(result["wall"]["pass_s"] for result in plain),
        "samples": first["samples"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "exercised": exercised,
    }
