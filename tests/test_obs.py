"""The observability layer: tracers, phase scopes, metrics, trace reports.

Covers the three guarantees the layer makes:

* **Null by default** — an unconfigured service carries :data:`NULL_TRACER`
  and emits nothing; attaching a recorder (even an empty, falsy one) turns
  every instrumented site on.
* **Deterministic events** — the same seed and config produce the same
  event stream, whichever process (or pool worker) ran it; merged matrix
  traces are byte-identical across ``--jobs`` values.
* **Self-contained traces** — the Fig. 14 GC breakdown re-derives from the
  trace file alone, and metrics payloads survive the ``to_dict``/``from_dict``
  round trip pool workers ship results through.
"""

from __future__ import annotations

import json

import pytest

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.backup.driver import RotationResult
from repro.backup.service import ServiceStats
from repro.experiments import clear_cache
from repro.experiments.common import run_protocol
from repro.experiments.matrix import cells_for, run_matrix
from repro.obs.metrics import MetricsRegistry, rotation_metrics
from repro.obs.report import collect_cells, gc_breakdown
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    TraceRecorder,
    event_line,
    read_trace,
    write_trace,
)
from repro.simio.disk import DiskModel
from repro.simio.stats import IOStats


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


class TestTracerBasics:
    def test_base_tracer_is_abstract_in_spirit(self):
        with pytest.raises(NotImplementedError):
            Tracer().emit("x", sim_time=0.0)

    def test_null_tracer_is_disabled_and_silent(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("ingest", sim_time=1.0, fields={"a": 1}) is None

    def test_services_default_to_null_tracer(self):
        for approach in ("naive", "mfdedup"):
            service = make_service(approach)
            assert service.tracer is NULL_TRACER
            assert service.disk.tracer is NULL_TRACER

    def test_empty_recorder_still_attaches(self):
        """Regression: an empty TraceRecorder is falsy (len == 0); the
        wiring must test for None, not truthiness."""
        recorder = TraceRecorder()
        assert not recorder  # the trap
        for approach in ("naive", "mfdedup"):
            service = make_service(approach, options=ServiceOptions(tracer=recorder))
            assert service.tracer is recorder
            assert service.disk.tracer is recorder

    def test_recorder_assigns_dense_sequence_ids(self):
        recorder = TraceRecorder()
        recorder.emit("a", sim_time=0.0)
        recorder.emit("b", sim_time=1.0, duration=0.5, io={"read_ops": 1})
        assert [e.seq for e in recorder.events] == [0, 1]
        assert len(recorder) == 2

    def test_recorder_feeds_metrics(self):
        metrics = MetricsRegistry()
        recorder = TraceRecorder(metrics=metrics)
        recorder.emit("container.read", sim_time=0.0, fields={"bytes": 10})
        recorder.emit("restore", sim_time=0.0, duration=2.0, io={"read_ops": 1})
        recorder.emit("restore", sim_time=2.0, duration=4.0, io={"read_ops": 1})
        assert metrics.counter("events.container.read") == 1
        assert metrics.counter("events.restore") == 2
        # Only io-carrying spans observe durations.
        assert metrics.histogram("span_seconds.container.read") is None
        assert metrics.histogram("span_seconds.restore") == {
            "count": 2,
            "sum": 6.0,
            "min": 2.0,
            "max": 4.0,
        }

    def test_event_round_trips_through_dict(self):
        event = TraceEvent(
            seq=3, name="gc.sweep", sim_time=1.5, duration=0.25,
            io={"read_ops": 2}, fields={"round_index": 0},
        )
        assert TraceEvent.from_dict(event.to_dict()) == event
        point = TraceEvent(seq=0, name="container.read", sim_time=0.0)
        assert point.to_dict().get("io") is None
        assert TraceEvent.from_dict(point.to_dict()) == point

    def test_write_read_trace_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit("ingest", sim_time=0.0, duration=1.0,
                      io={"write_ops": 3}, fields={"backup_id": 0})
        recorder.emit("container.write", sim_time=1.0, fields={"bytes": 42})
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, recorder.to_dicts()) == 2
        assert list(read_trace(path)) == recorder.to_dicts()
        # Canonical line form: sorted keys, compact separators.
        first = path.read_text().splitlines()[0]
        assert first == event_line(recorder.to_dicts()[0])
        assert json.loads(first) == recorder.to_dicts()[0]


class TestIOStatsAndPhases:
    def test_diff_subtracts_counterwise(self):
        disk = DiskModel()
        disk.read(100)
        before = disk.stats.snapshot()
        disk.read(50)
        disk.write(25)
        delta = disk.stats.diff(before)
        assert delta.read_ops == 1
        assert delta.read_bytes == 50
        assert delta.write_ops == 1
        assert delta.write_bytes == 25
        assert delta.total_seconds == pytest.approx(
            disk.stats.total_seconds - before.total_seconds
        )

    def test_diff_is_the_only_delta_primitive(self):
        stats = IOStats(read_ops=5, read_bytes=500)
        earlier = IOStats(read_ops=2, read_bytes=200)
        assert stats.diff(earlier) == IOStats(read_ops=3, read_bytes=300)
        assert not hasattr(stats, "since")  # the deprecated alias is gone

    def test_to_dict_lists_all_six_counters(self):
        data = IOStats(read_ops=1, write_ops=2).to_dict()
        assert set(data) == {
            "read_ops", "read_bytes", "read_seconds",
            "write_ops", "write_bytes", "write_seconds",
        }

    def test_phase_scope_measures_and_emits(self):
        recorder = TraceRecorder()
        disk = DiskModel(tracer=recorder)
        disk.read(10)
        start = disk.sim_time
        with disk.phase("restore") as ph:
            disk.read(100)
            ph.annotate(backup_id=7)
        assert ph.delta.read_bytes == 100
        (event,) = recorder.events
        assert event.name == "restore"
        assert event.sim_time == pytest.approx(start)
        assert event.duration == pytest.approx(ph.delta.total_seconds)
        assert event.io == ph.delta.to_dict()
        assert event.fields == {"backup_id": 7}

    def test_phase_scope_with_null_tracer_is_pure_accounting(self):
        disk = DiskModel()
        with disk.phase("ingest") as ph:
            disk.write(64)
            ph.annotate(ignored=True)
        assert ph.delta.write_bytes == 64
        assert ph.fields is None  # annotate() allocated nothing

    def test_phase_scope_suppresses_event_on_exception(self):
        recorder = TraceRecorder()
        disk = DiskModel(tracer=recorder)
        with pytest.raises(RuntimeError):
            with disk.phase("ingest"):
                disk.write(1)
                raise RuntimeError("boom")
        assert recorder.events == []


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        registry.observe("h", 2.0)
        registry.observe("h", 6.0)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0
        assert registry.histogram("h") == {"count": 2, "sum": 8.0, "min": 2.0, "max": 6.0}
        assert registry.mean("h") == 4.0
        assert registry.mean("missing") == 0.0
        assert len(registry) == 2

    def test_merge_and_round_trip(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("n", 1)
        left.observe("h", 1.0)
        right.count("n", 2)
        right.count("only_right", 3)
        right.observe("h", 5.0)
        left.merge(right)
        assert left.counter("n") == 3
        assert left.counter("only_right") == 3
        assert left.histogram("h") == {"count": 2, "sum": 6.0, "min": 1.0, "max": 5.0}
        again = MetricsRegistry.from_dict(json.loads(json.dumps(left.to_dict())))
        assert again.to_dict() == left.to_dict()


class TestServiceStats:
    def test_dedup_ratio_conventions(self):
        assert ServiceStats(100, 50, 50).dedup_ratio == 2.0
        assert ServiceStats(0, 0, 0).dedup_ratio == 1.0
        assert ServiceStats(100, 0, 0).dedup_ratio == float("inf")

    def test_to_dict_includes_derived_ratio(self):
        data = ServiceStats(100, 25, 25).to_dict()
        assert data["dedup_ratio"] == 4.0
        assert data["cumulative_logical_bytes"] == 100

    def test_deprecated_shims_delegate_to_stats(self):
        service = make_service("naive")
        service.ingest([])
        stats = service.stats()
        assert service.cumulative_logical_bytes == stats.cumulative_logical_bytes
        assert service.cumulative_stored_bytes == stats.cumulative_stored_bytes
        assert service.physical_bytes == stats.physical_bytes
        assert service.dedup_ratio == stats.dedup_ratio

    def test_rotation_metrics_is_pure_over_report_round_trip(self):
        result = run_protocol("gccdf", "web", "quick")
        assert result.metrics  # populated by the driver
        rebuilt = RotationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.metrics == result.metrics
        # Recomputing from the round-tripped reports changes nothing.
        assert rotation_metrics(rebuilt) == rotation_metrics(result)
        assert result.metrics["counters"]["gc.rounds"] == len(result.gc_reports)
        assert result.metrics["counters"]["restore.backups"] == len(result.restore_reports)

    def test_metrics_survive_the_worker_round_trip(self):
        result = run_protocol("naive", "web", "quick")
        loaded = RotationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert loaded is not result
        assert loaded.metrics == result.metrics
        assert loaded.metrics["counters"]["ingest.backups"] == len(result.ingest_reports)


class TestTraceDeterminism:
    def test_same_run_same_events(self):
        streams = []
        for _ in range(2):
            clear_cache()
            recorder = TraceRecorder()
            run_protocol("gccdf", "web", "quick", use_cache=False, tracer=recorder)
            streams.append(recorder.to_dicts())
        assert streams[0] == streams[1]
        names = {event["name"] for event in streams[0]}
        assert {"ingest", "gc.mark", "gc.sweep", "restore", "container.write"} <= names

    def test_matrix_trace_identical_across_jobs(self, tmp_path):
        """The acceptance guard: --jobs 1 and --jobs 2 merge to the same bytes."""
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        run_matrix(["fig02"], "quick", jobs=1, trace_path=serial)
        clear_cache()
        run_matrix(["fig02"], "quick", jobs=2, trace_path=pooled)
        assert serial.read_bytes() == pooled.read_bytes()
        headers = [e for e in read_trace(serial) if e["name"] == "cell"]
        assert len(headers) == len(cells_for(["fig02"], "quick"))

    def test_tracing_bypasses_the_memo(self, tmp_path):
        warm = run_matrix(["fig02"], "quick", jobs=1)
        assert warm.executed == len(warm.outcomes)
        traced = run_matrix(["fig02"], "quick", jobs=1, trace_path=tmp_path / "t.jsonl")
        # Every cell re-executed (memoised results carry no events) ...
        assert traced.executed == len(traced.outcomes)
        assert traced.memo_hits == 0
        # ... and the trace is not headers-only.
        events = list(read_trace(tmp_path / "t.jsonl"))
        assert sum(1 for e in events if e["name"] != "cell") > 0
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestTraceReport:
    def test_breakdown_from_trace_matches_gc_reports(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        run_matrix(["fig02"], "quick", jobs=1, trace_path=trace)
        cells = collect_cells(read_trace(trace))
        by_key = {(c.approach, c.dataset): c for c in cells}
        for cell in cells_for(["fig02"], "quick"):
            result = run_protocol(cell.approach, cell.dataset, "quick")
            stages = by_key[(cell.approach, cell.dataset)].stages
            assert stages.mark == pytest.approx(
                sum(r.mark_seconds for r in result.gc_reports)
            )
            assert stages.sweep_write == pytest.approx(
                sum(r.sweep_write_seconds for r in result.gc_reports)
            )
        text = gc_breakdown(read_trace(trace))
        assert "GC time breakdown from trace" in text

    def test_alias_cells_inherit_representative_totals(self):
        events = [
            {"seq": 0, "name": "cell", "sim_time": 0.0, "duration": 0.0,
             "fields": {"label": "a/web@quick", "approach": "a",
                        "dataset": "web", "scale": "quick"}},
            {"seq": 1, "name": "gc.mark", "sim_time": 0.0, "duration": 2.0,
             "fields": {}, "io": {}},
            {"seq": 2, "name": "cell", "sim_time": 0.0, "duration": 0.0,
             "fields": {"label": "a/web@quick [x=1]", "approach": "a",
                        "dataset": "web", "scale": "quick",
                        "alias_of": "a/web@quick"}},
        ]
        plain, alias = collect_cells(events)
        assert alias.alias_of == "a/web@quick"
        assert alias.stages is plain.stages
        assert alias.stages.mark == 2.0
