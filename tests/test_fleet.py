"""The sharded multi-tenant fleet: placement, scheduling, determinism.

The headline guard is jobs-count independence: a fleet executed over a
process pool must serialize byte-identically (``canonical_json`` and the
merged JSONL trace) to a serial in-process run.  Everything the fleet
serializes is a pure function of its :class:`FleetConfig`, so the guard is
a straight byte comparison, no tolerance.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.fleet import (
    DEDUP_DOMAINS,
    FleetConfig,
    FleetResult,
    ShardResult,
    TenantSpec,
    plan_shards,
    run_fleet,
    run_shard,
    shard_of,
    shard_schedule,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.scheduler import KIND_PRIORITY
from repro.workloads import WorkloadCache, dataset, materialize_dataset


def small_fleet(**overrides) -> FleetConfig:
    params = dict(
        num_tenants=12,
        num_shards=3,
        workload_scale=0.02,
        backups_per_tenant=6,
        stream_pool=4,
        retained=3,
        turnover=1,
    )
    num_tenants = params.pop("num_tenants")
    num_shards = params.pop("num_shards")
    for key in list(overrides):
        if key in ("num_tenants", "num_shards"):
            raise ValueError("override via params instead")
    return FleetConfig.synthetic(num_tenants, num_shards, **params).with_overrides(
        **overrides
    )


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestPlacement:
    def test_stable_across_calls(self):
        assert shard_of("t00000", 8) == shard_of("t00000", 8)

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigError):
            shard_of("t", 0)

    def test_partition_is_exact_and_order_preserving(self):
        config = small_fleet()
        groups = config.shard_tenants()
        assert len(groups) == config.num_shards
        flattened = [t for group in groups for t in group]
        assert sorted(t.name for t in flattened) == sorted(
            t.name for t in config.tenants
        )
        order = {t.name: i for i, t in enumerate(config.tenants)}
        for group in groups:
            indices = [order[t.name] for t in group]
            assert indices == sorted(indices)
        for shard_id, group in enumerate(groups):
            for tenant in group:
                assert shard_of(tenant.name, config.num_shards) == shard_id

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=64, max_value=96),
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            max_size=8,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_placement_is_balanced(self, num_shards, per_shard, prefix):
        """The documented bound: T ≥ 64·S tenants ⇒ every shard holds
        between T/(2S) and 2T/S of them, for any naming scheme."""
        num_tenants = per_shard * num_shards
        counts = [0] * num_shards
        for i in range(num_tenants):
            counts[shard_of(f"{prefix}{i:05d}", num_shards)] += 1
        lo = num_tenants / (2 * num_shards)
        hi = 2 * num_tenants / num_shards
        assert all(lo <= count <= hi for count in counts), counts


class TestConfigValidation:
    def test_duplicate_tenant_names_rejected(self):
        tenant = TenantSpec("dup", "web", 0.02, 4)
        with pytest.raises(ConfigError, match="duplicate"):
            FleetConfig(tenants=(tenant, tenant)).validate()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError, match="dataset"):
            FleetConfig(tenants=(TenantSpec("t", "nope", 0.02, 4),)).validate()

    def test_unknown_approach_and_domain_rejected(self):
        with pytest.raises(ConfigError, match="approach"):
            small_fleet(approach="zfs")
        with pytest.raises(ConfigError, match="dedup_domain"):
            small_fleet(dedup_domain="galaxy")

    def test_turnover_bounded_by_retention(self):
        with pytest.raises(ConfigError, match="turn over"):
            small_fleet(retained=2, turnover=3)

    def test_synthetic_stream_pool_correlates_tenants(self):
        config = small_fleet()
        keys = {t.stream_key() for t in config.tenants}
        # 12 tenants over 4 datasets × pool of 4 slots → lcm(4,4)=4 combos.
        assert len(keys) < len(config.tenants)

    def test_tenant_spec_round_trip(self):
        spec = TenantSpec("t1", "web", 0.05, 8, seed=99)
        assert TenantSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------


class TestSchedule:
    def schedule(self, config: FleetConfig, shard_id: int = 0):
        tenants = config.shard_tenants()[shard_id]
        return tenants, shard_schedule(
            tenants,
            config.retained,
            config.turnover,
            config.backup_period,
            config.gc_period,
            config.seed,
        )

    def test_pure_function_of_inputs(self):
        config = small_fleet()
        _, first = self.schedule(config)
        _, second = self.schedule(config)
        assert first == second

    def test_totally_ordered(self):
        _, schedule = self.schedule(small_fleet())
        keys = [request.sort_key() for request in schedule]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_backup_scheduled_once(self):
        tenants, schedule = self.schedule(small_fleet())
        ingests = [r for r in schedule if r.kind == "ingest"]
        expected = {
            (spec.name, k) for spec in tenants for k in range(spec.num_backups)
        }
        assert {(r.tenant, r.backup_index) for r in ingests} == expected

    def test_gc_epochs_and_final_epoch(self):
        config = small_fleet()
        _, schedule = self.schedule(config)
        gc_times = [r.time for r in schedule if r.kind == "gc"]
        horizon = max(r.time for r in schedule if r.kind == "rotate")
        assert gc_times[-1] == horizon
        for at in gc_times[:-1]:
            assert at % config.gc_period == 0

    def test_restores_after_final_gc(self):
        _, schedule = self.schedule(small_fleet())
        last_gc = max(r.time for r in schedule if r.kind == "gc")
        assert all(
            r.time > last_gc for r in schedule if r.kind == "restore"
        )

    def test_kind_priority_breaks_ties(self):
        assert (
            KIND_PRIORITY["rotate"]
            < KIND_PRIORITY["gc"]
            < KIND_PRIORITY["ingest"]
            < KIND_PRIORITY["restore"]
        )


# ----------------------------------------------------------------------
# Execution determinism — the tentpole guard
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        """jobs=2 over a process pool ≡ jobs=1 in-process: identical
        canonical JSON *and* identical merged trace bytes."""
        config = small_fleet()
        serial_trace = tmp_path / "serial.jsonl"
        pooled_trace = tmp_path / "pooled.jsonl"
        serial = run_fleet(config, jobs=1, trace_path=serial_trace)
        pooled = run_fleet(config, jobs=2, trace_path=pooled_trace)
        assert serial.canonical_json() == pooled.canonical_json()
        assert serial_trace.read_bytes() == pooled_trace.read_bytes()
        assert serial.jobs == 1 and pooled.jobs == 2

    def test_wall_clock_and_jobs_not_serialized(self):
        result = run_fleet(small_fleet(), jobs=1)
        assert result.wall_seconds > 0
        data = result.to_dict()
        text = json.dumps(data)
        assert "wall_seconds" not in text and '"jobs"' not in text
        round_tripped = FleetResult.from_dict(data)
        assert round_tripped.canonical_json() == result.canonical_json()

    def test_run_shard_is_pure(self):
        task = plan_shards(small_fleet())[0]
        assert task.tenants  # shard 0 must be non-empty for this to bite
        first = run_shard(task)
        second = run_shard(task)
        assert first.to_dict() == second.to_dict()
        assert ShardResult.from_dict(first.to_dict()).to_dict() == first.to_dict()

    def test_trace_merges_in_shard_id_order(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        run_fleet(small_fleet(), jobs=2, trace_path=trace)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))
        headers = [e for e in events if e["name"] == "shard"]
        assert [h["fields"]["shard_id"] for h in headers] == [0, 1, 2]


# ----------------------------------------------------------------------
# Fleet semantics
# ----------------------------------------------------------------------


class TestFleetSemantics:
    def test_every_request_accounted(self):
        config = small_fleet()
        result = run_fleet(config, jobs=1)
        scheduled = sum(
            len(
                shard_schedule(
                    tenants,
                    config.retained,
                    config.turnover,
                    config.backup_period,
                    config.gc_period,
                    config.seed,
                )
            )
            for tenants in config.shard_tenants()
            if tenants
        )
        executed = result.total_requests
        # gc_skipped epochs are counted under their own key, so executed
        # request counts (incl. skips) exactly cover the schedule.
        assert executed == scheduled
        ingests = sum(s.requests.get("ingest", 0) for s in result.shards)
        assert ingests == sum(t.num_backups for t in config.tenants)

    def test_shared_domain_dedups_across_tenants(self):
        shared = run_fleet(small_fleet(dedup_domain="shared"), jobs=1)
        isolated = run_fleet(small_fleet(dedup_domain="tenant"), jobs=1)
        # stream_pool makes tenants share streams, so the shared domain
        # must strictly beat per-tenant isolation on dedup ratio.
        assert shared.dedup_ratio > isolated.dedup_ratio
        assert shared.canonical_json() != isolated.canonical_json()

    def test_tenant_domain_builds_one_service_per_tenant(self):
        result = run_fleet(small_fleet(dedup_domain="tenant"), jobs=1)
        counters = result.metrics["counters"]
        assert counters["fleet.services"] == result.num_tenants
        shared = run_fleet(small_fleet(), jobs=1)
        assert shared.metrics["counters"]["fleet.services"] == shared.num_shards

    def test_tenant_summaries_track_rotation(self):
        config = small_fleet()
        result = run_fleet(config, jobs=1)
        summaries = {
            name: summary
            for shard in result.shards
            for name, summary in shard.tenant_summaries.items()
        }
        assert set(summaries) == {t.name for t in config.tenants}
        for tenant in config.tenants:
            summary = summaries[tenant.name]
            assert summary["backups_ingested"] == tenant.num_backups
            assert summary["live_backups"] <= config.retained
            assert summary["backups_restored"] == summary["live_backups"]

    def test_aggregates_read_off_metrics(self):
        result = run_fleet(small_fleet(), jobs=1)
        assert result.dedup_ratio > 1.0
        assert result.mean_read_amplification >= 1.0
        assert result.restore_speed > 0
        assert result.chunk_ops > 0
        assert "dedup" in result.summary()

    def test_empty_shards_are_tolerated(self):
        # 1 tenant over 4 shards leaves 3 shards empty; the run must still
        # produce 4 shard results and merge cleanly at any job count.
        config = FleetConfig.synthetic(
            1, 4, workload_scale=0.02, backups_per_tenant=4, retained=2, turnover=1
        )
        serial = run_fleet(config, jobs=1)
        pooled = run_fleet(config, jobs=2)
        assert len(serial.shards) == 4
        assert serial.canonical_json() == pooled.canonical_json()


# ----------------------------------------------------------------------
# Workload-stream memoization (satellite)
# ----------------------------------------------------------------------


class TestWorkloadCache:
    def test_hit_and_miss_accounting(self):
        cache = WorkloadCache()
        first = cache.materialize("web", 0.02, 4, seed=7)
        again = cache.materialize("web", 0.02, 4, seed=7)
        other = cache.materialize("web", 0.02, 4, seed=8)
        assert first is again and first is not other
        assert cache.hits == 1 and cache.misses == 2
        assert cache.counters() == {
            "workload_cache.hits": 1,
            "workload_cache.misses": 2,
        }
        assert len(cache) == 2

    def test_materialize_matches_dataset(self):
        cache = WorkloadCache()
        stream = materialize_dataset("web", 0.02, 4, seed=7, cache=cache)
        plain = dataset("web", scale=0.02, num_backups=4, seed=7)
        assert [b.source for b in stream] == [b.source for b in plain]
        assert cache.misses == 1

    def test_fleet_counters_follow_stream_pool(self):
        result = run_fleet(small_fleet(), jobs=1)
        counters = result.metrics["counters"]
        hits = counters["runtime.workload_cache.hits"]
        misses = counters["runtime.workload_cache.misses"]
        assert hits + misses == result.num_tenants
        assert misses < result.num_tenants  # pool slots shared within a shard


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_smoke_with_out_json(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        assert (
            fleet_main(
                [
                    "--preset", "quick",
                    "--tenants", "6",
                    "--shards", "2",
                    "--backups", "4",
                    "--workload-scale", "0.02",
                    "--jobs", "1",
                    "--verbose",
                    "--out", str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "fleet dedup ratio:" in captured.out
        assert "shard 0:" in captured.out
        data = json.loads(out.read_text())
        assert data["num_tenants"] == 6
        assert len(data["shards"]) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            fleet_main(["--jobs", "0"])
        with pytest.raises(SystemExit):
            fleet_main(["--datasets", "web,unknown"])

    def test_domains_constant_matches_cli_choices(self):
        assert DEDUP_DOMAINS == ("shared", "tenant")


# ----------------------------------------------------------------------
# Incremental GC mode
# ----------------------------------------------------------------------


class TestIncrementalFleet:
    def test_gc_step_requests_only_in_incremental_mode(self):
        tenants = (TenantSpec("a", "web", 0.02, 6),)
        stw = shard_schedule(tenants, 3, 1, 1.0, 4.0, 7)
        inc = shard_schedule(
            tenants, 3, 1, 1.0, 4.0, 7, gc_mode="incremental", gc_step_period=0.5
        )
        assert all(request.kind != "gc_step" for request in stw)
        steps = [request for request in inc if request.kind == "gc_step"]
        assert steps
        # Stop-the-world schedules are bit-for-bit unaffected by the mode:
        # stripping the steps recovers the stw schedule exactly.
        assert [request for request in inc if request.kind != "gc_step"] == list(stw)
        # Steps never collide with an epoch instant (the epoch advances the
        # cycle itself) and always fall between rotate/gc and ingest.
        gc_times = {request.time for request in inc if request.kind == "gc"}
        assert all(request.time not in gc_times for request in steps)
        assert (
            KIND_PRIORITY["gc"]
            < KIND_PRIORITY["gc_step"]
            < KIND_PRIORITY["ingest"]
        )

    def test_gc_knob_validation(self):
        with pytest.raises(ConfigError):
            small_fleet(gc_mode="eager")
        with pytest.raises(ConfigError):
            small_fleet(gc_step_period=0.0)
        with pytest.raises(ConfigError):
            small_fleet(gc_mark_budget=0)
        with pytest.raises(ConfigError):
            small_fleet(gc_sweep_budget=0)
        with pytest.raises(ConfigError):
            small_fleet(gc_trigger_deleted=0)

    def test_plan_shards_threads_gc_knobs(self):
        config = small_fleet(
            gc_mode="incremental",
            gc_step_period=0.5,
            gc_mark_budget=5,
            gc_sweep_budget=3,
            gc_trigger_deleted=2,
        )
        for task in plan_shards(config):
            assert task.gc_mode == "incremental"
            assert task.gc_step_period == 0.5
            assert task.gc_mark_budget == 5
            assert task.gc_sweep_budget == 3
            assert task.gc_trigger_deleted == 2

    def test_incremental_parallel_matches_serial_byte_for_byte(self):
        config = small_fleet(gc_mode="incremental")
        serial = run_fleet(config, jobs=1)
        parallel = run_fleet(config, jobs=2)
        assert serial.canonical_json() == parallel.canonical_json()

    def test_incremental_executes_gc_steps(self):
        result = run_fleet(small_fleet(gc_mode="incremental"), jobs=1)
        requests = {}
        for shard in result.shards:
            for kind, count in shard.requests.items():
                requests[kind] = requests.get(kind, 0) + count
        assert requests.get("gc_step", 0) > 0
        assert result.metrics["counters"].get("gc.rounds", 0) > 0

    def test_incremental_matches_stw_final_storage(self):
        stw = run_fleet(small_fleet(), jobs=1)
        inc = run_fleet(small_fleet(gc_mode="incremental"), jobs=1)
        stw_counters = stw.metrics["counters"]
        inc_counters = inc.metrics["counters"]
        for name in (
            "service.physical_bytes",
            "service.cumulative_logical_bytes",
            "gc.rounds",
            "gc.backups_purged",
            "fleet.deleted_backups",
        ):
            assert inc_counters.get(name) == stw_counters.get(name), name
        # Mid-cycle ingests may dedup against chunks the open cycle has not
        # reclaimed yet (the live-reference barrier then revives them), so
        # incremental mode can only store *fewer* bytes — never more — and
        # correspondingly reclaims fewer.  Exact stop-the-world equality is
        # the drained (non-interleaved) contract, gated in
        # tests/test_incremental_gc.py.
        assert (
            inc_counters["service.cumulative_stored_bytes"]
            <= stw_counters["service.cumulative_stored_bytes"]
        )

    def test_stall_histogram_covers_every_ingest(self):
        result = run_fleet(small_fleet(gc_mode="incremental"), jobs=1)
        hist = result.metrics["histograms"]["fleet.ingest_stall"]
        assert hist["count"] == result.metrics["counters"]["ingest.backups"]
        quantiles = result.ingest_stall_quantiles()
        assert set(quantiles) == {"p50", "p90", "p99", "max"}
        assert (
            quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"] <= quantiles["max"]
        )

    def test_shard_result_round_trips_stall_samples(self):
        result = ShardResult(shard_id=1, ingest_stalls=[0.5], gc_pauses=[0.1, 0.2])
        restored = ShardResult.from_dict(result.to_dict())
        assert restored.ingest_stalls == [0.5]
        assert restored.gc_pauses == [0.1, 0.2]
        # Payloads serialized before the stall model existed still load.
        legacy = result.to_dict()
        legacy.pop("ingest_stalls")
        legacy.pop("gc_pauses")
        assert ShardResult.from_dict(legacy).gc_pauses == []

    def test_unknown_preset_error_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit):
            fleet_main(["--preset", "nope"])
        err = capsys.readouterr().err
        assert "unknown fleet preset 'nope'" in err
        for name in ("quick", "medium", "large"):
            assert name in err
