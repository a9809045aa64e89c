"""Self-tests of the e2e benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lifecycle  # noqa: E402
import spans  # noqa: E402
from catalog import BY_NAME, EXACT_END_TO_END, WORKLOADS, load_contract  # noqa: E402

CONTRACT = load_contract()


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run([*RUN, *args], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120)
    return done.returncode, done.stdout


def quick_sweep(tmp_path_factory, seed: int) -> tuple[dict, float, dict]:
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    started = time.perf_counter()
    code, stdout = run("--quick", "--seed", str(seed), "--out", str(out))
    wall = time.perf_counter() - started
    assert code == 0, stdout[-2000:]
    return json.loads(out.read_text()), wall, json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return quick_sweep(tmp_path_factory, seed=3)


def test_contract_file_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[kind]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for spec in CONTRACT["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"} and 0 < spec["bound"] <= 0.25
    for spec in CONTRACT["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    assert all(unit.match(m["unit"]) for kind in ("end_to_end", "per_layer") for m in CONTRACT[kind])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 1 <= len(CONTRACT["per_layer"]) <= 128 and 1 <= len(CONTRACT["end_to_end"]) <= 16


def test_quick_set_finishes_in_20_seconds_with_no_failed_op(sweep):
    row, wall, last = sweep
    assert wall < 20
    assert set(row["workloads"]) == {w.name for w in WORKLOADS}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for result in row["workloads"].values():
        assert set(result["end_to_end"]) == {m["name"] for m in CONTRACT["end_to_end"]}
        # (the cold phase is not cold at quick sizes, so its simulated
        # median may be 0 there; every host time must still be positive)
        assert all(value > 0 for name, value in result["end_to_end"].items()
                   if name not in EXACT_END_TO_END)
    assert {"python", "implementation", "platform", "nproc", "commit", "seed",
            "harness_version", "utc"} <= set(row["environment"])


def test_one_workload_prints_the_contract_line_for_each_trace_mode():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        code, stdout = run("--quick", "--workload", "fleet-hybrid", "--seed", "3", "--trace", trace)
        last = json.loads(stdout.strip().splitlines()[-1])
        assert code == 0 and set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {m["name"] for m in CONTRACT[kind]}
        units = {m["name"]: m["unit"] for m in CONTRACT[kind]}
        assert all(last["metrics"][name]["unit"] == units[name] for name in units)


def test_same_seed_repeats_simulated_values_and_counts_exactly(sweep, tmp_path_factory):
    first = sweep[0]["workloads"]
    second = quick_sweep(tmp_path_factory, seed=3)[0]["workloads"]
    for name in first:
        for metric in EXACT_END_TO_END:
            assert first[name]["end_to_end"][metric] == second[name]["end_to_end"][metric], (name, metric)
        assert first[name]["samples"] == second[name]["samples"]
        assert first[name]["attempted"] == second[name]["attempted"]


def test_another_seed_gives_other_inputs(sweep):
    workload = BY_NAME["rotate-naive-code"].quick()
    ours = lifecycle.generate(workload, 3)
    theirs = lifecycle.generate(workload, 4)
    assert [spec.chunks for spec in ours.backups] != [spec.chunks for spec in theirs.backups]
    assert ours.backups == lifecycle.generate(workload, 3).backups


def test_self_times_plus_unattributed_sum_to_the_traced_wall():
    workload = BY_NAME["rotate-gccdf-code"].quick()
    inputs = lifecycle.generate(workload, 3)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        lifecycle.run_pass(workload, inputs, 3, recorder)
    name, start, end, parent, _ = recorder.spans[0]
    assert (name, parent) == ("pass", -1)
    layers = lifecycle.layer_metrics(recorder)
    total = sum(layers[metric] for metric in lifecycle.SELF_TIME_METRICS)
    assert total == pytest.approx(end - start, rel=1e-9)
    assert layers["analyzer.probes"] > 0 and layers["analyzer.cluster_self_s"] > 0


def test_spans_are_removed_after_a_traced_pass():
    from repro.core.analyzer import Analyzer
    from repro.fleet import runner

    before = (Analyzer.cluster, runner.execute_shard)
    with spans.installed(spans.Recorder()):
        assert Analyzer.cluster is not before[0] and runner.execute_shard is not before[1]
    assert (Analyzer.cluster, runner.execute_shard) == before


def test_watchdog_reports_failed_ops_instead_of_hanging():
    # README "Known defects": incremental GC + hybrid dedup never drains.
    hanging = replace(
        BY_NAME["fleet-incgc"],
        fleet=dict(num_tenants=12, stream_pool=6, backups_per_tenant=20,
                   gc_mode="incremental", dedup_mode="hybrid"),
        approach="naive",
    )
    started = time.perf_counter()
    result = lifecycle.measure(hanging, seed=1, seconds=0, traced=False, import_s=0.0, limit_s=3.0)
    assert time.perf_counter() - started < 10
    assert not result["correct"] and result["failed"] >= lifecycle.nominal_ops(hanging)


def test_history_appends_one_row_per_run(tmp_path):
    history = tmp_path / "BENCH_history.jsonl"
    for _ in range(2):
        code, _ = run("--quick", "--workload", "rotate-mfdedup-web", "--history", str(history))
        assert code == 0
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(rows) == 2 and all("rotate-mfdedup-web" in row["workloads"] for row in rows)


def test_a_run_leaves_the_working_tree_as_it_found_it(sweep):
    def status() -> str:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True).stdout

    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = status()
    code, _ = run("--quick", "--workload", "rotate-naive-code", "--trace", "1")
    assert code == 0 and status() == before


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rotate-naive-code",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0 and "metrics" not in done.stdout
