"""The parallel experiment-matrix runner: coverage, determinism, config-dedup.

Every :class:`~repro.backup.driver.RotationResult` is a pure function of its
cell, so the pool-determinism guard asserts that each cell's result — and
every table rendered from it, fig14's GC breakdown included — is identical
whether a 2-worker process pool or a serial in-process run produced it.
The config-dedup key merges cells into one run; a wrong merge would
silently share one result between two different configs, so its
distinctness is pinned here too.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import clear_cache, fig02, fig14, fig15, protocol_runs
from repro.experiments.common import SCALES, memoized, run_protocol
from repro.experiments.matrix import CELL_BUILDERS, Cell, cells_for, run_matrix
from repro.experiments.run import EXPERIMENTS, describe, main


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


class TestCellEnumeration:
    def test_registry_parity_with_cli(self):
        assert set(CELL_BUILDERS) == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            cells_for(["fig99"], "quick")

    def test_dedup_across_figures(self):
        fig11_only = cells_for(["fig11"], "quick")
        # fig12/13/14 read projections of fig11's runs (minus nondedup).
        combined = cells_for(["fig11", "fig12", "fig13", "fig14"], "quick")
        assert set(combined) == set(fig11_only)

    def test_fig15_cells_carry_overrides(self):
        cells = cells_for(["fig15"], "quick")
        assert all(cell.approach == "gccdf" and cell.dataset == "mix" for cell in cells)
        segment_sizes = {
            dict(cell.gccdf_overrides).get("segment_size") for cell in cells
        }
        assert {10, 25, 50, 100, 200} <= segment_sizes

    def test_cells_are_picklable_and_hashable(self):
        import pickle

        cells = cells_for(["ablations"], "quick")
        assert len(set(cells)) == len(cells)
        assert pickle.loads(pickle.dumps(cells)) == cells


def _key(
    approach="gccdf",
    dataset="mix",
    scale="quick",
    vc_table=None,
    restore_cache_containers=None,
    **gccdf_overrides,
) -> tuple:
    return Cell(
        approach,
        dataset,
        scale,
        vc_table=vc_table,
        restore_cache_containers=restore_cache_containers,
        gccdf_overrides=tuple(gccdf_overrides.items()),
    ).config_key()


class TestConfigDedupKey:
    """The key must change whenever anything that determines a run's output
    changes, and must be stable otherwise."""

    def test_key_is_stable(self):
        assert _key() == _key()
        assert _key(segment_size=10) == _key(segment_size=10)

    def test_distinct_gccdf_overrides_distinct_keys(self):
        base = _key()
        assert _key(segment_size=10) != base
        assert _key(segment_size=10) != _key(segment_size=25)
        assert _key(packing="random") != base
        assert _key(split_denial_threshold=0) != base

    def test_reference_check_mode_in_key(self):
        """The ablation's Bloom and exact reference checks must never share
        a run: the resolved config carries the mode."""
        exact, bloom = _key(exact_reference_check=True), _key(exact_reference_check=False)
        assert exact != bloom
        assert _key() in (exact, bloom)
        assert _key(exact_reference_check=False, bloom_fp_rate=0.01) != bloom

    def test_distinct_vc_table_distinct_keys(self):
        assert _key(vc_table="bloom") != _key(vc_table="exact")
        # 'exact' is the default, so passing it explicitly resolves to the
        # same config and therefore the same key.
        assert _key(vc_table="exact") == _key()

    def test_distinct_restore_cache_distinct_keys(self):
        base = _key()
        assert _key(restore_cache_containers=4) != base
        assert _key(restore_cache_containers=4) != _key(restore_cache_containers=16)

    def test_approach_dataset_scale_in_key(self):
        assert _key(approach="naive") != _key(approach="gccdf")
        assert _key(dataset="web") != _key(dataset="mix")
        assert _key(scale="medium") != _key(scale="quick")

    def test_key_carries_the_resolved_config(self):
        cell = Cell("gccdf", "mix", "quick", gccdf_overrides=(("segment_size", 10),))
        assert cell.config_key()[-1] == SCALES["quick"].config(segment_size=10)
        assert Cell("gccdf", "mix", "quick").config_key()[-1] == SCALES["quick"].config()

    def test_override_order_does_not_matter(self):
        a = Cell(
            "gccdf",
            "mix",
            "quick",
            gccdf_overrides=(("segment_size", 10), ("packing", "random")),
        )
        b = Cell(
            "gccdf",
            "mix",
            "quick",
            gccdf_overrides=(("packing", "random"), ("segment_size", 10)),
        )
        assert a == b
        assert a.config_key() == b.config_key()
        assert a.memo_key() == b.memo_key()


class TestMemoIsolation:
    def test_clear_cache_isolates(self):
        first = run_protocol("naive", "web", "quick")
        assert run_protocol("naive", "web", "quick") is first
        clear_cache()
        again = run_protocol("naive", "web", "quick")
        assert again is not first
        assert again == first  # deterministic protocol, fresh object


class TestWorkerRoundTrip:
    def test_to_dict_json_round_trip(self):
        """Pool workers ship results as JSON-safe dicts; nothing may be lost."""
        from repro.backup.driver import RotationResult

        result = run_protocol("naive", "web", "quick")
        wire = json.loads(json.dumps(result.to_dict()))
        restored = RotationResult.from_dict(wire)
        assert restored == result
        assert restored.restore_speed == result.restore_speed
        assert restored.mean_read_amplification == result.mean_read_amplification


class TestMatrixExecution:
    def test_parallel_matches_serial_byte_for_byte(self):
        """Determinism guard for the pool: --jobs 2 ≡ --jobs 1, per cell
        and per rendered table, fig14's GC breakdown included."""
        figures = ["fig02", "fig14"]
        cells = cells_for(figures, "quick")
        serial = run_matrix(figures, "quick", jobs=1)
        assert serial.executed == len(cells)
        serial_results = {cell: memoized(cell.memo_key()).to_dict() for cell in cells}
        serial_text = [fig02.run("quick"), fig14.run("quick")]

        clear_cache()
        parallel = run_matrix(figures, "quick", jobs=2)
        assert parallel.executed == serial.executed
        for cell in cells:
            assert memoized(cell.memo_key()).to_dict() == serial_results[cell], cell.label
        assert [fig02.run("quick"), fig14.run("quick")] == serial_text

    def test_matrix_hydrates_memo_and_rendering_reruns_nothing(self):
        summary = run_matrix(["fig15"], "quick", jobs=1)
        assert summary.executed == len(cells_for(["fig15"], "quick"))
        for cell in cells_for(["fig15"], "quick"):
            assert memoized(cell.memo_key()) is not None
        runs_before = protocol_runs()
        text = fig15.run("quick")
        assert text.strip()
        assert protocol_runs() == runs_before
        # A second pass in the same process is served from the memo.
        again = run_matrix(["fig15"], "quick", jobs=1)
        assert again.memo_hits == len(again.outcomes)

    def test_summary_json(self, tmp_path):
        summary = run_matrix(["fig02"], "quick", jobs=1)
        path = tmp_path / "BENCH_matrix.json"
        summary.write_json(path)
        data = json.loads(path.read_text())
        assert data["cells_total"] == len(summary.outcomes)
        assert data["executed"] == summary.executed
        assert data["scale"] == "quick"
        assert data["total_wall_seconds"] > 0
        assert data["total_cell_seconds"] > 0
        assert len(data["cells"]) == data["cells_total"]
        for cell in data["cells"]:
            assert cell["source"] in ("run", "memo", "dedup")
            assert cell["seconds"] >= 0
            assert cell["label"]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_matrix(["fig02"], "quick", jobs=0)

    def test_identical_resolved_configs_share_one_run(self, monkeypatch):
        """An override pinning a knob to its default resolves to the same
        config, so the matrix runs the protocol once for both cells."""
        plain = Cell("gccdf", "mix", "quick")
        pinned = Cell("gccdf", "mix", "quick", gccdf_overrides=(("segment_size", 100),))
        assert plain.memo_key() != pinned.memo_key()
        assert plain.config_key() == pinned.config_key()

        monkeypatch.setitem(CELL_BUILDERS, "_dup", lambda scale: [plain, pinned])
        summary = run_matrix(["_dup"], "quick", jobs=1)
        assert summary.executed == 1
        assert summary.dedup_hits == 1
        assert memoized(plain.memo_key()) is memoized(pinned.memo_key())


class TestCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "Fig. 11" in out

    def test_describe_is_one_line(self):
        for name in EXPERIMENTS:
            text = describe(name)
            assert text
            assert "\n" not in text

    def test_cli_runs_figure_through_matrix(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_matrix.json"
        assert (
            main(
                [
                    "--figure",
                    "table01",
                    "--figure",
                    "fig02",
                    "--scale",
                    "quick",
                    "--jobs",
                    "2",
                    "--bench-json",
                    str(bench),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Fig. 2" in captured.out
        assert "Table 1" in captured.out
        assert "matrix:" in captured.err
        assert "protocol re-runs while rendering" in captured.err
        data = json.loads(bench.read_text())
        assert data["cells_total"] == len(cells_for(["fig02", "table01"], "quick"))
