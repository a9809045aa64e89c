"""Smoke and consistency tests for the experiment harness.

These run the real protocol at ``quick`` scale (seconds) and assert the
qualitative shapes the paper's figures rely on, not absolute numbers.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import clear_cache, get_scale, run_protocol
from repro.experiments.common import SCALES
from repro.experiments import fig02, fig03, fig11, fig12, fig13, fig14, fig15, table01
from repro.experiments.run import EXPERIMENTS, main


@pytest.fixture(autouse=True, scope="module")
def _shared_cache():
    """Share protocol runs across this module's tests, then clean up."""
    yield
    clear_cache()


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"quick", "medium", "full"}

    def test_get_scale_passthrough(self):
        scale = SCALES["quick"]
        assert get_scale(scale) is scale

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            get_scale("galactic")

    def test_num_backups_preserves_round_structure(self):
        quick = SCALES["quick"]
        # wiki: 120 × 20/100 = 24 → (24-20)/5 ≈ same 2-round shape as paper.
        assert quick.num_backups("wiki") == 25
        assert quick.num_backups("code") == 44


class TestRunProtocolCache:
    def test_cache_returns_same_object(self):
        a = run_protocol("naive", "web", "quick")
        b = run_protocol("naive", "web", "quick")
        assert a is b

    def test_overrides_get_distinct_cache_keys(self):
        a = run_protocol("gccdf", "web", "quick")
        b = run_protocol("gccdf", "web", "quick", segment_size=3)
        assert a is not b


class TestPaperShapes:
    """The claims the paper's figures make, asserted at quick scale."""

    def test_gccdf_preserves_naive_dedup_ratio(self):
        for ds in ("web", "mix"):
            naive = run_protocol("naive", ds, "quick")
            gccdf = run_protocol("gccdf", ds, "quick")
            assert gccdf.dedup_ratio == pytest.approx(naive.dedup_ratio, rel=1e-6)

    def test_gccdf_beats_naive_read_amplification(self):
        naive = run_protocol("naive", "mix", "quick")
        gccdf = run_protocol("gccdf", "mix", "quick")
        assert gccdf.mean_read_amplification < naive.mean_read_amplification

    def test_rewriting_loses_dedup_ratio(self):
        naive = run_protocol("naive", "mix", "quick")
        for approach in ("har", "smr"):
            rewriting = run_protocol(approach, "mix", "quick")
            assert rewriting.dedup_ratio < naive.dedup_ratio

    def test_mfdedup_collapses_on_multi_source(self):
        mfdedup = run_protocol("mfdedup", "mix", "quick")
        assert mfdedup.dedup_ratio == pytest.approx(1.0, abs=0.05)

    def test_mfdedup_works_on_single_source(self):
        mfdedup = run_protocol("mfdedup", "web", "quick")
        assert mfdedup.dedup_ratio > 3.0

    def test_nondedup_ratio_is_one(self):
        nondedup = run_protocol("nondedup", "web", "quick")
        assert nondedup.dedup_ratio == pytest.approx(1.0)

    def test_mfdedup_migration_fraction_substantial_single_source(self):
        """Fig. 3: MFDedup migrates a large share of the processed data."""
        from repro.backup.approaches import make_service
        from repro.backup.driver import RotationDriver
        from repro.workloads.datasets import dataset

        scale = SCALES["quick"]
        service = make_service("mfdedup", scale.config())
        RotationDriver(service, scale.config().retention, "web").run(
            dataset("web", scale=scale.workload_scale, num_backups=scale.num_backups("web"))
        )
        assert service.migration_fraction > 0.3


class TestExperimentRenderers:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_each_experiment_renders(self, name):
        text = EXPERIMENTS[name]("quick")
        assert text.strip()
        assert "—" in text  # title present

    def test_fig11_lists_all_approaches(self):
        text = fig11.run("quick")
        for approach in ("nondedup", "naive", "capping", "har", "smr", "mfdedup", "gccdf"):
            assert approach in text

    def test_fig12_has_per_dataset_blocks(self):
        text = fig12.run("quick")
        for ds in ("WIKI", "CODE", "MIX", "SYN"):
            assert ds in text

    def test_fig15_includes_random_packing_row(self):
        assert "random packing" in fig15.run("quick")

    def test_table01_lists_datasets(self):
        text = table01.run("quick")
        for ds in ("WIKI", "CODE", "MIX", "SYN"):
            assert ds in text


class TestCLI:
    def test_single_figure(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_matrix.json"
        argv = ["--figure", "table01", "--scale", "quick", "--bench-json", str(bench)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "completed in" in out
        # table01 needs no protocol cells: no (empty) wall-time file.
        assert not bench.exists()

    def test_requires_selection(self):
        with pytest.raises(SystemExit):
            main(["--scale", "quick"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig99"])
