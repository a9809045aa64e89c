"""Tests for the repro.tools CLI (trace / simulate / inspect)."""

from pathlib import Path

import pytest

from repro.backup.approaches import APPROACHES
from repro.tools import main


class TestTraceCommand:
    def test_write_and_stats(self, tmp_path, capsys):
        out = tmp_path / "web.trace"
        assert main([
            "trace", "--dataset", "web", "--backups", "3",
            "--scale", "0.05", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert main(["trace", "--stats", str(out)]) == 0
        output = capsys.readouterr().out
        assert "backups:             3" in output
        assert "unique fingerprints" in output

    def test_gzip_output(self, tmp_path):
        out = tmp_path / "web.trace.gz"
        assert main([
            "trace", "--dataset", "web", "--backups", "2",
            "--scale", "0.05", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_requires_out_or_stats(self):
        with pytest.raises(SystemExit):
            main(["trace", "--dataset", "web"])

    def test_requires_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--out", str(tmp_path / "x.trace")])


class TestSimulateCommand:
    def test_runs_preset(self, capsys):
        assert main([
            "simulate", "--dataset", "web", "--approach", "naive",
            "--backups", "14", "--retained", "8", "--turnover", "2",
            "--scale", "0.05",
        ]) == 0
        output = capsys.readouterr().out
        assert "dedup ratio" in output
        assert "GC round" in output

    def test_runs_trace_file(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        main(["trace", "--dataset", "mix", "--backups", "10",
              "--scale", "0.05", "--out", str(out)])
        capsys.readouterr()
        assert main([
            "simulate", "--trace", str(out), "--approach", "mfdedup",
            "--retained", "6", "--turnover", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "approach:            mfdedup" in output

    def test_rejects_unknown_approach(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "web", "--approach", "zfs"])


class TestInspectCommand:
    def test_inspect_output_sections(self, capsys):
        assert main([
            "inspect", "--dataset", "web", "--backups", "12",
            "--retained", "8", "--turnover", "2", "--scale", "0.05",
        ]) == 0
        output = capsys.readouterr().out
        assert "ownership" in output
        assert "purity" in output
        assert "amp" in output

    def test_layout_rendered_for_small_systems(self, capsys):
        assert main([
            "inspect", "--dataset", "web", "--backups", "6",
            "--retained", "4", "--turnover", "1", "--scale", "0.05",
            "--layout-limit", "1000",
        ]) == 0
        assert "legend" in capsys.readouterr().out

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


def test_one_console_script():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"repro": "repro.tools:main"}


@pytest.mark.parametrize("approach", APPROACHES)
def test_inspect_every_approach(approach, capsys):
    """Container approaches print their views; MFDedup keeps volumes, not
    containers, so argparse rejects it (exit 2) instead of a traceback."""
    argv = [
        "inspect", "--approach", approach, "--dataset", "web",
        "--backups", "6", "--retained", "4", "--turnover", "1", "--scale", "0.05",
    ]
    if approach == "mfdedup":
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'mfdedup'" in capsys.readouterr().err
        return
    assert main(argv) == 0
    assert "mean ownership purity" in capsys.readouterr().out
