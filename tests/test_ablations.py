"""Smoke + shape tests for the ablation experiments (quick scale)."""

import pytest

from repro.experiments import ablations, clear_cache, run_protocol


@pytest.fixture(autouse=True, scope="module")
def _shared_cache():
    yield
    clear_cache()


class TestAblationRenderers:
    def test_packing_table(self):
        text = ablations.packing_ablation("quick")
        for packing in ("greedy", "tree", "random"):
            assert packing in text

    def test_vc_table(self):
        text = ablations.vc_table_ablation("quick")
        assert "exact" in text and "bloom" in text

    def test_split_denial_table(self):
        text = ablations.split_denial_ablation("quick")
        assert "threshold" in text

    def test_restore_cache_table(self):
        text = ablations.restore_cache_ablation("quick")
        assert "unbounded" in text

    def test_reference_check_table(self):
        text = ablations.reference_check_ablation("quick")
        rows = [line.split() for line in text.splitlines()[3:]]
        assert len(rows) == len(ablations.REFERENCE_CHECK_DATASETS) * 3
        for exact, bloom_fine, bloom_coarse in zip(rows[0::3], rows[1::3], rows[2::3]):
            assert exact[1:3] == ["exact", "ids"] and bloom_coarse[2] == "1e-2"
            # Bloom false positives invent ownerships: never fewer clusters.
            assert int(exact[3]) <= int(bloom_fine[3]) <= int(bloom_coarse[3])

    def test_run_concatenates_all(self):
        text = ablations.run("quick")
        assert text.count("Ablation —") == 5


class TestAblationShapes:
    def test_greedy_not_worse_than_random(self):
        greedy = run_protocol("gccdf", "mix", "quick", packing="greedy")
        random_packing = run_protocol("gccdf", "mix", "quick", packing="random")
        assert (
            greedy.mean_read_amplification
            <= random_packing.mean_read_amplification + 1e-9
        )

    def test_bloom_vc_never_reclaims_more(self):
        exact = run_protocol("gccdf", "web", "quick", vc_table="exact")
        bloom = run_protocol("gccdf", "web", "quick", vc_table="bloom")
        assert sum(r.reclaimed_bytes for r in bloom.gc_reports) <= sum(
            r.reclaimed_bytes for r in exact.gc_reports
        )
        # Dedup ratio is unaffected (it counts writes, not residue).
        assert bloom.dedup_ratio == pytest.approx(exact.dedup_ratio)

    def test_extreme_split_denial_hurts_locality(self):
        fine = run_protocol("gccdf", "mix", "quick", split_denial_threshold=2)
        coarse = run_protocol("gccdf", "mix", "quick", split_denial_threshold=256)
        assert coarse.mean_read_amplification >= fine.mean_read_amplification

    def test_small_cache_inflates_amplification(self):
        unbounded = run_protocol("naive", "mix", "quick")
        tiny = run_protocol("naive", "mix", "quick", restore_cache_containers=2)
        assert tiny.mean_read_amplification > unbounded.mean_read_amplification
