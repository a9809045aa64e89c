"""Micro-benchmarks of the hot substrate operations.

Unlike the figure benchmarks (one protocol run each), these use
pytest-benchmark's repeated measurement to time the inner loops that
dominate the experiments: FastCDC chunking, Bloom-filter probing, dedup
ingest, ownership clustering, and greedy packing.
"""

from repro.chunking.base import split
from repro.chunking.fastcdc import FastCDC
from repro.config import ChunkingConfig, GCCDFConfig
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.core.clusters import Cluster
from repro.core.packing import greedy_pack
from repro.dedup.keys import storage_key
from repro.dedup.pipeline import IngestPipeline
from repro.hashing.bloom import BloomFilter
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.columnar import ColumnarRecipe
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore
from repro.util.rng import DeterministicRng


def test_fastcdc_throughput(benchmark):
    rng = DeterministicRng(1)
    data = bytes(rng.randint(0, 255) for _ in range(1 << 20))
    chunker = FastCDC(ChunkingConfig(min_size=1024, avg_size=4096, max_size=32768))
    chunks = benchmark(lambda: list(split(chunker, data)))
    assert b"".join(c.data for c in chunks) == data


def test_bloom_probe_rate(benchmark):
    bloom = BloomFilter(capacity=100_000, fp_rate=0.001)
    keys = [synthetic_fingerprint("b", i) for i in range(100_000)]
    for key in keys[: 50_000]:
        bloom.add(key)

    def probe_all():
        return sum(key in bloom for key in keys)

    hits = benchmark(probe_all)
    assert hits >= 50_000


def test_ingest_pipeline_rate(benchmark):
    stream = [
        ChunkRef(fp=synthetic_fingerprint("i", n % 6000), size=1024) for n in range(10_000)
    ]

    def ingest_once():
        recipes = RecipeStore()
        pipeline = IngestPipeline(
            store=ContainerStore(capacity=128 * 1024, disk=DiskModel()),
            index=FingerprintIndex(),
            recipes=recipes,
        )
        return pipeline.ingest(stream)

    result = benchmark(ingest_once)
    assert result.num_chunks == 10_000


def _clustering_world(num_backups=20, num_chunks=5000):
    rng = DeterministicRng(7)
    recipes = RecipeStore()
    ids = [
        recipes.interner.intern(storage_key(synthetic_fingerprint("c", i)))
        for i in range(num_chunks)
    ]
    for backup_id in range(num_backups):
        recipes.new_backup_id()
        start = rng.randint(0, num_chunks // 2)
        length = rng.randint(num_chunks // 4, num_chunks // 2)
        recipes.add(
            ColumnarRecipe(
                backup_id,
                recipes.interner,
                ids[start : start + length],
                [1024] * len(ids[start : start + length]),
            )
        )
    return recipes, ids, tuple(range(num_backups))


def test_analyzer_clustering_rate(benchmark):
    recipes, ids, involved = _clustering_world()
    config = GCCDFConfig()

    def cluster_once():
        analyzer = Analyzer(ReferenceChecker(recipes, config), config)
        return analyzer.cluster(ids, involved)

    clusters = benchmark(cluster_once)
    assert sum(c.num_chunks for c in clusters) == len(ids)


def test_greedy_packing_rate(benchmark):
    rng = DeterministicRng(3)
    clusters = [
        Cluster(
            ownership=tuple(sorted(rng.sample(range(40), rng.randint(1, 10)))),
            ids=[i],
        )
        for i in range(400)
    ]
    ordered = benchmark(lambda: greedy_pack(list(clusters), num_backups=40))
    assert len(ordered) == len(clusters)
