"""Scaling benchmarks: executor backends, binary codec, warm cache.

Three questions, one file:

- how does per-session analysis scale from the in-process executor to
  the process pool at each worker count — the number the process-pool
  engine is measured by;
- how long does a saved dataset take to load from the binary trace
  format (the one trace file format, and the process pool's wire form);
- what does the persistent cache buy on an unchanged re-run (the
  acceptance bar is >= 5x on ``run_study``).

Each bench also asserts its equivalence property — a fast wrong answer
is not a result.
"""

import pytest

from repro.core.cache import AnalysisCache
from repro.core.pipeline import analyze_dataset, run_study
from repro.experiment.dataset import Dataset
from repro.experiment.runner import ExperimentRunner
from repro.qa.oracle import canonical_bytes
from repro.services.catalog import build_catalog
from repro.services.world import build_world

SUBSET = ("weather", "grubhub", "cnn")


def _specs(slugs=SUBSET):
    by_slug = {s.slug: s for s in build_catalog()}
    return [by_slug[slug] for slug in slugs]


@pytest.fixture(scope="module")
def subset_world():
    """(specs, dataset, reference_bytes) collected once for the module."""
    specs = _specs()
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=2016)
    dataset = runner.run_study(specs, duration=240.0)
    reference = canonical_bytes(analyze_dataset(dataset, specs, train_recon=True))
    return specs, dataset, reference


@pytest.mark.parametrize(
    "workers", [1, 2, 4], ids=["serial-1", "process-2", "process-4"]
)
def test_bench_executor_scaling(benchmark, subset_world, workers):
    """Per-session analysis fan-out, per worker count."""
    specs, dataset, reference = subset_world

    def run():
        return analyze_dataset(dataset, specs, train_recon=True, executor=workers)

    study = benchmark.pedantic(run, rounds=3, iterations=1)
    assert canonical_bytes(study) == reference


def test_bench_codec_binary_load(benchmark, subset_world, tmp_path):
    """Loading the binary trace format (the codec's headline number)."""
    _, dataset, _ = subset_world
    dataset.save(tmp_path / "bin")

    loaded = benchmark.pedantic(
        lambda: Dataset.load(tmp_path / "bin"), rounds=5, iterations=1
    )
    assert len(loaded) == len(dataset)


def test_bench_cache_cold_vs_warm(benchmark, tmp_path):
    """Unchanged re-run of ``run_study`` through the persistent cache.

    The benchmarked callable is the *warm* run; the cold run is timed
    inline and printed, and the >= 5x speedup is asserted directly.
    """
    import time

    specs = _specs()
    kwargs = dict(services=specs, seed=2016, duration=240.0, train_recon=True)
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_study(cache_dir=cache_dir, **kwargs)
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: run_study(cache_dir=cache_dir, **kwargs), rounds=3, iterations=1
    )
    assert canonical_bytes(warm) == canonical_bytes(cold)

    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds
    print(
        f"\n  cache: cold {cold_seconds:.2f}s -> warm {warm_seconds:.2f}s "
        f"(x{speedup:.1f})"
    )
    assert speedup >= 5.0, f"warm cache only x{speedup:.1f} over cold (need >= 5x)"

