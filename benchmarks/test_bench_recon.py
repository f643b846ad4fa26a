"""ReCon training benchmark: the bitset grower against the row-wise reference.

Both train on the same slice, the seed-2016 study's ReCon training
traffic (every fourth service's sessions: 21,385 labeled requests,
9 global and 87 per-domain trees), in one run:

- the production ``ReconClassifier.fit`` (feature bitsets shared by
  every tree grown on one sample set) is timed over five rounds and
  checked against the recorded baseline;
- ``repro.qa.reference.reference_recon`` (every vocabulary feature
  tested against every sample at every node) is timed once;
- the direct assert: both classifiers have the same
  ``recon_fingerprint``, and production is at least 5x faster.  The
  ratio is taken between two fits in one process, so it holds on any
  host, unlike an absolute baseline recorded elsewhere.
"""

import random
import time

import pytest

from repro.core.cache import recon_fingerprint
from repro.core.pipeline import label_record, training_records
from repro.experiment.runner import ExperimentRunner
from repro.pii.recon import ReconClassifier
from repro.qa.reference import reference_recon
from repro.services.catalog import build_catalog
from repro.services.world import build_world

MIN_SPEEDUP = 5.0


def _fit(examples: list) -> ReconClassifier:
    # The classifier train_recon_on_dataset builds for a study.
    return ReconClassifier(rng=random.Random(7)).fit(examples)


@pytest.fixture(scope="module")
def recon_slice():
    specs = build_catalog()
    dataset = ExperimentRunner(build_world(specs), seed=2016).run_study(specs, duration=240.0)
    return [
        example for record in training_records(dataset) for example in label_record(record)
    ]


def test_bench_recon_fit(benchmark, recon_slice):
    classifier = benchmark.pedantic(_fit, args=(recon_slice,), rounds=5, iterations=1)
    assert len(classifier._global) == 9
    assert len(classifier._specialists) == 87


def test_recon_fit_speedup(recon_slice):
    started = time.perf_counter()
    reference = reference_recon(recon_slice, rng=random.Random(7))
    reference_s = time.perf_counter() - started
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        classifier = _fit(recon_slice)
        timings.append(time.perf_counter() - started)
    production_s = min(timings)
    assert recon_fingerprint(classifier) == recon_fingerprint(reference)
    speedup = reference_s / production_s
    print(
        f"\nReCon fit on {len(recon_slice)} examples: reference {reference_s:.2f}s, "
        f"production {production_s:.3f}s (x{speedup:.1f})"
    )
    assert speedup >= MIN_SPEEDUP, f"production only x{speedup:.1f} over the reference"
