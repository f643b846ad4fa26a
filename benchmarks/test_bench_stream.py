"""Streaming-capture benchmarks.

A live ``run_study`` on the 3-service subset, with and without a
checkpoint directory (the capture journaled as it runs), each with
ReCon on and off.  The journal changes nothing in the study, so every
journaled run must print the plain run's bytes, and its journal must
read back to those same bytes.
"""

import itertools

import pytest

from repro.core.pipeline import analyze_dataset, run_study
from repro.qa.oracle import canonical_bytes
from repro.services.catalog import build_catalog
from repro.stream import JOURNAL_NAME, dataset_from_journal

SUBSET = ("weather", "grubhub", "cnn")
RECON = pytest.mark.parametrize("recon", [False, True], ids=["no-recon", "recon"])


def _specs(slugs=SUBSET):
    by_slug = {s.slug: s for s in build_catalog()}
    return [by_slug[slug] for slug in slugs]


@pytest.fixture(scope="module")
def reference():
    """The plain run's canonical bytes, with ReCon off and on."""
    return {
        recon: canonical_bytes(run_study(_specs(), train_recon=recon))
        for recon in (False, True)
    }


@RECON
def test_bench_stream_batch(benchmark, reference, recon):
    """The live study without a journal."""
    study = benchmark.pedantic(
        lambda: run_study(_specs(), train_recon=recon), rounds=3, iterations=1
    )
    assert canonical_bytes(study) == reference[recon]


@RECON
def test_bench_stream_journaled(benchmark, reference, tmp_path, recon):
    """The same live study journaled into a checkpoint directory."""
    counter = itertools.count()

    def run():
        directory = tmp_path / f"ckpt-{next(counter)}"
        return run_study(_specs(), train_recon=recon, checkpoint_dir=directory), directory

    study, directory = benchmark.pedantic(run, rounds=3, iterations=1)
    assert canonical_bytes(study) == reference[recon]
    journaled = dataset_from_journal(directory / JOURNAL_NAME)
    assert len(journaled) == len(study.dataset)
    replayed = analyze_dataset(journaled, _specs(), train_recon=recon)
    assert canonical_bytes(replayed) == reference[recon]
