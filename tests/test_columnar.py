"""Columnar aggregation engine: byte-identity, merge algebra, codec.

The engine's contract is absolute: for any study, shard split, merge
order, and executor backend, the columnar path renders output
byte-for-byte equal to the row-wise walkers of
:mod:`repro.qa.reference` — a fast wrong answer is not a result.  These
tests pin that contract directly (exhaustive entry-point equality on
``mini_study``), as a property (arbitrary cell partitions under
hypothesis), at the wire level (strict decode), and in the QA oracle
(the pins run per fuzz seed; mutation canaries prove they would catch a
corrupted engine).
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import columnar
from repro.analysis.columnar import (
    StudyAggregate,
    aggregate_batch,
    aggregate_blob,
    decode_batch,
    encode_cells,
    merge_aggregates,
    read_aggregate,
    read_batch,
    shard_aggregates,
    shard_blobs,
    study_aggregate,
    write_batch,
)
from repro.analysis.figures import ALL_FIGURES, render_series
from repro.analysis.longitudinal import diff_studies, render_drift, summarize_drift
from repro.analysis.reach import render_reach, summarize_reach, tracker_reach
from repro.analysis.report import build_comparison, render_markdown
from repro.analysis.tables import (
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)
from repro.core.compare import study_diffs
from repro.net.codec import KIND_ABATCH, KIND_RECORD, CodecError, frame
from repro.par import Executor
from repro.qa import reference


@pytest.fixture(scope="module")
def mini_aggregate(mini_study):
    return study_aggregate(mini_study, executor=1)


class TestByteIdentity:
    """Every consumer entry point: columnar == the row-wise reference,
    byte for byte (a StudyResult argument is aggregated on entry)."""

    def test_reference_aggregate(self, mini_study, mini_aggregate):
        """The encode + kernel aggregate equals the row-wise fold."""
        assert reference.reference_aggregate(mini_study).canonical_bytes() == (
            mini_aggregate.canonical_bytes()
        )

    def test_table1(self, mini_study, mini_aggregate):
        expected = render_table1(reference.table1(mini_study))
        assert render_table1(table1(mini_aggregate)) == expected
        assert render_table1(table1(mini_study)) == expected

    def test_table2(self, mini_study, mini_aggregate):
        expected = render_table2(reference.table2(mini_study))
        assert render_table2(table2(mini_aggregate)) == expected
        assert render_table2(table2(mini_study)) == expected

    def test_table3(self, mini_study, mini_aggregate):
        expected = render_table3(reference.table3(mini_study))
        assert render_table3(table3(mini_aggregate)) == expected
        assert render_table3(table3(mini_study)) == expected

    @pytest.mark.parametrize("key", sorted(ALL_FIGURES))
    def test_figures(self, mini_study, mini_aggregate, key):
        rows = reference.figure(key, mini_study)
        cols = ALL_FIGURES[key](mini_aggregate)
        assert sorted(rows) == sorted(cols)
        for os_name in rows:
            assert render_series(cols[os_name]) == render_series(rows[os_name])
            assert cols[os_name] == rows[os_name]

    def test_diffs_bit_identical(self, mini_study, mini_aggregate):
        rows = study_diffs(mini_study)
        cols = columnar.aggregate_diffs(mini_aggregate)
        assert cols == rows

    def test_reach(self, mini_study, mini_aggregate):
        assert render_reach(mini_aggregate) == reference.render_reach(mini_study)
        assert tracker_reach(mini_aggregate) == reference.tracker_reach(mini_study)
        assert summarize_reach(mini_aggregate) == reference.summarize_reach(
            mini_study
        )

    def test_drift(self, mini_study, mini_aggregate):
        rows = render_drift(reference.summarize_drift(mini_study, mini_study))
        cols = render_drift(summarize_drift(mini_aggregate, mini_aggregate))
        assert cols == rows
        assert diff_studies(mini_aggregate, mini_aggregate) == (
            reference.diff_studies(mini_study, mini_study)
        )

    def test_mixed_operands_drift(self, mini_study, mini_aggregate):
        """Aggregate-vs-StudyResult operands promote and still match."""
        rows = render_drift(reference.summarize_drift(mini_study, mini_study))
        assert render_drift(summarize_drift(mini_aggregate, mini_study)) == rows
        assert render_drift(summarize_drift(mini_study, mini_aggregate)) == rows

    def test_report(self, mini_study, mini_aggregate, monkeypatch):
        """The report over the aggregate equals the same report built
        from the row-wise walkers."""
        from repro.analysis import report

        lines = build_comparison(mini_aggregate)
        markdown = render_markdown(mini_aggregate)
        monkeypatch.setattr(report, "ensure_aggregate", lambda study: study)
        monkeypatch.setattr(report, "table1", reference.table1)
        monkeypatch.setattr(report, "table2", reference.table2)
        monkeypatch.setattr(report, "table3", reference.table3)
        for key in ALL_FIGURES:
            monkeypatch.setattr(
                report,
                f"fig{key}",
                lambda study, key=key: reference.figure(key, study),
            )
        assert build_comparison(mini_study) == lines
        assert render_markdown(mini_study) == markdown

    def test_report_aggregates_once(self, mini_study, monkeypatch):
        """All three tables and six panels of the report share one
        aggregate of the study."""
        calls = []
        real = columnar.study_aggregate

        def counted(study, *args, **kwargs):
            calls.append(study)
            return real(study, *args, **kwargs)

        monkeypatch.setattr(columnar, "study_aggregate", counted)
        build_comparison(mini_study)
        assert calls == [mini_study]


class TestMergeAlgebra:
    """Shard splits and merge orders never change the aggregate."""

    def test_shard_counts_identical(self, mini_study, mini_aggregate):
        reference = mini_aggregate.canonical_bytes()
        for shards in (1, 2, 3, 5, 24, 1000):
            agg = study_aggregate(mini_study, executor=1, shards=shards)
            assert agg.canonical_bytes() == reference, f"shards={shards}"

    def test_merge_reversed_and_shuffled(self, mini_study, mini_aggregate):
        reference = mini_aggregate.canonical_bytes()
        partials = shard_aggregates(mini_study, shards=4, executor=1)
        assert merge_aggregates(partials[::-1]).canonical_bytes() == reference
        shuffled = list(partials)
        random.Random(11).shuffle(shuffled)
        assert merge_aggregates(shuffled).canonical_bytes() == reference

    def test_identity_element(self, mini_aggregate):
        merged = merge_aggregates([StudyAggregate(), mini_aggregate])
        assert merged.canonical_bytes() == mini_aggregate.canonical_bytes()

    def test_merge_is_associative(self, mini_study, mini_aggregate):
        a, b, c = shard_aggregates(mini_study, shards=3, executor=1)
        left = merge_aggregates([merge_aggregates([a, b]), c])
        right = merge_aggregates([a, merge_aggregates([b, c])])
        assert left.canonical_bytes() == right.canonical_bytes()
        assert left.canonical_bytes() == mini_aggregate.canonical_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_arbitrary_partition_property(
        self, mini_study, mini_aggregate, n_shards, seed
    ):
        """Not just round-robin: *any* assignment of cells to shards,
        merged in *any* order, reproduces the whole-study aggregate."""
        rng = random.Random(seed)
        metas, cells = columnar._study_cells(mini_study)
        buckets = [[] for _ in range(n_shards)]
        for cell in cells:
            rng.choice(buckets).append(cell)
        partials = [
            aggregate_blob(encode_cells(metas, bucket)) for bucket in buckets
        ]
        rng.shuffle(partials)
        merged = merge_aggregates(partials)
        assert merged.canonical_bytes() == mini_aggregate.canonical_bytes()

    def test_cell_merge_rejects_other_cell(self, mini_aggregate):
        cells = mini_aggregate.ordered_cells()
        with pytest.raises(ValueError, match="cannot merge cell"):
            cells[0].copy().merge(cells[1].copy())


class TestCodec:
    """The batch wire format: canonical, strict, framed."""

    def test_blob_round_trip(self, mini_study, mini_aggregate):
        (blob,) = shard_blobs(mini_study, shards=1)
        assert aggregate_blob(blob).canonical_bytes() == (
            mini_aggregate.canonical_bytes()
        )

    def test_blob_is_canonical(self, mini_study):
        """Encoding is deterministic (sorted sets/groups): two encodes
        of the same study are the same bytes."""
        assert shard_blobs(mini_study, shards=1) == shard_blobs(
            mini_study, shards=1
        )

    def test_batch_counts(self, mini_study):
        (blob,) = shard_blobs(mini_study, shards=1)
        batch = decode_batch(blob)
        metas, cells = columnar._study_cells(mini_study)
        assert batch.n_cells == len(cells)
        assert len(batch.services) == len(metas)
        assert batch.leak_events == sum(
            len(analysis.leaks) for _, analysis in cells
        )

    def test_truncation_rejected(self, mini_study):
        (blob,) = shard_blobs(mini_study, shards=1)
        for cut in (1, len(blob) // 3, len(blob) - 1):
            with pytest.raises(CodecError):
                decode_batch(blob[:cut])

    def test_trailing_garbage_rejected(self, mini_study):
        (blob,) = shard_blobs(mini_study, shards=1)
        with pytest.raises(CodecError, match="trailing garbage"):
            decode_batch(blob + b"\x00")

    def test_corrupt_count_column_rejected(self, mini_study):
        """Inflating the declared string count makes the decode overrun
        into unrelated bytes — it must raise, never mis-aggregate."""
        (blob,) = shard_blobs(mini_study, shards=1)
        bad = struct.pack("<I", 2**31) + blob[4:]
        with pytest.raises(CodecError):
            decode_batch(bad)

    def test_empty_batch(self):
        agg = aggregate_blob(encode_cells([], []))
        assert agg.cells == {} and agg.services == {}
        assert agg.canonical_bytes() == StudyAggregate().canonical_bytes()

    def test_framed_file_round_trip(self, mini_study, mini_aggregate, tmp_path):
        path = tmp_path / "study.abatch"
        write_batch(path, mini_study)
        batch = read_batch(path)
        assert aggregate_batch(batch).canonical_bytes() == (
            mini_aggregate.canonical_bytes()
        )
        assert read_aggregate(path).canonical_bytes() == (
            mini_aggregate.canonical_bytes()
        )

    def test_framed_file_wrong_kind_rejected(self, mini_study, tmp_path):
        path = tmp_path / "wrong.bin"
        (blob,) = shard_blobs(mini_study, shards=1)
        path.write_bytes(frame(KIND_RECORD, blob))
        with pytest.raises(CodecError):
            read_batch(path)
        assert KIND_ABATCH != KIND_RECORD

    def test_dict_round_trip_exact(self, mini_aggregate):
        restored = StudyAggregate.from_dict(mini_aggregate.to_dict())
        assert restored.canonical_bytes() == mini_aggregate.canonical_bytes()
        # Partials survive the round trip, so merges stay exact.
        assert (
            restored.moments["aa_bytes"].sum()
            == mini_aggregate.moments["aa_bytes"].sum()
        )


class TestExecutorBackends:
    """The aggregate task on every repro.par executor, identical partials."""

    @pytest.mark.parametrize("workers", (1, 2), ids=("serial", "process"))
    def test_backend_equivalence(self, mini_study, mini_aggregate, workers):
        agg = study_aggregate(mini_study, executor=Executor(workers), shards=3)
        assert agg.canonical_bytes() == mini_aggregate.canonical_bytes()

    def test_empty_blob_list(self):
        from repro.par import tasks

        for workers in (1, 2):
            assert Executor(workers).map(tasks.aggregate, []) == []


class TestOraclePin:
    """The QA oracle pins columnar-vs-reference per fuzz seed."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.qa.scenarios import generate_scenario

        return generate_scenario(3, max_services=2)

    def test_clean_scenario_runs_columnar_checks(self, scenario):
        from repro.qa.oracle import run_oracle

        report = run_oracle(scenario)
        assert report.ok, report.divergences
        assert report.stats["columnar_checks"] >= 7

    def test_columnar_mutation_canary(self, scenario):
        """A corrupted columnar rendering must be caught, not waved
        through — proof the pin has teeth."""
        from repro.qa.oracle import run_oracle

        report = run_oracle(
            scenario, mutators={"columnar": lambda text: text + "\ncanary"}
        )
        assert not report.ok
        assert report.divergences
        assert all(
            d.component.startswith("columnar") for d in report.divergences
        )

    def test_reference_aggregate_mutation_canary(self, scenario):
        """A corrupted production aggregate must trip the row-wise fold
        pin — and only it (the mutator returns a bent copy)."""
        from repro.qa.oracle import run_oracle

        def bend(agg):
            bent = StudyAggregate.from_dict(agg.to_dict())
            bent.ordered_cells()[0].flows_total += 1
            return bent

        report = run_oracle(scenario, mutators={"aggregate": bend})
        assert not report.ok
        assert [d.component for d in report.divergences] == [
            "columnar[reference-aggregate]"
        ]


class TestCli:
    """The CLI prints exactly the row-wise reference table."""

    ARGS = ["--services", "weather", "--duration", "30", "--no-recon", "--seed", "7"]

    def test_table_columnar_matches_rows(self, capsys):
        from repro.cli import main
        from repro.core.pipeline import run_study
        from repro.services.catalog import build_catalog

        assert main(["table", "1"] + self.ARGS) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("Group")
        study = run_study(
            services=[s for s in build_catalog() if s.slug == "weather"],
            seed=7,
            duration=30.0,
            train_recon=False,
            executor=1,
        )
        assert printed == render_table1(reference.table1(study)) + "\n"
