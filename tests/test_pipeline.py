"""Tests for the end-to-end pipeline and session analysis."""

import pytest

from repro.core.pipeline import (
    analyze_dataset,
    analyze_session,
    categorizer_for,
    run_study,
    train_recon_on_dataset,
)
from repro.experiment.dataset import APP, WEB
from repro.experiment.runner import ExperimentRunner
from repro.pii.types import PiiType
from repro.services.catalog import build_catalog
from repro.services.world import build_world


class TestSessionAnalysis:
    def test_every_cell_analyzed(self, mini_study, mini_catalog):
        for spec in mini_catalog:
            result = mini_study.by_slug(spec.slug)
            expected = {(osn, med) for osn in spec.oses for med in (APP, WEB)}
            assert set(result.sessions) == expected

    def test_aa_domains_subset_of_third_parties(self, mini_study):
        for analysis in mini_study.analyses():
            assert analysis.aa_domains <= analysis.third_party_domains

    def test_aa_flows_and_bytes_consistent(self, mini_study):
        for analysis in mini_study.analyses():
            if analysis.aa_flows == 0:
                assert analysis.aa_bytes == 0
            else:
                assert analysis.aa_bytes > 0
            assert analysis.aa_megabytes == pytest.approx(analysis.aa_bytes / 1e6)

    def test_leaked_property(self, mini_study):
        weather = mini_study.by_slug("weather")
        assert weather.cell("android", APP).leaked
        netflix = mini_study.by_slug("netflix")
        assert not netflix.cell("android", APP).leaked

    def test_planted_leaks_recovered(self, mini_study):
        """The detector finds exactly the PII classes the catalog plants."""
        grubhub = mini_study.by_slug("grubhub")
        app_types = grubhub.media_leak_types(APP)
        assert {
            PiiType.DEVICE_INFO, PiiType.EMAIL, PiiType.LOCATION, PiiType.NAME,
            PiiType.PHONE, PiiType.PASSWORD, PiiType.UNIQUE_ID,
        } == app_types
        web_types = grubhub.media_leak_types(WEB)
        assert {PiiType.EMAIL, PiiType.LOCATION, PiiType.NAME} == web_types

    def test_no_hallucinated_leaks(self, mini_study, mini_catalog):
        """Measured leak types never exceed the calibrated spec types."""
        from .test_catalog import media_types

        for spec in mini_catalog:
            result = mini_study.by_slug(spec.slug)
            for medium in (APP, WEB):
                measured = result.media_leak_types(medium)
                planted = media_types(spec, medium)
                assert measured <= planted, (spec.slug, medium, measured - planted)

    def test_os_restrictions_respected(self, mini_study):
        """CNN's gender leak is web-only; UID never leaks via web."""
        for result in mini_study.services:
            for (osn, med), analysis in result.sessions.items():
                if med == WEB:
                    assert PiiType.UNIQUE_ID not in analysis.leak_types

    def test_recon_false_positives_tracked(self, mini_study):
        total_fps = sum(a.recon_false_positives for a in mini_study.analyses())
        assert total_fps >= 0  # counter exists and is consistent


class TestCategorizerFor:
    def test_first_party_includes_extra_domains(self, mini_catalog):
        weather = next(s for s in mini_catalog if s.slug == "weather")
        categorizer = categorizer_for(weather)
        assert categorizer.is_first_party_host("cdn.imwx.com")

    def test_os_hosts_wired(self, mini_catalog):
        categorizer = categorizer_for(mini_catalog[0])
        assert categorizer.categorize_host("play.googleapis.com").label == "os_service"


class TestStudyOrchestration:
    def test_run_study_with_explicit_world(self):
        specs = [s for s in build_catalog() if s.slug == "indeed"]
        world = build_world(specs)
        study = run_study(services=specs, world=world, duration=40, train_recon=False)
        assert len(study.services) == 1
        assert study.recon is None

    def test_analyze_dataset_without_recon(self):
        specs = [s for s in build_catalog() if s.slug == "indeed"]
        world = build_world(specs)
        dataset = ExperimentRunner(world, seed=3).run_study(specs, duration=40)
        study = analyze_dataset(dataset, specs, train_recon=False)
        assert study.dataset is dataset
        assert study.by_slug("indeed").cell("ios", APP) is not None

    def test_train_recon_on_dataset(self, mini_study):
        recon = train_recon_on_dataset(mini_study.dataset, every_nth_service=1)
        assert recon.trained_types

    def test_by_slug_unknown(self, mini_study):
        with pytest.raises(KeyError):
            mini_study.by_slug("nope")

    def test_duration_scales_leak_events_not_types(self):
        """§3.2's duration experiment: longer sessions produce more
        leak events but (essentially) no new PII types."""
        specs = [s for s in build_catalog() if s.slug == "weather"]
        short_world = build_world(specs)
        long_world = build_world(specs)
        short = run_study(services=specs, world=short_world, duration=120, train_recon=False)
        long = run_study(services=specs, world=long_world, duration=480, train_recon=False)
        short_cell = short.by_slug("weather").cell("android", APP)
        long_cell = long.by_slug("weather").cell("android", APP)
        assert len(long_cell.leaks) > len(short_cell.leaks)
        assert long_cell.leak_types == short_cell.leak_types


class TestFieldsOnce:
    """With ReCon on, each scanned or labelled request's fields are
    extracted once, for the matcher and for ReCon alike."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        from repro.core import pipeline
        from repro.pii import detector, matcher, recon, structure

        calls = []

        def counted(request):
            calls.append(request)
            return structure.extract_fields(request)

        for module in (pipeline, detector, matcher, recon):
            monkeypatch.setattr(module, "extract_fields", counted)
        return calls

    def test_label_and_scan_parse_each_request_once(self, mini_study, extractions):
        from repro.core.pipeline import label_record
        from repro.experiment.filtering import filter_background

        from .conftest import clear_process_caches

        record = mini_study.dataset.get("grubhub", "android", APP)
        requests = [
            txn.request
            for flow in filter_background(record.trace)
            if flow.decrypted
            for txn in flow.transactions
        ]
        clear_process_caches()  # a cold matcher memo misses on every new request
        examples = label_record(record)
        assert extractions == requests
        assert len(examples) == len(requests)

        extractions.clear()
        clear_process_caches()
        analyze_session(record, mini_study.by_slug("grubhub").spec, recon=mini_study.recon)
        assert extractions == requests
