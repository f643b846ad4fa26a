"""Tests for tables, figures, comparison, and the recommender on a mini study."""

import pytest

from repro.analysis.figures import ALL_FIGURES, fig1a, fig1e, fig1f, render_series
from repro.analysis.tables import (
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)
from repro.core.compare import diff_cells, service_diffs, study_diffs
from repro.core.recommend import PrivacyPreferences, Recommender, score_session
from repro.experiment.dataset import APP, WEB
from repro.pii.types import PiiType


class TestTable1:
    def test_rows_cover_all_groups(self, mini_study):
        rows = table1(mini_study)
        groups = {(r.group, r.medium) for r in rows}
        assert ("All", APP) in groups and ("All", WEB) in groups
        assert ("Android", APP) in groups and ("iOS", WEB) in groups
        assert ("Weather", APP) in groups  # category present in mini set

    def test_all_row_counts_services(self, mini_study):
        all_app = next(r for r in table1(mini_study) if r.group == "All" and r.medium == APP)
        assert all_app.n_services == len(mini_study.services)
        assert 0 <= all_app.pct_leaking <= 100

    def test_netflix_does_not_leak(self, mini_study):
        """The mini set includes a non-leaking service; rates reflect it."""
        all_app = next(r for r in table1(mini_study) if r.group == "All" and r.medium == APP)
        assert all_app.pct_leaking < 100.0

    def test_uid_only_in_app_rows(self, mini_study):
        for row in table1(mini_study):
            if row.medium == WEB:
                assert PiiType.UNIQUE_ID not in row.identifiers
                assert PiiType.DEVICE_INFO not in row.identifiers

    def test_identifier_codes_ordered(self, mini_study):
        row = next(r for r in table1(mini_study) if r.group == "All" and r.medium == APP)
        codes = row.identifier_codes()
        assert codes == sorted(codes, key=lambda c: ["B", "D", "E", "G", "L", "N", "P#", "U", "PW", "UID"].index(c))

    def test_render(self, mini_study):
        text = render_table1(table1(mini_study))
        assert "All" in text and "%" in text and "±" in text


class TestTable2:
    def test_rows_sorted_by_total_leaks(self, mini_study):
        rows = table2(mini_study)
        assert rows  # some A&A domain received PII
        # amobee (weather underground not in mini set) may be absent; but
        # ordering must be non-increasing in measured totals.
        totals = [
            r.avg_leaks_app * max(r.services_app, 1) + r.avg_leaks_web * max(r.services_web, 1)
            for r in rows
        ]
        # Not strictly the sort key, but top row must dominate the last.
        assert totals[0] >= totals[-1]

    def test_contact_counts_superset_of_leaks(self, mini_study):
        for row in table2(mini_study):
            assert row.services_both <= min(row.services_app, row.services_web)

    def test_ga_contacted_by_app_and_web(self, mini_study):
        ga = next((r for r in table2(mini_study) if r.domain == "google-analytics.com"), None)
        assert ga is not None
        assert ga.services_app > 0 and ga.services_web > 0

    def test_top_limit(self, mini_study):
        assert len(table2(mini_study, top=3)) <= 3

    def test_render(self, mini_study):
        assert "A&A Domain" in render_table2(table2(mini_study))


class TestTable3:
    def test_location_present_and_app_web(self, mini_study):
        rows = {r.pii_type: r for r in table3(mini_study)}
        location = rows[PiiType.LOCATION]
        assert location.services_app > 0
        assert location.services_web > 0

    def test_uid_app_only(self, mini_study):
        rows = {r.pii_type: r for r in table3(mini_study)}
        uid = rows[PiiType.UNIQUE_ID]
        assert uid.services_app > 0
        assert uid.services_web == 0
        assert uid.domains_web == 0

    def test_password_recipients(self, mini_study):
        rows = {r.pii_type: r for r in table3(mini_study)}
        password = rows.get(PiiType.PASSWORD)
        assert password is not None  # grubhub is in the mini set
        assert password.services_app >= 1

    def test_sorted_by_total(self, mini_study):
        rows = table3(mini_study)
        totals = [r.total_leaks for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_render(self, mini_study):
        assert "Location" in render_table3(table3(mini_study))


class TestFigures:
    def test_all_figures_produce_both_oses(self, mini_study):
        for name, generator in ALL_FIGURES.items():
            series = generator(mini_study)
            assert set(series) == {"android", "ios"}, name

    def test_fig1a_values_match_diff_count(self, mini_study):
        series = fig1a(mini_study)["android"]
        diffs = study_diffs(mini_study, "android")
        assert series.n == len(diffs)

    def test_fig1e_is_pdf(self, mini_study):
        series = fig1e(mini_study)["ios"]
        assert series.kind == "pdf"
        assert sum(p for _, p in series.points) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            series.percent_leq(0)

    def test_fig1f_values_in_unit_interval(self, mini_study):
        for series in fig1f(mini_study).values():
            assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_render_series(self, mini_study):
        text = render_series(fig1a(mini_study)["android"])
        assert "Figure 1a" in text
        empty = render_series(
            type(fig1a(mini_study)["android"])(figure="x", os_name="ios", values=[], points=[])
        )
        assert "no data" in empty


class TestCompare:
    def test_diff_cells_validation(self, mini_study):
        result = mini_study.services[0]
        app = result.cell("android", APP)
        web = result.cell("android", WEB)
        diff = diff_cells(app, web)
        assert diff.service == result.spec.slug
        with pytest.raises(ValueError):
            diff_cells(app, app)

    def test_diff_cells_os_mismatch(self, mini_study):
        result = mini_study.services[0]
        with pytest.raises(ValueError):
            diff_cells(result.cell("android", APP), result.cell("ios", WEB))

    def test_service_diffs_per_tested_os(self, mini_study):
        for result in mini_study.services:
            diffs = service_diffs(result)
            assert len(diffs) == len(result.spec.oses)

    def test_jaccard_in_unit_interval(self, mini_study):
        for diff in study_diffs(mini_study):
            assert 0.0 <= diff.jaccard_identifiers <= 1.0

    def test_weather_web_heavier_than_app(self, mini_study):
        diff = next(d for d in study_diffs(mini_study, "android") if d.service == "weather")
        assert diff.aa_domains < 0  # web contacts more A&A
        assert diff.aa_flows < 0


class TestRecommender:
    def test_scores_nonnegative(self, mini_study):
        preferences = PrivacyPreferences()
        for analysis in mini_study.analyses():
            assert score_session(analysis, preferences) >= 0

    def test_recommend_all(self, mini_study):
        recommender = Recommender(mini_study)
        recommendations = recommender.recommend_all("android")
        assert len(recommendations) == sum(
            1 for r in mini_study.services if "android" in r.spec.oses
        )
        for rec in recommendations:
            assert rec.choice in ("app", "web", "either")

    def test_summary_counts(self, mini_study):
        summary = Recommender(mini_study).summary("ios")
        assert sum(summary.values()) == len(Recommender(mini_study).recommend_all("ios"))

    def test_preference_sensitivity(self, mini_study):
        """A UID-only user penalizes apps; a tracker-averse one penalizes web."""
        uid_only = Recommender(mini_study, PrivacyPreferences.only(PiiType.UNIQUE_ID))
        tracking = Recommender(
            mini_study,
            PrivacyPreferences(weights={t: 0.0 for t in PiiType}, tracker_aversion=1.0),
        )
        uid_summary = uid_only.summary("android")
        tracking_summary = tracking.summary("android")
        assert tracking_summary["app"] >= uid_summary["app"]

    def test_cell_missing_a_medium_is_skipped(self, mini_study):
        from repro.core.pipeline import ServiceResult, StudyResult

        weather = mini_study.by_slug("weather")
        sessions = {key: cell for key, cell in weather.sessions.items() if key != ("android", WEB)}
        study = StudyResult(services=[ServiceResult(weather.spec, sessions)])
        recommender = Recommender(study)
        assert recommender.recommend("weather", "android") is None
        assert recommender.recommend_all("android") == []
        assert recommender.recommend("weather", "ios") is not None

    def test_recommend_by_slug(self, mini_study):
        rec = Recommender(mini_study).recommend("weather", "android")
        assert rec is not None
        assert rec.service == "weather"

    def test_uniform_preferences_helper(self):
        prefs = PrivacyPreferences.uniform(0.3)
        assert all(w == 0.3 for w in prefs.weights.values())
        only = PrivacyPreferences.only(PiiType.PASSWORD)
        assert only.weight(PiiType.PASSWORD) == 1.0
        assert only.weight(PiiType.GENDER) == 0.0
