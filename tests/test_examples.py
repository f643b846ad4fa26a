"""Smoke tests: the example scripts must run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_custom_service_audit(self):
        out = run_example("custom_service_audit.py")
        assert "FINDING" in out
        assert "gigya" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "A&A domains" in out
        assert "web contacts more A&A domains" in out

    def test_streaming_analysis(self):
        out = run_example("streaming_analysis.py")
        assert "8/8 sessions identical to the batch study" in out
        assert "journal read back: identical bytes" in out
        assert "4 sessions read back (4 had finished), 4 with identical flows" in out

    def test_recommender_service(self):
        out = run_example("recommender_service.py")
        assert "serving 3 services from a dataset" in out
        assert "location-sensitive user" in out
        assert "served from cache" in out
        assert "server drained cleanly" in out

    def test_password_leak_audit(self):
        out = run_example("password_leak_audit.py")
        assert "taplytics" in out
        assert "usablenet" in out
        assert "gigya" in out

    def test_population_campaign(self):
        out = run_example("population_campaign.py")
        assert "population: 16 users" in out
        assert "Wilson CI" in out
        assert "merged forwards and backwards: byte-identical" in out

    def test_mitigated_study(self):
        out = run_example("mitigated_study.py")
        assert "policy: 'default'" in out
        assert "mitigation removed" in out
        assert "still leaking: device_info" in out
        assert "decision latency: p50" in out
        assert "recommendation flips under mitigation" in out
