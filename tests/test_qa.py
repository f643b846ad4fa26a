"""Tests for the differential fuzzing & fault-injection harness.

Three layers of assurance:

- the harness's own machinery is deterministic (same seed, same
  scenario, same verdict — regardless of ``PYTHONHASHSEED``);
- every injected fault class has a test proving its documented
  recovery invariant directly against the ``check_*`` functions;
- the oracle actually *looks*: mutation canaries corrupt one path's
  output and the harness must flag the divergence.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.pipeline import analyze_dataset
from repro.experiment.runner import ExperimentRunner
from repro.http.message import Request
from repro.http.transport import (
    DirectTransport,
    FaultInjectingTransport,
    Network,
    NetworkError,
    TransportFault,
)
from repro.net.clock import SimClock
from repro.pii.matcher import PiiMatch
from repro.pii.types import PiiType
from repro.qa.faults import (
    TORN_MODES,
    ExplodingAddon,
    FaultPlan,
    check_addon_chaos,
    check_ingest_faults,
    check_campaign_resume,
    check_kill_resume,
    check_mitigation_chaos,
    check_serve_snapshot,
    check_transport_chaos,
    tear_journal,
)
from repro.qa.oracle import (
    Divergence,
    OracleReport,
    canonical_bytes,
    first_divergent_field,
    run_oracle,
)
from repro.qa.scenarios import (
    Scenario,
    generate_scenario,
    random_filter_line,
    random_hostname,
    random_url,
    scenario_ground_truth,
)
from repro.qa.shrink import shrink, write_reproducer
from repro.services.world import build_world

REPO_ROOT = Path(__file__).resolve().parent.parent


def _identity_mutate(name, value):
    return value


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(3, max_services=2)


@pytest.fixture(scope="module")
def small_world(small_scenario):
    """(specs, dataset, expected_bytes) collected once for fault tests."""
    specs = small_scenario.build_specs()
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=small_scenario.study_seed)
    dataset = runner.run_study(specs, duration=small_scenario.duration)
    reference = analyze_dataset(dataset, specs, train_recon=small_scenario.train_recon)
    return specs, dataset, canonical_bytes(reference)


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        assert (
            generate_scenario(7, faults=True).canonical_json()
            == generate_scenario(7, faults=True).canonical_json()
        )

    def test_different_seeds_differ(self):
        assert (
            generate_scenario(1).canonical_json()
            != generate_scenario(2).canonical_json()
        )

    def test_dict_roundtrip(self):
        scenario = generate_scenario(5, faults=True)
        again = Scenario.from_dict(scenario.to_dict())
        assert again.canonical_json() == scenario.canonical_json()
        assert again.fault_plan == scenario.fault_plan

    def test_fault_plan_roundtrip(self):
        scenario = generate_scenario(5, faults=True)
        assert scenario.fault_plan is not None
        plan = FaultPlan.from_dict(scenario.fault_plan)
        assert plan.to_dict() == scenario.fault_plan

    def test_faults_off_means_no_plan(self):
        assert generate_scenario(5).fault_plan is None

    @pytest.mark.parametrize("seed", [0, 13, 99])
    def test_specs_are_buildable(self, seed):
        scenario = generate_scenario(seed)
        specs = scenario.build_specs()
        assert len(specs) == len(scenario.services)
        world = build_world(specs)
        assert world.proxy is not None

    def test_vocab_helpers_deterministic(self):
        first = random.Random(7)
        second = random.Random(7)
        for _ in range(50):
            assert random_hostname(first) == random_hostname(second)
            assert random_url(first) == random_url(second)
            assert random_filter_line(first) == random_filter_line(second)

    def test_ground_truth_stable_and_complete(self):
        truth = scenario_ground_truth(9)
        assert truth == scenario_ground_truth(9)
        for pii_type in (PiiType.EMAIL, PiiType.UNIQUE_ID, PiiType.DEVICE_INFO):
            assert truth.get(pii_type), f"missing {pii_type}"

    def test_hash_seed_independence(self):
        """The generator must not depend on Python's hash randomization."""
        script = (
            "from repro.qa.scenarios import generate_scenario; "
            "print(generate_scenario(5, faults=True).canonical_json())"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestFirstDivergentField:
    def test_nested_scalar(self):
        left = json.dumps({"a": {"b": [1, 2]}}).encode()
        right = json.dumps({"a": {"b": [1, 3]}}).encode()
        path, want, got = first_divergent_field(left, right)
        assert path == "$.a.b[1]"
        assert (want, got) == ("2", "3")

    def test_missing_key(self):
        left = json.dumps({"a": 1, "b": 2}).encode()
        right = json.dumps({"a": 1}).encode()
        path, want, got = first_divergent_field(left, right)
        assert path == "$.b"
        assert got == "<missing>"

    def test_list_length(self):
        path, _, got = first_divergent_field(b"[1]", b"[1, 2]")
        assert path == "$[1]"
        assert got == "2"

    def test_type_mismatch(self):
        path, want, got = first_divergent_field(b'{"a": 1}', b'{"a": "1"}')
        assert path == "$.a"
        assert want.startswith("int") and got.startswith("str")

    def test_unparseable_bytes(self):
        path, _, _ = first_divergent_field(b"\xff\xfe", b"{}")
        assert path == "<document>"


class TestOracle:
    def test_clean_scenario_passes(self, small_scenario):
        report = run_oracle(small_scenario)
        assert report.ok, report.divergences
        assert report.stats["paths"] >= 1 + len(small_scenario.shard_counts)
        assert report.stats["matcher_probes"] > 0
        assert report.stats["filter_probes"] > 0
        assert report.stats["sessions"] == 4 * len(small_scenario.services)

    def test_stream_mutation_canary(self, small_scenario):
        """A corrupted streaming result must be caught, not waved through."""

        def bump(study):
            study.analyses()[0].aa_flows += 1
            return study

        report = run_oracle(small_scenario, mutators={"stream": bump})
        assert not report.ok
        assert all(d.component.startswith("stream") for d in report.divergences)
        assert any("aa_flows" in d.path for d in report.divergences)

    def test_matcher_mutation_canary(self, small_scenario):
        def plant(matches):
            return list(matches) + [
                PiiMatch(PiiType.EMAIL, "canary@qa.example", "identity", "query")
            ]

        report = run_oracle(small_scenario, mutators={"matcher": plant})
        assert not report.ok
        assert any(d.component.startswith("matcher") for d in report.divergences)

    def test_recon_mutation_canary(self, small_scenario):
        """One changed leaf probability in a trained tree must be caught."""

        def nudge(classifier):
            node = next(iter(classifier._global.values()))._root
            while not node.is_leaf:
                node = node.present
            node.probability = 1.0 - node.probability + 0.125
            return classifier

        report = run_oracle(small_scenario, mutators={"recon": nudge})
        assert not report.ok
        assert report.stats["recon_trees"] >= 1
        assert all(d.component == "recon[reference-tree]" for d in report.divergences)


class TestKillResume:
    @pytest.mark.parametrize("torn", ("",) + TORN_MODES)
    def test_resume_is_lossless(self, small_scenario, small_world, torn):
        specs, dataset, expected = small_world
        plan = FaultPlan(kill_events=(5,), torn_tail=torn, torn_bytes=9)
        divergences = check_kill_resume(
            small_scenario, specs, dataset, expected, plan, _identity_mutate
        )
        assert divergences == []

    def test_catches_corrupted_resume(self, small_scenario, small_world):
        specs, dataset, expected = small_world
        plan = FaultPlan(kill_events=(5,))

        def corrupt(name, value):
            if name == "stream":
                value.analyses()[0].aa_bytes += 1
            return value

        divergences = check_kill_resume(
            small_scenario, specs, dataset, expected, plan, corrupt
        )
        assert divergences
        assert "aa_bytes" in divergences[0].path


class TestTransportChaos:
    def test_batch_stream_agree_under_faults(self, small_scenario, small_world):
        specs, _, _ = small_world
        plan = FaultPlan(
            transport=((0, "refuse"), (2, "truncate"), (4, "stall")),
            stall_seconds=15.0,
        )
        divergences, stats = check_transport_chaos(
            small_scenario, specs, plan, _identity_mutate
        )
        assert divergences == []
        assert stats["transport_faults_hit"] >= 1

    def test_refuse_raises_at_exact_ordinal(self, echo_world):
        network, _, _ = echo_world
        transport = FaultInjectingTransport(DirectTransport(network), {1: "refuse"})
        assert transport.connect("api.example.com", 80, "http") is not None
        with pytest.raises(TransportFault):
            transport.connect("api.example.com", 80, "http")
        # After the planned ordinal, connections flow again.
        assert transport.connect("api.example.com", 80, "http") is not None

    def test_fault_is_a_network_error(self):
        assert issubclass(TransportFault, NetworkError)

    def test_truncate_delivers_then_fails(self, echo_world, echo_handler):
        network, _, _ = echo_world
        transport = FaultInjectingTransport(DirectTransport(network), {0: "truncate"})
        connection = transport.connect("api.example.com", 80, "http")
        with pytest.raises(TransportFault):
            connection.send(Request.build("GET", "http://api.example.com/x"))
        # The server processed the request even though the client never
        # saw the response — exactly a mid-stream reset.
        assert len(echo_handler.requests) == 1

    def test_stall_advances_clock_then_serves(self, echo_world):
        network, clock, _ = echo_world
        transport = FaultInjectingTransport(
            DirectTransport(network), {0: "stall"}, clock=clock, stall_seconds=7.0
        )
        before = clock.now()
        connection = transport.connect("api.example.com", 80, "http")
        response = connection.send(Request.build("GET", "http://api.example.com/x"))
        assert response.status == 200
        assert clock.now() == pytest.approx(before + 7.0)

    def test_shared_counter_spans_wrappers(self, echo_world):
        network, _, _ = echo_world
        counter = [0]
        plan = {1: "refuse"}
        first = FaultInjectingTransport(
            DirectTransport(network), plan, counter=counter
        )
        second = FaultInjectingTransport(
            DirectTransport(network), plan, counter=counter
        )
        assert first.connect("api.example.com", 80, "http") is not None
        with pytest.raises(TransportFault):
            second.connect("api.example.com", 80, "http")


class TestAddonChaos:
    def test_results_unchanged_and_errors_recorded(self, small_scenario, small_world):
        specs, _, expected = small_world
        plan = FaultPlan(addon_chaos=True, addon_every=2)
        divergences, stats = check_addon_chaos(
            small_scenario, specs, expected, plan, _identity_mutate
        )
        assert divergences == []
        assert stats["addon_errors"] > 0

    def test_exploding_addon_is_isolated(self, echo_world):
        from repro.net.trace import SessionMeta
        from repro.tls.certs import PROXY_CA, CaStore
        from repro.http.session import ClientSession

        _, _, proxy = echo_world
        proxy.add_addon(ExplodingAddon(every=1))
        store = CaStore()
        store.trust(PROXY_CA)
        proxy.start_capture(SessionMeta(service="s", os_name="ios", medium="app"))
        session = ClientSession(proxy.transport_for(store))
        result = session.get("https://api.example.com/ping")
        trace = proxy.stop_capture()
        assert result.response.status == 200
        assert len(trace) == 1
        assert proxy.addon_errors
        event, name, message = proxy.addon_errors[0]
        assert "ExplodingAddon" in name
        assert "exploding addon" in message


class TestMitigationChaos:
    def test_raising_rewrite_stage_is_inert(self, small_scenario, small_world):
        specs, _, _ = small_world
        plan = FaultPlan(addon_chaos=True, addon_every=2)
        divergences, stats = check_mitigation_chaos(
            small_scenario, specs, plan, _identity_mutate
        )
        assert divergences == []
        assert stats["rewrite_errors"] > 0

    def test_mitigate_mutation_canary(self, small_scenario):
        """A corrupted mitigated-path study must be caught by the oracle."""

        def bump(study):
            study.analyses()[0].aa_flows += 1
            return study

        report = run_oracle(small_scenario, mutators={"mitigate": bump})
        assert not report.ok
        assert report.stats["mitigate_checks"] >= 4
        assert all(
            d.component.startswith("mitigate") for d in report.divergences
        )
        assert any("aa_flows" in d.path for d in report.divergences)


class TestIngestFaults:
    @pytest.mark.parametrize("torn", ("",) + TORN_MODES)
    def test_recovery_is_lossless(self, small_scenario, small_world, torn):
        specs, dataset, _ = small_world
        plan = FaultPlan(torn_tail=torn, torn_bytes=9)
        divergences = check_ingest_faults(
            small_scenario, specs, dataset, plan, _identity_mutate
        )
        assert divergences == []

    def test_ingest_mutation_canary(self, small_scenario):
        """A corrupted ingest job result must be caught by the oracle."""

        def bump(study):
            study.analyses()[0].aa_flows += 1
            return study

        report = run_oracle(small_scenario, mutators={"ingest": bump})
        assert not report.ok
        assert report.stats["ingest_checks"] >= 1
        assert all(d.component.startswith("ingest") for d in report.divergences)
        assert any("aa_flows" in d.path for d in report.divergences)


class TestServeSnapshot:
    def test_never_serves_torn_write(self, small_scenario, small_world):
        specs, dataset, _ = small_world
        divergences = check_serve_snapshot(
            small_scenario, specs, dataset, _identity_mutate
        )
        assert divergences == []

    def test_catches_corrupted_snapshot(self, small_scenario, small_world):
        specs, dataset, _ = small_world

        def corrupt(name, value):
            if name == "serve":
                value.analyses()[0].flows_total += 1
            return value

        divergences = check_serve_snapshot(small_scenario, specs, dataset, corrupt)
        assert divergences
        assert "flows_total" in divergences[0].path


class TestTearJournal:
    def test_cut_removes_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"seq": 1}\n{"seq": 2}\n')
        tear_journal(path, "cut", amount=5)
        assert path.read_bytes() == b'{"seq": 1}\n{"seq"'

    @pytest.mark.parametrize("mode", ("garbage", "utf8"))
    def test_append_modes_leave_unparseable_tail(self, tmp_path, mode):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"seq": 1}\n')
        tear_journal(path, mode)
        data = path.read_bytes()
        assert data.startswith(b'{"seq": 1}\n')
        tail = data[len(b'{"seq": 1}\n') :]
        with pytest.raises((UnicodeDecodeError, json.JSONDecodeError)):
            json.loads(tail.decode("utf-8"))

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"x\n")
        with pytest.raises(ValueError):
            tear_journal(path, "melt")


class TestShrink:
    def test_shrink_is_deterministic(self):
        scenario = generate_scenario(11, faults=True)
        runs = [
            shrink(scenario, lambda c: True, max_steps=200).canonical_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_minimizes_to_culprit_service(self):
        scenario = generate_scenario(11, faults=True)
        assert len(scenario.services) > 1
        culprit = scenario.services[0]["name"]

        def is_failing(candidate):
            return any(row["name"] == culprit for row in candidate.services)

        smallest = shrink(scenario, is_failing, max_steps=200)
        assert [row["name"] for row in smallest.services] == [culprit]
        assert len(smallest.texts) == 1
        assert len(smallest.shard_counts) == 1
        assert smallest.fault_plan is None
        assert not smallest.train_recon
        assert smallest.duration == 10.0

    def test_never_drops_below_one_service(self):
        scenario = generate_scenario(11)
        smallest = shrink(scenario, lambda c: True, max_steps=200)
        assert len(smallest.services) == 1

    def test_write_reproducer_roundtrips(self, tmp_path, small_scenario):
        report = OracleReport(seed=small_scenario.seed, ok=False)
        path = write_reproducer(small_scenario, report, tmp_path / "repro.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["replay"] == "repro fuzz --replay repro.json"
        again = Scenario.from_dict(data["scenario"])
        assert again.canonical_json() == small_scenario.canonical_json()


class TestFuzzCli:
    def test_fuzz_clean_seed_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "3", "--rounds", "1", "--max-services", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 3: OK" in out
        assert "0 divergences" in out

    def test_failure_writes_reproducer_and_replays(
        self, tmp_path, capsys, monkeypatch, small_scenario
    ):
        import repro.qa.oracle as oracle_module

        out_path = tmp_path / "fail.json"

        def fake_oracle(scenario, mutators=None):
            return OracleReport(
                seed=scenario.seed,
                ok=False,
                divergences=[Divergence("stream[shards=2]", "$.x", "1", "2")],
            )

        monkeypatch.setattr(oracle_module, "run_oracle", fake_oracle)
        code = main(
            [
                "fuzz",
                "--seed",
                "3",
                "--rounds",
                "1",
                "--max-services",
                "2",
                "--no-shrink",
                "--out",
                str(out_path),
            ]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "stream[shards=2]" in printed
        assert out_path.exists()

        # Replay the written reproducer against the real oracle: the
        # fake failure was synthetic, so the scenario itself is healthy.
        monkeypatch.undo()
        assert main(["fuzz", "--replay", str(out_path)]) == 0
        assert "replay seed 3: OK" in capsys.readouterr().out

    def test_replay_missing_file_errors(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--replay", "/nonexistent/repro.json"])

    def test_crash_in_oracle_reported_not_raised(self, tmp_path, capsys, monkeypatch):
        import repro.qa.oracle as oracle_module

        def exploding_oracle(scenario, mutators=None):
            raise RuntimeError("oracle blew up")

        monkeypatch.setattr(oracle_module, "run_oracle", exploding_oracle)
        code = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--rounds",
                "1",
                "--no-shrink",
                "--out",
                str(tmp_path / "crash.json"),
            ]
        )
        assert code == 1
        assert "crash" in capsys.readouterr().out


class TestCampaignFaults:
    def test_kill_resume_is_lossless(self, small_scenario, small_world):
        specs, _, _ = small_world
        divergences = check_campaign_resume(
            small_scenario, specs, _identity_mutate
        )
        assert divergences == []

    def test_catches_corrupted_resume(self, small_scenario, small_world):
        specs, _, _ = small_world

        def corrupt(name, value):
            if name == "campaign":
                next(iter(value.cohorts.values())).users_leaking += 1
            return value

        divergences = check_campaign_resume(small_scenario, specs, corrupt)
        assert divergences
        assert divergences[0].component == "campaign[kill+resume]"

    def test_campaign_mutation_canary(self, small_scenario):
        """A corrupted campaign partial must trip the byte pins."""

        def bump(campaign):
            next(iter(campaign.cohorts.values())).users_leaking += 1
            return campaign

        report = run_oracle(small_scenario, mutators={"campaign": bump})
        assert not report.ok
        assert report.stats["campaign_checks"] >= 5
        assert all(
            d.component.startswith("campaign") for d in report.divergences
        )

    def test_old_fault_plan_dict_defaults_campaign_check_on(self):
        plan = FaultPlan(kill_events=(5,))
        data = plan.to_dict()
        data.pop("campaign_check")
        assert FaultPlan.from_dict(data).campaign_check is True
