"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 2016
        assert args.duration == 240.0

    def test_custom_options(self):
        args = build_parser().parse_args(
            ["table", "3", "--seed", "7", "--services", "yelp,cnn", "--no-recon"]
        )
        assert args.seed == 7
        assert args.services == "yelp,cnn"
        assert args.no_recon

    @pytest.mark.parametrize(
        "argv",
        [
            ["collect", "--out", "ds", "--workers", "2"],
            ["collect", "--out", "ds", "--cache-dir", "cache"],
            ["blocking", "--no-recon"],
            ["blocking", "--executor", "serial"],
            ["stream", "--cache-dir", "cache"],
            ["mitigate", "--cache-dir", "cache"],
            ["run", "--executor", "serial"],
            ["analyze", "ds", "--executor", "process"],
            ["stream", "--executor", "thread"],
            ["campaign", "--population", "4", "--reduce", "master"],
            ["serve", "--result", "ds", "--ingest-executor", "process"],
            ["analyze", "ds", "--workers", "-1"],
            ["serve", "--result", "ds", "--ingest-workers", "-2"],
        ],
    )
    def test_unread_options_rejected(self, argv):
        """Every verb accepts only the options it reads: ``--workers``
        (``--ingest-workers`` on serve) is the only fan-out option, and
        it takes a count >= 0."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_help_shows_no_second_fan_out_option(self):
        parser = build_parser()
        verbs = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        for verb, subparser in verbs.items():
            text = subparser.format_help()
            for flag in ("--executor", "--ingest-executor", "--reduce"):
                assert flag not in text, (verb, flag)

    def test_workers_default_is_every_usable_cpu(self):
        parser = build_parser()
        for argv in (
            ["run"],
            ["analyze", "ds"],
            ["stream"],
            ["mitigate"],
            ["campaign", "--population", "1"],
        ):
            assert parser.parse_args(argv).workers == 0, argv
        assert parser.parse_args(["serve", "--result", "ds"]).ingest_workers == 1


class TestCommands:
    def test_catalog_lists_50(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 50
        assert "The Weather Channel" in out

    def test_table3_on_subset(self, capsys):
        code = main(
            ["table", "3", "--services", "weather", "--duration", "40", "--no-recon"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Location" in out

    def test_figure_on_subset(self, capsys):
        code = main(
            ["figure", "1a", "--services", "weather", "--duration", "40", "--no-recon"]
        )
        assert code == 0
        assert "Figure 1a" in capsys.readouterr().out

    def test_recommend_on_subset(self, capsys):
        code = main(
            ["recommend", "--services", "weather", "--duration", "40", "--no-recon"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "use the" in out
        assert "summary:" in out

    def test_recommend_json_bytes_ignore_the_hash_seed(self):
        """Scores sum preference weights over a set of leak types, whose
        order follows the string-hash seed; the printed bytes must not."""
        repo_root = Path(__file__).resolve().parent.parent
        argv = [sys.executable, "-m", "repro", "recommend"]
        argv += ["--services", "weather,grubhub,cnn", "--duration", "60"]
        argv += ["--json", "--no-recon"]
        outputs = []
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(repo_root / "src")
            result = subprocess.run(
                argv, capture_output=True, env=env, cwd=repo_root, check=True
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_unknown_service_filter(self):
        with pytest.raises(SystemExit):
            main(["table", "1", "--services", "not-a-service"])

    @pytest.mark.parametrize(
        "verb,services,named",
        [
            pytest.param("collect", "nosuch", "nosuch", id="collect"),
            pytest.param("blocking", "nosuch", "nosuch", id="blocking"),
            pytest.param(
                "collect", "weather,nosuch,alsonot", "alsonot, nosuch", id="collect-mixed"
            ),
        ],
    )
    def test_unknown_service_rejected_before_work(self, verb, services, named, tmp_path):
        """An unknown slug is a usage error naming it — not an empty
        dataset (collect) or a traceback (blocking) — and known slugs do
        not carry unknown ones through."""
        out = tmp_path / "dataset"
        argv = [verb, "--services", services, "--duration", "30"]
        if verb == "collect":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit, match=named):
            main(argv)
        assert not out.exists()

    def test_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["table", "9", "--services", "weather", "--duration", "30", "--no-recon"])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "9z", "--services", "weather", "--duration", "30", "--no-recon"])


@pytest.fixture(scope="module")
def weather_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-workers") / "ds"
    argv = ["collect", "--services", "weather", "--duration", "40", "--out", str(out)]
    assert main(argv) == 0
    return str(out)


class TestWorkers:
    """``--workers N`` alone sizes every fan-out of a verb: ReCon
    labeling, per-session analysis (the streaming finalizer's ReCon
    replay included) and the columnar aggregate."""

    @pytest.fixture
    def two_cpus_no_pool(self, monkeypatch):
        from repro.par import executor

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
        monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize(
        "verb",
        [["analyze", "{}"], ["stream", "--dataset", "{}"]],
        ids=["analyze", "stream"],
    )
    def test_one_worker_runs_in_process(
        self, weather_dataset, two_cpus_no_pool, capsys, verb
    ):
        argv = [arg.format(weather_dataset) for arg in verb] + ["--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "%Leak" in out and "SvcA" in out  # Tables 1 and 3 printed

    def test_stream_recon_passes_use_the_worker_count(
        self, weather_dataset, monkeypatch, capsys
    ):
        from repro.par import executor

        seen = []
        original = executor.Executor.map

        def spy(self, task, items, **kwargs):
            seen.append((task.__name__, self.workers))
            return original(self, task, items, **kwargs)

        monkeypatch.setattr(executor, "usable_cpus", lambda: 4)
        monkeypatch.setattr(executor.Executor, "map", spy)
        assert main(["stream", "--dataset", weather_dataset, "--workers", "2"]) == 0
        assert ("label", 2) in seen and ("analyze", 2) in seen
        assert all(workers == 2 for _task, workers in seen), seen
