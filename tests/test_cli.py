"""Tests for the command-line interface."""

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
        ],
    )
    def test_unread_options_rejected(self, argv):
        """collect and blocking accept only the options they read."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


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

    def test_unknown_service_filter(self):
        with pytest.raises(SystemExit):
            main(["table", "1", "--services", "not-a-service"])

    @pytest.mark.parametrize("verb", ["collect", "blocking"])
    def test_unknown_service_rejected_before_work(self, verb, tmp_path):
        """An unknown slug is a usage error naming it — not an empty
        dataset (collect) or a traceback (blocking)."""
        out = tmp_path / "dataset"
        argv = [verb, "--services", "nosuch", "--duration", "30"]
        if verb == "collect":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit, match="nosuch"):
            main(argv)
        assert not out.exists()

    def test_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["table", "9", "--services", "weather", "--duration", "30", "--no-recon"])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "9z", "--services", "weather", "--duration", "30", "--no-recon"])
