"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.bench import report
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_help_lists_the_three_commands(self):
        assert "{report,serve,migrate}" in build_parser().format_help()


class TestCommands:
    def test_report_writes_where_told(self, capsys, monkeypatch, tmp_path):
        written = []
        monkeypatch.setattr(report, "write_report",
                            lambda path: written.append(path) or path)
        assert main(["report", "--out", str(tmp_path / "record.md")]) == 0
        assert written == [str(tmp_path / "record.md")]
        assert "record.md" in capsys.readouterr().out

    def test_report_defaults_to_the_record(self, monkeypatch):
        written = []
        monkeypatch.setattr(report, "write_report",
                            lambda path: written.append(path) or path)
        assert main(["report"]) == 0
        assert written == ["EXPERIMENTS.md"]

    def test_verbose_flag(self, tmp_path):
        assert main(["--verbose", "migrate", str(tmp_path)]) == 1

    def test_serve_runs_and_drains(self, capsys, tmp_path):
        code = main(["serve", "--users", "80", "--dim", "8", "--k", "5",
                     "--partitions", "4", "--duration", "1.0",
                     "--clients", "2", "--update-batch", "5",
                     "--seed", "7", "--workdir", str(tmp_path / "svc")])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 80 users" in out
        assert "p99" in out
        assert "drained: final epoch" in out
        assert " 0 failed" in out
