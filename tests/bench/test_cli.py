"""Tests for the python -m repro.bench command line."""

import pytest

from repro.bench.cli import EXPERIMENTS, main


class TestCli:
    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "figure1", "figure2", "figure3", "figure4",
            "ablations", "cluster", "extensions", "incremental_fast",
            "mixed",
        }

    def test_run_single_experiment(self, capsys):
        code = main(["table2", "--profile", "smoke", "--datasets", "skitter-s"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "skitter-s" in out

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        main([
            "table2", "--profile", "smoke", "--datasets", "flickr-s",
            "--out", str(out_path),
        ])
        capsys.readouterr()
        assert "Table 2" in out_path.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--profile", "nope"])

    def test_seed_flag(self, capsys):
        code = main(["table2", "--profile", "smoke", "--datasets",
                     "skitter-s", "--seed", "7"])
        assert code == 0
