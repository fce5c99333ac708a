"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "r9-nano" in out and "GF" in out

    def test_shapes(self, capsys):
        assert main(["shapes", "--network", "mobilenet_v2"]) == 0
        out = capsys.readouterr().out
        assert "unique GEMM shapes" in out
        assert "im2col" in out

    def test_shapes_unknown_network(self):
        with pytest.raises(SystemExit):
            main(["shapes", "--network", "alexnet"])

    def test_dataset_saved_and_reused(self, tmp_path, capsys, small_dataset):
        # Pre-save a dataset so the CLI loads instead of regenerating.
        path = small_dataset.save(tmp_path / "ds.npz")
        assert main(["dataset", "--dataset", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PerformanceDataset" in out

    def test_experiments_fig2_on_saved_dataset(self, tmp_path, capsys, small_dataset):
        path = small_dataset.save(tmp_path / "ds.npz")
        assert main(["experiments", "--dataset", str(path), "--which", "2"]) == 0
        assert "win counts" in capsys.readouterr().out

    def test_experiments_fig4_averages_three_splits(
        self, tmp_path, monkeypatch, capsys, small_dataset
    ):
        import repro.experiments

        seen = []

        class Rendered:
            def render(self):
                return "fig4 table"

        def fake_run_fig4(dataset, **kwargs):
            seen.append(kwargs)
            return Rendered()

        monkeypatch.setattr(repro.experiments, "run_fig4", fake_run_fig4)
        path = small_dataset.save(tmp_path / "ds.npz")
        assert main(["experiments", "--dataset", str(path), "--which", "4"]) == 0
        assert seen == [{"split_seeds": (0, 1, 2)}]
        assert "fig4 table" in capsys.readouterr().out

    def test_experiments_fig3(self, tmp_path, capsys, small_dataset):
        path = small_dataset.save(tmp_path / "ds.npz")
        assert main(["experiments", "--dataset", str(path), "--which", "3"]) == 0
        assert "variance" in capsys.readouterr().out

    def test_tune_with_export(self, tmp_path, capsys, small_dataset):
        path = small_dataset.save(tmp_path / "ds.npz")
        assert (
            main(
                [
                    "tune",
                    "--dataset",
                    str(path),
                    "--budget",
                    "4",
                    "--export",
                    "py",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "test score" in out
        assert "def select_kernel" in out


class TestExtensionCommands:
    def test_experiments_tradeoff(self, tmp_path, capsys, small_dataset):
        from repro.cli import main

        path = small_dataset.save(tmp_path / "ds.npz")
        assert (
            main(["experiments", "--dataset", str(path), "--which", "tradeoff"])
            == 0
        )
        assert "Library size vs performance" in capsys.readouterr().out

    def test_tune_cpp_export(self, tmp_path, capsys, small_dataset):
        from repro.cli import main

        path = small_dataset.save(tmp_path / "ds.npz")
        assert (
            main(
                [
                    "tune",
                    "--dataset",
                    str(path),
                    "--budget",
                    "4",
                    "--export",
                    "cpp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "const char* select_kernel" in out
