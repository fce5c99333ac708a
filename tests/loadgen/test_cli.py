"""The `repro loadgen run` command."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def base_args():
    # Small synthetic fleet, sub-second run: cheap enough for tier-1.
    return [
        "loadgen",
        "run",
        "--qps",
        "400",
        "--duration",
        "0.3",
        "--workers",
        "2",
        "--replicas",
        "2",
        "--budget",
        "2",
    ]


class TestLoadgenRun:
    def test_reports_throughput_and_tails(self, base_args, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        obs_path = tmp_path / "obs.json"
        code = main(
            base_args
            + [
                "--report-json",
                str(report_path),
                "--obs-export",
                str(obs_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compiled policy" in out
        assert "qps" in out
        assert "p999" in out

        doc = json.loads(report_path.read_text())
        assert doc["completed"] == doc["offered"] > 0
        assert doc["request_latency"]["p99_s"] > 0
        assert set(doc["dispatched"]) == {"dev0", "dev1"}
        # Provenance meta: schema tag, producing git SHA, full config.
        meta = doc["meta"]
        assert meta["schema"].startswith("repro.loadgen-report/")
        assert meta["git_sha"] is None or len(meta["git_sha"]) == 40
        assert meta["config"]["qps"] == 400.0
        assert meta["command"] == "repro loadgen run"

        obs = json.loads(obs_path.read_text())
        histograms = {m["name"] for m in obs["metrics"]["histograms"]}
        counters = {m["name"] for m in obs["metrics"]["counters"]}
        assert "loadgen.request_seconds" in histograms
        assert "serving.lookups" in counters

    def test_min_qps_floor_fails_the_run(self, base_args, capsys):
        code = main(base_args + ["--min-qps", "1000000000"])
        captured = capsys.readouterr()
        assert code == 1
        assert "below the --min-qps floor" in captured.err
