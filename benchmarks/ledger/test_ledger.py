"""Smoke tests for the ledger: ``PYTHONPATH=src pytest benchmarks/ledger``.

Every workload runs at the tiny internal size; these check the
benchmark's contract (names, units, correctness accounting,
determinism), never its timings.
"""

from __future__ import annotations

import json
import math
import re
import subprocess

import pytest

import run
from repro.core.deploy import DeployedSelector
from measure import REF_NOMINAL
from workloads import TINY, WORKLOADS, replayed_p50, traffic

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_tiny(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(capsys, workload, trace):
    code, lines, result = run_tiny(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = run.load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = (float(parts[2]), parts[3])
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name = metric["name"]
        assert NAME.match(name)
        value, unit = printed[name]
        assert math.isfinite(value) and unit == metric["unit"]
        assert result["metrics"][name]["unit"] == metric["unit"]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.1
    if trace:
        # The compiled tree is on a lookup's path only when it misses.
        share = printed["compiled.share_ns"][0]
        assert share > 0 if workload == "serve-cold" else share == 0


def test_names_and_units_are_well_formed():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in spec["workloads"]])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


class _WrongEveryThird:
    """A policy answering a wrong (but bundled) config every third call."""

    def __init__(self, compiled, configs):
        self._compiled = compiled
        self._configs = configs
        self._calls = 0

    def select(self, shape):
        config = self._compiled.select(shape)
        self._calls += 1
        if self._calls % 3:
            return config
        return next(c for c in self._configs if c != config)

    def select_batch(self, shapes):
        return tuple(self.select(s) for s in shapes)


def test_a_wrong_policy_fails_the_run(capsys, monkeypatch):
    compiled = DeployedSelector.compiled

    def wrong_compiled(self, **kwargs):
        return _WrongEveryThird(compiled(self, **kwargs), self.library.configs)

    monkeypatch.setattr(DeployedSelector, "compiled", wrong_compiled)
    code, lines, result = run_tiny(capsys, "serve-cold", 0)
    assert code == 1 and not result["correct"]
    error_frac = next(float(l.split()[2]) for l in lines if l.startswith("serve-cold error_frac "))
    assert error_frac > 0
    assert any(l.startswith("FAILED serve-cold") for l in lines)


@pytest.mark.parametrize("workload", WORKLOADS[1:])
def test_same_seed_same_traffic(workload):
    first = traffic(workload, 5, 1.0, TINY)
    again = traffic(workload, 5, 1.0, TINY)
    other = traffic(workload, 6, 1.0, TINY)
    assert first == again
    assert first.shapes != other.shapes
    if workload != "serve-batch":
        assert first.arrivals and first.arrivals != other.arrivals


def test_replayed_p50_queues_at_reference_speed():
    # Spaced arrivals never queue; three at once queue behind each other.
    assert replayed_p50([0.0, 1.0, 2.0], [0.5] * 3, REF_NOMINAL) == 0.5
    assert replayed_p50([0.0, 0.0, 0.0], [0.5] * 3, REF_NOMINAL) == 1.0
    # Measured on a machine running the reference loop twice as fast,
    # each request takes twice as long at reference speed.
    assert replayed_p50([0.0, 0.0, 0.0], [0.5] * 3, 2 * REF_NOMINAL) == 2.0


def test_a_crashed_child_is_recorded_as_failed():
    crashed = subprocess.CompletedProcess([], 1, stdout="serve-hot p50_us 10 us\n", stderr="Traceback\nKeyError: 'x'\n")
    result = run.child_result(crashed)
    assert result["failed"] == 1 and not result["correct"] and "KeyError" in result["crashed"]
    runs = [{"workload": "serve-hot", **result}] + _runs("serve-hot", "p50_us", [10.0])
    assert run.measured(runs, "serve-hot", "p50_us") == [10.0]


def _runs(workload, metric, values):
    return [{"workload": workload, "metrics": {metric: {"value": v, "unit": "us"}}} for v in values]


def test_compare_flags_regressions_and_noise():
    spec = run.load_spec()
    base = _runs("serve-hot", "p50_us", [10.0, 10.1, 9.9, 10.0, 10.05])
    slower = _runs("serve-hot", "p50_us", [13.0, 13.1, 12.9, 13.0, 13.05])
    noisy = _runs("serve-hot", "p50_us", [5.0, 20.0, 10.0, 7.0, 14.0])
    faster = _runs("serve-hot", "p50_us", [8.0, 8.1, 7.9, 8.0, 8.05])
    lines, regressions = run.compare_sets(base, slower, spec)
    assert regressions == 1 and "REGRESSION" in lines[1]
    lines, regressions = run.compare_sets(base, noisy, spec)
    assert regressions == 0 and "unresolved" in lines[1]
    lines, regressions = run.compare_sets(base, faster, spec)
    assert regressions == 0 and "gain" in lines[1]
