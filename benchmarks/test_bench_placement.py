"""Transfer-aware selection gates.

Two regressions this pins:

* the transfer-aware model must stay effectively free for the classic
  device-resident protocol (every historical sweep runs through it);
* modelling placement must actually pay off — the placement-aware
  selector has to beat placement-blind selection on mixed traffic, and
  a meaningful share of shapes must flip their best config between
  placements (otherwise the placement feature is dead weight).
"""

import statistics
import time

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.experiments.placement import run_placement_flip
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.placement import place_shapes

#: Sweep-time overhead budget for device-resident shapes routed through
#: the placement-aware breakdown (gate a).
MAX_DEVICE_OVERHEAD = 0.10
#: CI acceptance bar: fraction of base shapes whose best config flips.
MIN_FLIP_FRACTION = 0.10
#: CI acceptance bar: geomean points the aware selector must win by.
MIN_MARGIN = 0.02
#: Interleaved plain/placed sweep pairs behind the overhead gate.
ROUNDS = 21


def _sweep_seconds(runner, shapes):
    start = time.perf_counter()
    runner.run(shapes)
    return time.perf_counter() - start


def _paired_ratios(runner, plain, placed, rounds=ROUNDS):
    """Placed-over-plain sweep time, one ratio per round.

    Each round times one plain and one placed sweep back to back, in an
    order that alternates every round, so both sides of a ratio see the
    same machine state.  One untimed sweep of each first fills the
    model's lazily built tables, which would otherwise charge the first
    round's first sweep.
    """
    _sweep_seconds(runner, plain)
    _sweep_seconds(runner, placed)
    ratios = []
    for round_index in range(rounds):
        if round_index % 2:
            placed_s = _sweep_seconds(runner, placed)
            plain_s = _sweep_seconds(runner, plain)
        else:
            plain_s = _sweep_seconds(runner, plain)
            placed_s = _sweep_seconds(runner, placed)
        ratios.append(placed_s / plain_s)
    return ratios


def test_bench_device_resident_overhead(benchmark):
    """Gate (a): device-resident sweeps pay <10% for transfer awareness."""
    device = Device.r9_nano()
    runner = BenchmarkRunner(
        device, runner_config=RunnerConfig(timed_iterations=3)
    )
    shapes, _ = extract_dataset_shapes()
    plain = shapes[::8]
    placed = place_shapes(plain, ("device",))

    ratios = benchmark.pedantic(
        _paired_ratios, args=(runner, plain, placed), rounds=1, iterations=1
    )
    overhead = statistics.median(ratios) - 1.0
    print(
        f"\ndevice-placed over plain sweep, median of {len(ratios)} "
        f"rounds: {overhead * 100:+.1f}% "
        f"(rounds {min(ratios) - 1:+.1%} .. {max(ratios) - 1:+.1%})"
    )
    assert overhead < MAX_DEVICE_OVERHEAD


def test_bench_placement_flip_gates(benchmark):
    """Gate (b): awareness wins on mixed traffic, and flips are common."""
    result = benchmark.pedantic(run_placement_flip, rounds=1, iterations=1)
    print("\n" + result.render())

    assert result.flip_fraction >= MIN_FLIP_FRACTION
    assert result.margin >= MIN_MARGIN
    # Both pipelines must remain usable — the gate guards the gap, not
    # a degenerate blind baseline.
    assert result.score_placement_blind > 0.5
    assert result.score_placement_aware > 0.6
