"""The performance ledger: every workload, every layer, one command.

Run one workload (the last line of output is the JSON result)::

    python3 benchmarks/ledger/run.py --workload serve-hot --seed 0 [--seconds 20]
        [--trace 1 [--spans spans.json]] [--json runs.json]

``--workload all`` runs the four workloads one after another, each in
its own process.  ``--trace 1`` reports the per-layer metrics (and the
phase breakdown) instead of the end-to-end ones; ``--spans`` writes the
recorded spans.  ``--json`` appends the run to a runs file.

Compare two runs files (or two sets of one ledger file)::

    python3 benchmarks/ledger/run.py compare A.json B.json
    python3 benchmarks/ledger/run.py compare results/BENCH_11.json:A results/BENCH_11.json:B

Record a trajectory point: two sets of runs of the same code, run
alternately, plus one traced run per workload::

    python3 benchmarks/ledger/run.py record results/BENCH_<n>.json --runs 5

The benchmark imports ``repro`` from ``src/`` of the checkout it sits
in, and exits 1 without a result when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def use_checkout() -> None:
    """Import ``repro`` from this checkout's sources, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


# -- one run ---------------------------------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    use_checkout()
    from measure import Spans
    from workloads import FULL, TINY, run_workload

    spans = Spans(enabled=bool(args.trace))
    out = run_workload(args.workload, args.seed, args.seconds, spans, TINY if args.tiny else FULL)
    out.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out.put("error_frac", out.failed / out.attempted, "fraction")
    for name, (value, unit) in out.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in out.breakdown:
        print(line)
    for problem in out.problems:
        print(f"FAILED {args.workload}: {problem}")
    if args.spans and args.trace:
        spans.write(args.spans)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        value, unit = out.metrics[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: measured in {unit}, declared in {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    if args.json:
        append_run(Path(args.json), {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def append_run(path: Path, run: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def child_command(workload: str, seed: int, seconds: float, trace: int, extra: List[str]) -> List[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for workload in workload_names(spec):
        extra = ["--tiny"] if args.tiny else []
        if args.json:
            extra += ["--json", args.json]
        if args.spans:
            spans = Path(args.spans)
            extra += ["--spans", str(spans.with_name(f"{spans.stem}.{workload}{spans.suffix}"))]
        code = subprocess.run(child_command(workload, args.seed, args.seconds, args.trace, extra)).returncode
        worst = max(worst, code)
    return worst


# -- comparing sets of runs ----------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(source: str) -> List[dict]:
    """Runs of a runs file; ``path:SET`` keeps the runs of one set."""
    path, label = source, None
    if ":" in source and not Path(source).exists():
        path, label = source.rsplit(":", 1)
    runs = json.loads(Path(path).read_text())["runs"]
    return [r for r in runs if label is None or r.get("set") == label]


def measured(runs: List[dict], workload: str, name: str) -> List[float]:
    """Values of ``name`` over the runs of ``workload`` that report it
    (a crashed run reports nothing)."""
    return [
        r["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and name in r.get("metrics", {})
    ]


def compare_sets(a: List[dict], b: List[dict], spec: dict) -> Tuple[List[str], int]:
    """One row per (workload, metric), after choosing-metrics sections 6-8.

    A row is a REGRESSION when B's median is worse than A's by more than
    the metric's bound, "unresolved" when either side's own quartile
    spread exceeds the bound (unless every B run beats, or loses to,
    every A run), and a "gain" only when B wins at least nine tenths of
    the pairs and the medians differ by more than A's quartile spread.
    """
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [
        f"{'workload':14s} {'metric':32s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'change':>8s} {'B wins':>7s}  verdict"
    ]
    regressions = 0
    for workload in workload_names(spec):
        for name, metric in declared.items():
            va, vb = measured(a, workload, name), measured(b, workload, name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if metric["better"] == "higher" else -1.0
            pairs = list(zip(va, vb))
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            bound = metric.get("bound")
            if bound is None:
                verdict = "-"
            else:
                spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
                spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
                better_all = all(sign * (y - x) > 0 for x in va for y in vb)
                worse_all = all(sign * (y - x) < 0 for x in va for y in vb)
                if max(spread_a, spread_b) > bound and not (better_all or worse_all):
                    verdict = "unresolved"
                elif -sign * change > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                    verdict = "gain"
                else:
                    verdict = f"within {bound:g}"
            side_a = f"{qa[1]:.5g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            side_b = f"{qb[1]:.5g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            lines.append(
                f"{workload:14s} {name:32s} {side_a:>32s} {side_b:>32s} "
                f"{100 * change:+7.1f}% {wins:3d}/{len(pairs):<3d}  {verdict}"
            )
    return lines, regressions


def compare(args: argparse.Namespace, spec: dict) -> int:
    lines, regressions = compare_sets(load_runs(args.a), load_runs(args.b), spec)
    print("\n".join(lines))
    return 1 if regressions else 0


# -- recording a trajectory point ------------------------------------------------


def child_result(done: subprocess.CompletedProcess) -> dict:
    """The result line of a finished child run or, when it printed none
    (it raised), a result that records the crash as a failed run."""
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "attempted": 1, "failed": 1, "crashed": f"exit {done.returncode}: {tail[0]}"}


def record(args: argparse.Namespace, spec: dict) -> int:
    """Two sets of runs of the same code, alternating which set goes
    first, then one traced run per workload; writes the ledger file."""
    import numpy

    workloads = workload_names(spec)
    runs: List[dict] = []

    def one(workload: str, label: str, trace: int) -> None:
        cmd = child_command(workload, args.seed, args.seconds, trace, [])
        done = subprocess.run(cmd, capture_output=True, text=True)
        result = child_result(done)
        runs.append({"set": label, "workload": workload, "seed": args.seed, "trace": trace, **result})
        print(f"{label} {workload}: exit {done.returncode}, failed {result['failed']}", flush=True)

    for i in range(args.runs):
        for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for workload in workloads:
                one(workload, label, 0)
    for workload in workloads:
        one(workload, "trace", 1)

    spread: Dict[str, Dict[str, dict]] = {}
    for workload in workloads:
        spread[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sets = {}
            for label in ("A", "B"):
                values = measured([r for r in runs if r["set"] == label], workload, name)
                if values:
                    q1, q2, q3 = quartiles(values)
                    sets[label] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
            if len(sets) < 2:
                continue
            spread[workload][name] = {
                **sets,
                "median_diff": abs(sets["B"]["median"] - sets["A"]["median"]) / sets["A"]["median"],
                "bound": metric["bound"],
            }
    doc = {
        "meta": {
            "git_sha": git("rev-parse", "HEAD") or None,
            # Whether the measured program (src/) differs from git_sha.
            "src_dirty": bool(git("status", "--porcelain", "--", "src")),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "runs_per_set": args.runs,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "command": "python3 benchmarks/ledger/run.py record " + " ".join(sys.argv[2:]),
        },
        "spread": spread,
        "runs": runs,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    lines, regressions = compare_sets(
        [r for r in runs if r["set"] == "A"], [r for r in runs if r["set"] == "B"], spec
    )
    print("\n".join(lines))
    failed = sum(r["failed"] for r in runs)
    return 1 if failed or regressions else 0


# -- entry point ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="runs file (or FILE:SET) of the base")
        parser.add_argument("b", help="runs file (or FILE:SET) of the change")
        return compare(parser.parse_args(argv[1:]), spec)
    if argv[:1] == ["record"]:
        parser = argparse.ArgumentParser(prog="run.py record")
        parser.add_argument("out", help="ledger file to write, e.g. results/BENCH_<n>.json")
        parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        return record(parser.parse_args(argv[1:]), spec)
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names(spec) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--spans", help="with --trace 1, write the spans here")
    parser.add_argument("--json", help="append the run to this runs file")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (not comparable)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
