"""The shipped nested-if C++ selector agrees with ``select_batch``.

``DeployedSelector.export_cpp()`` is the artefact the paper proposes
shipping inside a SYCL library.  Every selector below is exported into
one driver program, built with the host ``g++``, and asked for every
query shape; its answers must equal the NumPy selector's on network
shapes and on random ones.  The selectors cover several seeds on every
builtin fleet profile, the five-wide sparse (``density``) and placed
(``host_placed``) feature vocabularies, and a constant selector.

Skipped only when ``g++`` is missing off CI; on CI a missing compiler
fails the test.
"""

import dataclasses
import math
import os
import shutil
import subprocess

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.core.deploy import tune
from repro.fleet import DEFAULT_FLEET, get_profile
from repro.ml.tree.structure import LEAF
from repro.perfmodel.sparse import SparseGemmPerfModel
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.placement import place_shapes
from repro.workloads.sparse import SparseGemmShape, sparsify
from repro.workloads.synthetic import random_gemm_shapes

GXX = shutil.which("g++")

pytestmark = pytest.mark.skipif(
    GXX is None and not os.environ.get("CI"),
    reason="g++ not on PATH (never skipped on CI)",
)

SEEDS = (0, 1, 2)
N_RANDOM = 400
WIDTH = 5


def network_shapes():
    return tuple(extract_dataset_shapes()[0])


def sweep(
    shapes, *, device=None, model_params=None, model=None, configs=None, seed=0
):
    runner = BenchmarkRunner(
        device or Device.r9_nano(),
        configs=configs,
        runner_config=RunnerConfig(seed=2020 + seed),
        model_params=model_params,
        model=model,
    )
    return PerformanceDataset.from_benchmark(runner.run(shapes))


def random_shapes(seed):
    return random_gemm_shapes(N_RANDOM, random_state=seed)


def dense_cases():
    """Budget-8 trees on every builtin profile, one per seed."""
    shapes = network_shapes()
    for device_id in DEFAULT_FLEET:
        profile = get_profile(device_id)
        for seed in SEEDS:
            dataset = sweep(
                shapes,
                device=profile.device(),
                model_params=profile.model_params,
                seed=seed,
            )
            train, _ = dataset.split(test_size=0.2, random_state=seed)
            deployed = tune(train, n_configs=8, random_state=seed)
            yield deployed, shapes + tuple(random_shapes(seed))


def sparse_case():
    dataset = sweep(
        sparsify(network_shapes()[::6], densities=(1.0, 0.5, 0.1)),
        model=SparseGemmPerfModel(Device.r9_nano()),
    )
    deployed = tune(dataset, n_configs=6, random_state=0)
    densities = np.random.default_rng(0).uniform(0.01, 1.0, N_RANDOM)
    queries = tuple(dataset.shapes) + tuple(
        SparseGemmShape(s.m, s.k, s.n, s.batch, density=float(d))
        for s, d in zip(random_shapes(3), densities)
    )
    return deployed, queries


def placed_case():
    dataset = sweep(place_shapes(network_shapes()[::2]))
    deployed = tune(dataset, n_configs=8, random_state=0)
    return deployed, tuple(dataset.shapes) + tuple(
        place_shapes(random_shapes(4))
    )


def constant_case():
    shapes = network_shapes()
    deployed = tune(sweep(shapes), n_configs=1, random_state=0)
    assert deployed.selector._constant is not None
    return deployed, shapes + tuple(random_shapes(5))


def boundary_queries(deployed, base):
    """Queries next to every split threshold: the nearest integers on
    both sides for a dimension, the threshold itself and the next double
    up for ``density``."""
    tree = deployed._tree()
    names = deployed._feature_names()
    out = []
    for node in np.flatnonzero(tree.feature != LEAF):
        name, t = names[tree.feature[node]], float(tree.threshold[node])
        if name == "density":
            values = (t, float(np.nextafter(t, 2.0)))
        elif name in ("m", "k", "n", "batch"):
            values = (math.floor(t), math.ceil(t))
        else:
            continue
        out += [
            dataclasses.replace(shape, **{name: value})
            for shape in base[:3]
            for value in values
        ]
    return tuple(out)


@pytest.fixture(scope="module")
def cases():
    out = list(dense_cases())
    out += [sparse_case(), placed_case(), constant_case()]
    return [
        (deployed, queries + boundary_queries(deployed, queries))
        for deployed, queries in out
    ]


def driver_source(selectors):
    """One C++ program holding every selector, dispatched per input line.

    Each line of stdin is ``<selector> f0 f1 f2 f3 f4``; the answer is
    printed on its own line.  Four-wide selectors ignore ``f4``.
    """
    parts = ["#include <cstdio>", ""]
    calls = []
    for i, deployed in enumerate(selectors):
        name = f"select_{i}"
        parts.append(deployed.export_cpp(function_name=name))
        width = len(deployed._feature_names())
        args = ", ".join(f"f[{j}]" for j in range(width))
        calls.append(f"      case {i}: answer = {name}({args}); break;")
    parts += [
        "int main() {",
        "  int sel;",
        f"  double f[{WIDTH}];",
        "  while (std::scanf(\"%d %lf %lf %lf %lf %lf\", &sel, "
        "&f[0], &f[1], &f[2], &f[3], &f[4]) == 6) {",
        "    const char* answer = \"?\";",
        "    switch (sel) {",
        *calls,
        "    }",
        "    std::puts(answer);",
        "  }",
        "  return 0;",
        "}",
    ]
    return "\n".join(parts) + "\n"


def test_cpp_export_matches_select_batch(cases, tmp_path):
    assert GXX is not None, "g++ is required on CI"
    selectors = [deployed for deployed, _ in cases]
    source = tmp_path / "selectors.cpp"
    binary = tmp_path / "selectors"
    source.write_text(driver_source(selectors))
    subprocess.run(
        [GXX, "-O2", "-w", "-o", str(binary), str(source)],
        check=True,
        capture_output=True,
        timeout=300,
    )

    lines, expected = [], []
    for i, (deployed, queries) in enumerate(cases):
        for shape, config in zip(queries, deployed.select_batch(queries)):
            features = [repr(float(v)) for v in shape.features()]
            features += ["0"] * (WIDTH - len(features))
            lines.append(f"{i} {' '.join(features)}")
            expected.append((i, str(shape), config.short_name()))
    done = subprocess.run(
        [str(binary)],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    answers = done.stdout.split()
    assert len(answers) == len(expected)
    mismatches = [
        (sel, shape, want, got)
        for (sel, shape, want), got in zip(expected, answers)
        if want != got
    ]
    assert not mismatches, mismatches[:10]


def test_cases_cover_every_vocabulary(cases):
    vocabularies = {deployed._feature_names() for deployed, _ in cases}
    assert ("m", "k", "n", "batch") in vocabularies
    assert ("m", "k", "n", "batch", "density") in vocabularies
    assert ("m", "k", "n", "batch", "host_placed") in vocabularies
