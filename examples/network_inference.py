#!/usr/bin/env python
"""End-to-end network inference through the tuned library.

Lowers every GEMM-backed layer of VGG16 and MobileNetV2, executes each
one through the SYCL-style queue with three strategies, and compares the
accumulated simulated device time:

* **naive** — the untuned 1x1-tile reference kernel;
* **static** — the single best-on-average tuned kernel (what a library
  without runtime selection would ship);
* **selected** — the paper's pipeline: 8 bundled kernels plus a
  decision-tree selector choosing per layer.

Run:  python examples/network_inference.py
"""

import numpy as np

import repro
from repro.kernels.naive import NAIVE_CONFIG
from repro.perfmodel import GemmPerfModel
from repro.workloads.extract import extract_network_shapes


def main() -> None:
    dataset = repro.generate_dataset()
    train, _ = dataset.split(test_size=0.2, random_state=0)
    deployed = repro.tune(train, n_configs=8, random_state=0)

    # Static baseline: best single config on the training data.
    train_geomean = np.exp(np.mean(np.log(train.normalized()), axis=0))
    static_config = train.configs[int(np.argmax(train_geomean))]

    model = GemmPerfModel(repro.Device.r9_nano())

    for network in ("vgg16", "mobilenet_v2"):
        shapes = extract_network_shapes(network, batches=(1,)).shapes
        times = {"naive": 0.0, "static": 0.0, "selected": 0.0}
        for shape in shapes:
            times["naive"] += model.time_seconds(shape, NAIVE_CONFIG)
            times["static"] += model.time_seconds(shape, static_config)
            times["selected"] += model.time_seconds(
                shape, deployed.select(shape)
            )
        print(f"\n{network}: {len(shapes)} GEMM shapes (batch 1 inference)")
        base = times["naive"]
        for name, t in times.items():
            print(
                f"  {name:>9s}: {t * 1e3:8.2f} ms "
                f"(speedup vs naive: {base / t:5.2f}x)"
            )
        assert times["selected"] <= times["static"] * 1.05

    print(
        "\nThe per-layer selection wins where one static kernel cannot: "
        "batch-1 FC layers want single-row tiles while the convolution "
        "GEMMs want large square tiles."
    )


if __name__ == "__main__":
    main()
