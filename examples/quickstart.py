#!/usr/bin/env python
"""Quickstart: tune a kernel library and run a GEMM through it.

This walks the whole pipeline in ~30 lines of user code:

1. regenerate the performance dataset on the simulated R9 Nano
   (a fraction of a second);
2. prune the 640 kernel configurations down to 8 with the paper's
   decision-tree method and train a decision-tree runtime selector;
3. execute a matrix multiply through a SYCL-style queue, letting the
   selector pick the kernel, and read the profiling event.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    print("1) Building the performance dataset (640 configs x ~160 shapes)...")
    dataset = repro.generate_dataset()
    print(f"   {dataset}")

    print("2) Tuning: prune to 8 configs, train a decision-tree selector...")
    train, test = dataset.split(test_size=0.2, random_state=0)
    deployed = repro.tune(train, n_configs=8, random_state=0)
    print(f"   {deployed.library}")
    for config in deployed.library.configs:
        print(f"     bundled: {config}")

    from repro.core.selection.evaluate import evaluate_selector

    evaluation = evaluate_selector(deployed.selector, test)
    print(
        f"   held-out performance: {evaluation.score * 100:.1f}% of optimal "
        f"(ceiling {evaluation.ceiling * 100:.1f}%)"
    )

    print("3) Running a GEMM through the tuned library...")
    rng = np.random.default_rng(0)
    a = rng.standard_normal((784, 1152)).astype(np.float32)  # im2col conv
    b = rng.standard_normal((1152, 128)).astype(np.float32)
    queue = repro.Queue(repro.Device.r9_nano())
    c, event, config = deployed.matmul(queue, a, b)

    expected = a @ b
    max_err = float(np.max(np.abs(c - expected)))
    shape = repro.GemmShape(m=784, k=1152, n=128)
    print(f"   shape {shape}: selector chose {config}")
    print(f"   simulated kernel time: {event.profiling_duration_ns / 1e3:.1f} us")
    print(
        f"   achieved (simulated): "
        f"{shape.flops / event.profiling_duration_s / 1e9:.0f} GFLOP/s"
    )
    print(f"   numerical check vs numpy: max abs error {max_err:.2e}")


if __name__ == "__main__":
    main()
