#!/usr/bin/env python
"""Answering the paper's open question: sparse data.

"It is unclear how well the techniques discussed here generalize to
sparse data."  This example crosses the network GEMM shapes with weight-
pruning densities, benchmarks them under the sparse kernel model, and
compares a dense-trained selection pipeline against one that sees
density as a feature.

Run:  python examples/sparse_generalization.py
"""

import numpy as np

from repro.experiments.sparse import run_sparse_generalization
from repro.kernels.params import config_space
from repro.perfmodel.sparse import SparseGemmPerfModel
from repro.sycl.device import Device
from repro.workloads.sparse import SparseGemmShape


def main() -> None:
    print("How the optimal kernel shifts with density")
    print("------------------------------------------")
    model = SparseGemmPerfModel(Device.r9_nano())
    configs = config_space()
    shape_dims = dict(m=3136, k=576, n=128)
    for density in (1.0, 0.5, 0.25, 0.1):
        shape = SparseGemmShape(density=density, **shape_dims)
        times = np.array([model.time_seconds(shape, c) for c in configs])
        best = configs[int(np.argmin(times))]
        print(
            f"  density {density:>4.0%}: best {best.short_name():>18s} "
            f"at {times.min() * 1e6:7.1f} us "
            f"({shape.flops / times.min() / 1e9:6.0f} useful GFLOP/s)"
        )

    print("\nGeneralisation experiment")
    print("-------------------------")
    result = run_sparse_generalization()
    print(result.render())

    print(
        "\nReading: a library tuned purely on dense data still works on "
        "pruned models, but leaves several points of performance on the "
        "table; adding density to the selector's features recovers most "
        "of it. The techniques generalize — if the dataset does."
    )


if __name__ == "__main__":
    main()
