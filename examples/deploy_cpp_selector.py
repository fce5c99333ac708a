#!/usr/bin/env python
"""Deploying the selector inside a compute library.

Section IV: "decision trees can be implemented as a series of nested if
statements and so are a good target for deployment".  This example tunes
a 6-config library, exports the selection process as both Python and C++
source, and shows the library-size saving that pruning buys — the
paper's original motivation ("supporting many different kernel
instantiations ... adds a cost in terms of library size and build
times").

Run:  python examples/deploy_cpp_selector.py
(exits non-zero if the generated Python disagrees with the selector)
"""

from pathlib import Path

import repro
from repro.kernels.params import config_space
from repro.kernels.registry import KernelLibrary

CACHE = Path(__file__).parent / ".cache" / "dataset.npz"


def main() -> None:
    dataset = repro.generate_dataset(cache_path=CACHE)
    train, _ = dataset.split(test_size=0.2, random_state=0)
    deployed = repro.tune(train, n_configs=6, random_state=0)

    print("Library-size accounting")
    print("-----------------------")
    full = KernelLibrary(config_space())
    print(f"  all 640 configurations: {full.binary_bytes / 1024:8.0f} KiB "
          f"({full.num_compiled} compiled templates)")
    pruned = deployed.library
    print(f"  pruned library:         {pruned.binary_bytes / 1024:8.0f} KiB "
          f"({pruned.num_compiled} compiled templates)")
    print(f"  saving:                 "
          f"{(1 - pruned.binary_bytes / full.binary_bytes) * 100:.1f}%")

    print("\nGenerated Python dispatch")
    print("-------------------------")
    print(deployed.export_python())

    print("Generated C++ dispatch (drop into the library's API layer)")
    print("-----------------------------------------------------------")
    print(deployed.export_cpp())

    # Sanity: the generated Python function agrees with the live selector.
    namespace: dict = {}
    exec(deployed.export_python(), namespace)  # noqa: S102 - our own codegen
    select = namespace["select_kernel"]
    mismatches = sum(
        select(*shape.features()) != deployed.select(shape).short_name()
        for shape in dataset.shapes
    )
    print(f"codegen check: {mismatches} mismatches over "
          f"{dataset.n_shapes} shapes")
    if mismatches:
        raise SystemExit("codegen check failed: the generated Python "
                         "disagrees with the live selector")


if __name__ == "__main__":
    main()
