"""Deterministic fault injection and differential oracles.

The correctness tooling behind the production north-star: inject faults
on chosen coordinates (:class:`FaultPlan` + the ``Faulty*`` wrappers),
prove the sweep degrades gracefully instead of aborting
(:class:`~repro.bench.failures.FailureLog`, NaN-masked cells), and pin
every fast path to its reference implementation with randomized
differential oracles.
"""

from repro.bench.failures import FailureLog, FailureRecord
from repro.testing.faulty import (
    FaultyDevice,
    FaultyModel,
    FaultyPolicy,
    FaultyQueue,
    faulty_runner,
)
from repro.testing.oracles import (
    OracleReport,
    adaptive_select_oracle,
    batch_select_oracle,
    queue_equivalence_oracle,
    random_shapes,
    random_tree,
    reference_leaves,
    tree_apply_oracle,
)
from repro.testing.plan import FaultKind, FaultPlan, InjectedFault, raise_fault

__all__ = [
    "FailureLog",
    "FailureRecord",
    "FaultKind",
    "FaultPlan",
    "FaultyDevice",
    "FaultyModel",
    "FaultyPolicy",
    "FaultyQueue",
    "InjectedFault",
    "OracleReport",
    "adaptive_select_oracle",
    "batch_select_oracle",
    "faulty_runner",
    "queue_equivalence_oracle",
    "raise_fault",
    "random_shapes",
    "random_tree",
    "reference_leaves",
    "tree_apply_oracle",
]
