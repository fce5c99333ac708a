"""ML-guided device onboarding: budgeted partial sweeps instead of 640 cells.

ROADMAP item 2 delivered as a subsystem: when a new device joins the
fleet, benchmark only a budgeted fraction of the (shape x config) table
— picked by a seeded sampler — and fill the rest with a cross-device
imputation model trained jointly on every existing device's data, plus
a few-shot residual calibration from the cells actually measured.  The
result flows through the unchanged prune/train pipeline and is scored
against the device's full-sweep selector by a report artifact.

Layers:

* :mod:`repro.onboard.budget` — :class:`OnboardBudget`, the
  content-addressed root params of an onboarding branch;
* :mod:`repro.onboard.sampler` — seeded random / stratified / active
  cell plans;
* :mod:`repro.onboard.sweep` — :class:`PartialSweep`: the budgeted
  cells of one window sweep (active refinement rounds included);
* :mod:`repro.onboard.impute` — the joint cross-device forest;
* :mod:`repro.onboard.transfer` — few-shot residual calibration and the
  zero-shot :class:`TransferSelector` baseline;
* :mod:`repro.onboard.report` — :class:`OnboardReport`, quality versus
  the full sweep;
* :mod:`repro.onboard.pipeline` — the ``onboard-*@device`` stages of the
  fleet DAG and :func:`run_onboard_pipeline`.
"""

from repro.onboard.budget import SAMPLERS, OnboardBudget
from repro.onboard.impute import (
    CellFeaturizer,
    ImputationModel,
    SourceBranch,
    impute_dataset,
)
from repro.onboard.pipeline import (
    ONBOARD_STAGES,
    OnboardPipelineConfig,
    OnboardRun,
    onboard_fingerprints,
    onboard_params,
    onboard_pipeline,
    run_onboard_pipeline,
)
from repro.onboard.report import OnboardReport, build_report
from repro.onboard.sampler import pick_informative_cells, plan_cells, shape_family
from repro.onboard.sweep import PartialSweep, run_partial_sweep
from repro.onboard.transfer import (
    ResidualCorrection,
    TransferSelector,
    calibrated_dataset,
    fit_residual_correction,
)

__all__ = [
    "CellFeaturizer",
    "ImputationModel",
    "ONBOARD_STAGES",
    "OnboardBudget",
    "OnboardPipelineConfig",
    "OnboardReport",
    "OnboardRun",
    "PartialSweep",
    "ResidualCorrection",
    "SAMPLERS",
    "SourceBranch",
    "TransferSelector",
    "build_report",
    "calibrated_dataset",
    "fit_residual_correction",
    "impute_dataset",
    "onboard_fingerprints",
    "onboard_params",
    "onboard_pipeline",
    "pick_informative_cells",
    "plan_cells",
    "run_onboard_pipeline",
    "run_partial_sweep",
    "shape_family",
]
