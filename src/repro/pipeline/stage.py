"""Stage and pipeline (DAG) definitions.

A :class:`Stage` is a pure function plus its declared inputs (upstream
stage names), payload codec, and a code-version string that participates
in the fingerprint — bump it when the stage's implementation changes in
a result-affecting way.  A :class:`Pipeline` is an ordered collection of
stages forming a DAG; it validates references, topologically sorts, and
computes the fingerprint of every stage for a given parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.pipeline.fingerprint import fingerprint_stage

__all__ = ["Pipeline", "Stage"]

#: Stage function signature: (inputs, params) -> value.  Inputs maps
#: upstream stage names to their values; params is the stage's
#: fingerprinted parameter object.
StageFn = Callable[[Mapping[str, Any], Any], Any]


@dataclass(frozen=True)
class Stage:
    """One node of the pipeline DAG."""

    name: str
    fn: StageFn
    inputs: Tuple[str, ...] = ()
    codec: str = "json"
    version: str = "1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"stage {self.name!r} has duplicate inputs")


class Pipeline:
    """An ordered DAG of stages."""

    def __init__(self, stages: Mapping[str, Stage] = ()):
        self._stages: Dict[str, Stage] = {}
        for stage in dict(stages).values():
            self.add(stage)

    def add(self, stage: Stage) -> "Pipeline":
        if stage.name in self._stages:
            raise ValueError(f"duplicate stage {stage.name!r}")
        for parent in stage.inputs:
            if parent not in self._stages:
                raise ValueError(
                    f"stage {stage.name!r} depends on unknown stage "
                    f"{parent!r} (stages must be added parents-first)"
                )
        self._stages[stage.name] = stage
        return self

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __getitem__(self, name: str) -> Stage:
        return self._stages[name]

    @property
    def stages(self) -> Tuple[Stage, ...]:
        return tuple(self._stages.values())

    def topo_order(self) -> List[Stage]:
        """Stages parents-first (insertion order already guarantees it)."""
        return list(self._stages.values())

    def descendants(self, name: str) -> List[str]:
        """All stages downstream of ``name`` (transitively)."""
        reached = {name}
        out = []
        for stage in self.topo_order():
            if stage.name != name and any(p in reached for p in stage.inputs):
                reached.add(stage.name)
                out.append(stage.name)
        return out

    def fingerprints(
        self, params: Mapping[str, Any]
    ) -> Dict[str, str]:
        """Content address of every stage for one parameter assignment.

        ``params`` maps stage names to their parameter objects; stages
        absent from the mapping use ``None`` (parameter-free).
        """
        fps: Dict[str, str] = {}
        for stage in self.topo_order():
            fps[stage.name] = fingerprint_stage(
                stage.name,
                stage.version,
                params.get(stage.name),
                {p: fps[p] for p in stage.inputs},
            )
        return fps

    def __repr__(self) -> str:
        return f"Pipeline({' -> '.join(s.name for s in self._stages.values())})"
