"""The "compiled library": a pruned set of kernel instantiations.

A SYCL library ships each kernel's intermediate representation inside the
binary, so every extra template instantiation costs build time and library
size — the pressure that motivates pruning in the first place.  This
module models that cost: a :class:`KernelLibrary` holds the configurations
chosen by a pruning technique, deduplicates the *compiled* templates
(work-group shape is a runtime parameter), accounts for the binary bytes
they occupy, and dispenses ready-to-launch kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kernels.families import make_kernel
from repro.kernels.matmul import TiledMatmulKernel
from repro.kernels.params import KernelConfig
from repro.sycl.kernel import Kernel
from repro.workloads.gemm import GemmShape

__all__ = ["CompiledKernel", "KernelLibrary"]

#: Fixed per-library overhead (runtime glue, symbol tables), bytes.
_LIBRARY_BASE_BYTES = 96 * 1024
#: Base IR size of one instantiated matmul template, bytes.
_KERNEL_BASE_BYTES = 10 * 1024
#: Extra IR bytes per fully unrolled inner-loop FMA (code growth with
#: tile volume: the compiler unrolls rows x cols x acc updates).
_BYTES_PER_UNROLLED_FMA = 28


@dataclass(frozen=True)
class CompiledKernel:
    """One template instantiation bundled into the library binary."""

    template_key: Tuple[int, int, int]  # (acc, rows, cols)

    @property
    def ir_bytes(self) -> int:
        acc, rows, cols = self.template_key
        return _KERNEL_BASE_BYTES + _BYTES_PER_UNROLLED_FMA * acc * rows * cols


class KernelLibrary:
    """A deployable set of configurations with library-size accounting."""

    def __init__(self, configs: Iterable[KernelConfig]):
        configs = list(configs)
        if not configs:
            raise ValueError("a kernel library must contain at least one config")
        seen = set()
        ordered: List[KernelConfig] = []
        for cfg in configs:
            if cfg not in seen:
                seen.add(cfg)
                ordered.append(cfg)
        self._configs: Tuple[KernelConfig, ...] = tuple(ordered)
        self._compiled: Dict[Tuple[int, int, int], CompiledKernel] = {}
        for cfg in self._configs:
            self._compiled.setdefault(
                cfg.template_key, CompiledKernel(cfg.template_key)
            )

    @property
    def configs(self) -> Tuple[KernelConfig, ...]:
        """The selectable configurations, in insertion order."""
        return self._configs

    @property
    def num_configs(self) -> int:
        return len(self._configs)

    @property
    def num_compiled(self) -> int:
        return len(self._compiled)

    @property
    def binary_bytes(self) -> int:
        """Modelled library size: base plus the bundled kernels' IR."""
        return _LIBRARY_BASE_BYTES + sum(
            ck.ir_bytes for ck in self._compiled.values()
        )

    def __contains__(self, config: KernelConfig) -> bool:
        return config in set(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def index_of(self, config: KernelConfig) -> int:
        try:
            return self._configs.index(config)
        except ValueError:
            raise KeyError(f"{config} is not in this library") from None

    def kernel(
        self, config: KernelConfig, shape: Optional[GemmShape] = None
    ) -> Kernel:
        """Instantiate a launchable kernel for one bundled configuration.

        With a ``shape``, the family-appropriate kernel is dispensed
        (GEMV for vector-shaped problems, the batched kernel for
        ``batch > 1`` stacks — see :mod:`repro.kernels.families`);
        without one, the general tiled matmul.
        """
        if config not in self:
            raise KeyError(
                f"{config} is not bundled in this library "
                f"({self.num_configs} configs available)"
            )
        return make_kernel(config, shape)

    def kernel_by_index(self, index: int) -> TiledMatmulKernel:
        return TiledMatmulKernel(self._configs[index])

    def __repr__(self) -> str:
        return (
            f"KernelLibrary({self.num_configs} configs, "
            f"{self.num_compiled} compiled templates, "
            f"{self.binary_bytes / 1024:.0f} KiB)"
        )
