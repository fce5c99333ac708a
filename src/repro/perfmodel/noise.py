"""Reproducible measurement noise.

Real benchmark numbers jitter run to run (DVFS, scheduling, memory
placement).  The paper's dataset therefore contains a noise floor that the
clustering and classification stages must tolerate; reproducing it matters
for the "long tail of winners" structure (58 distinct best configurations).

The noise is *counter-based*: each shape has one 64-bit key, and the
factor for (config index ``c``, iteration ``i``) is a pure function of
that key and the counter ``(c, i)`` — a splitmix64 finaliser yields two
53-bit uniforms, Box–Muller turns them into a standard normal ``z``, and
the factor is ``exp(sigma * z)``.  Factors are therefore independent of
call order, of how many iterations are requested and of which other
configs share the call, so dataset generation is deterministic,
order-independent and safely parallelisable (the HPC guide's determinism
idiom), and a window of shapes by a whole row of configs is one NumPy
pass (:func:`noise_grid`).  The single-cell :func:`noise_factors` is the
one-shape, one-row case of the same function, so both agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.params import KernelConfig, config_index
from repro.utils.rng import derive_seed
from repro.workloads.gemm import GemmShape

__all__ = ["measurement_noise_factor", "noise_factors", "noise_grid"]

# splitmix64 constants (Steele, Lea & Flood 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (11, 27, 30, 31, 32))
#: Scale of a 53-bit integer onto [0, 1).
_UNIT = 2.0**-53
#: Iterations live in the low 32 bits of the counter.
_MAX_ITERATION = 1 << 32


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output finaliser, elementwise (wrapping uint64)."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def noise_grid(
    seed: int,
    shapes: Sequence[GemmShape],
    config_indices: Sequence[int],
    iterations: int,
    *,
    sigma: float,
    start_iteration: int = 0,
) -> np.ndarray:
    """Lognormal factors for many configs on many shapes.

    Returns a ``(len(shapes), len(config_indices), iterations)`` array
    whose entry ``[s, r]`` holds iterations ``start_iteration`` ..
    ``start_iteration + iterations - 1`` of canonical config
    ``config_indices[r]`` on ``shapes[s]``, each shape under its own key.
    """
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if start_iteration < 0:
        raise ValueError(f"start_iteration must be >= 0, got {start_iteration}")
    if start_iteration + iterations > _MAX_ITERATION:
        raise ValueError(f"iterations past {_MAX_ITERATION} are not addressable")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rows = np.asarray(config_indices, dtype=np.uint64)
    if sigma == 0:
        return np.ones((len(shapes), rows.size, iterations))
    # Key on the full identity tuple so shape subclasses with extra
    # coordinates (placement, sparse density) get independent draws.
    keys = np.array(
        [
            derive_seed(seed, "measurement-noise", *(int(v) for v in s.as_tuple()))
            for s in shapes
        ],
        dtype=np.uint64,
    )
    counter = (rows[:, None] << _S32) | np.arange(
        start_iteration, start_iteration + iterations, dtype=np.uint64
    )
    # Two splitmix64 steps per counter: states key + (2c+1)G, key + (2c+2)G.
    state = keys[:, None, None] + (counter + counter) * _GAMMA
    first = state + _GAMMA
    u1 = ((_mix(first) >> _S11) + np.uint64(1)) * _UNIT  # (0, 1]: log-safe
    u2 = (_mix(first + _GAMMA) >> _S11) * _UNIT
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.exp(sigma * z)


def noise_factors(
    seed: int,
    shape: GemmShape,
    config: KernelConfig,
    iterations: int,
    *,
    sigma: float,
    start_iteration: int = 0,
) -> np.ndarray:
    """Multiplicative lognormal factors for consecutive measurements.

    Returns factors for iterations ``start_iteration`` ..
    ``start_iteration + iterations - 1``: the one-cell case of
    :func:`noise_grid`, so the factor for a given iteration is
    independent of how many are requested at once.
    """
    return noise_grid(
        seed,
        (shape,),
        (config_index(config),),
        iterations,
        sigma=sigma,
        start_iteration=start_iteration,
    )[0, 0]


def measurement_noise_factor(
    seed: int,
    shape: GemmShape,
    config: KernelConfig,
    iteration: int,
    *,
    sigma: float,
) -> float:
    """The noise factor for one specific timing measurement."""
    return float(
        noise_factors(
            seed, shape, config, 1, sigma=sigma, start_iteration=iteration
        )[0]
    )
