"""Deterministic, hierarchical random-number streams.

The benchmark substrate must reproduce the *identical* performance table on
every run (DESIGN.md section 5).  To get that without threading a single
mutable generator through the whole system — which would make results depend
on call order and break any parallel execution — we derive independent
streams from a root seed and a tuple of string/int keys, using NumPy's
``SeedSequence`` spawning-by-key mechanism.

Example
-------
>>> r1 = stream(42, "noise", "shape", 3, "config", 17)
>>> r2 = stream(42, "noise", "shape", 3, "config", 17)
>>> float(r1.standard_normal()) == float(r2.standard_normal())
True
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

Key = Union[int, str]

__all__ = ["derive_seed", "derive_seeds", "key_prefix", "rng_from", "stream"]


def _key_bytes(*keys: Key) -> bytes:
    parts = []
    for key in keys:
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise TypeError(f"stream keys must be int or str, got {type(key).__name__}")
        parts.append(str(key).encode("utf-8"))
    return b"\x1f".join(parts)


def derive_seed(root: int, *keys: Key) -> int:
    """Derive a 64-bit child seed from ``root`` and a key path.

    The derivation is a SHA-256 hash of the key path mixed with the root
    seed, so it is stable across processes, platforms and Python versions
    (unlike ``hash()``).
    """
    digest = hashlib.sha256(
        root.to_bytes(16, "little", signed=True) + b"|" + _key_bytes(*keys)
    ).digest()
    return int.from_bytes(digest[:8], "little")


def key_prefix(root: int, *keys: Key) -> bytes:
    """The bytes :func:`derive_seed` hashes for ``root`` and a leading
    key path, up to the separator before the next key."""
    return root.to_bytes(16, "little", signed=True) + b"|" + _key_bytes(*keys) + b"\x1f"


def derive_seeds(prefixes: Sequence[bytes], *keys: Key) -> np.ndarray:
    """:func:`derive_seed` for many key paths sharing their trailing keys.

    Element ``i`` of ``derive_seeds([key_prefix(root, *head_i), ...],
    *tail)`` equals ``derive_seed(root, *head_i, *tail)`` as a
    ``uint64``: the prefixes are encoded once by the caller and the
    shared tail once here, so only the SHA-256 runs per element.
    """
    tail = _key_bytes(*keys)
    sha = hashlib.sha256
    digests = b"".join([sha(prefix + tail).digest() for prefix in prefixes])
    # Each digest is four little-endian words; the seed is the first.
    return np.frombuffer(digests, dtype="<u8")[::4].astype(np.uint64)


def stream(root: int, *keys: Key) -> np.random.Generator:
    """Return an independent ``numpy.random.Generator`` for a key path.

    Streams for different key paths are statistically independent; streams
    for identical key paths are bit-identical.
    """
    return np.random.default_rng(np.random.SeedSequence(derive_seed(root, *keys)))


def rng_from(
    random_state: Union[None, int, np.random.Generator],
) -> np.random.Generator:
    """Coerce the usual ``random_state`` argument forms into a Generator.

    ``None`` yields a nondeterministic generator; an ``int`` seeds a fresh
    generator; an existing ``Generator`` is passed through unchanged.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )
