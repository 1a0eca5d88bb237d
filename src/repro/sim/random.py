"""Deterministic randomness for simulations.

Jitter, launch latency and fault plans draw from :class:`Generator
<numpy.random.Generator>` instances produced here; stack walks take a
root key from here (:func:`repro.core.sampling.walk_words`).  A
:class:`SeedStream` derives independent child generators from a root
seed plus a string label, so a new random consumer never perturbs the
draws seen by existing ones — essential for stable regression tests.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a NumPy ``Generator`` from an integer seed (None = OS entropy)."""
    return np.random.default_rng(seed)


def _derive_seed(root_seed: int, label: str) -> int:
    """Stable 64-bit seed derived from ``(root_seed, label)`` via SHA-256."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class SeedStream:
    """Factory of independent, label-addressed child RNGs.

    >>> stream = SeedStream(208_000)
    >>> a = stream.rng("nfs-jitter")
    >>> b = stream.rng("launch-latency")
    >>> a is not b
    True

    The same ``(seed, label)`` pair always yields an identically seeded
    generator, regardless of creation order.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)

    def rng(self, label: str) -> np.random.Generator:
        """Return a fresh generator for ``label``."""
        return np.random.default_rng(_derive_seed(self.root_seed, label))

    def child(self, label: str) -> "SeedStream":
        """Return a derived stream namespaced under ``label``."""
        return SeedStream(_derive_seed(self.root_seed, label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedStream(root_seed={self.root_seed})"
