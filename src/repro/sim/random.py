"""Seeded random streams.

Every stochastic component draws from its own :class:`RandomStream`
derived from a root seed and a string label, so adding a new random
consumer never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a child seed from a root seed and a label path.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per process and unusable here).
    """
    h = hashlib.sha256()
    h.update(str(root_seed).encode("utf-8"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


class RandomStream:
    """A named, independently seeded random number generator."""

    def __init__(self, root_seed: int, *labels: str) -> None:
        self.seed = derive_seed(root_seed, *labels)
        self._rng = random.Random(self.seed)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self._rng.randint(lo, hi)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def choice(self, seq):
        return self._rng.choice(seq)

    def expovariate(self, mean: float) -> float:
        """Exponentially distributed value with the given *mean*."""
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def geometric_run(self, mean_length: float) -> int:
        """Geometrically distributed run length with the given mean (>= 1)."""
        if mean_length <= 1.0:
            return 1
        p = 1.0 / mean_length
        length = 1
        while self._rng.random() > p:
            length += 1
            if length >= 1_000_000:  # guard against pathological parameters
                break
        return length

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)
