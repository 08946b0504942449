"""Deterministic, key-seeded pseudo-random number generator.

Data generation (:mod:`repro.datagen`) and the attack simulators
(:mod:`repro.attacks`) need reproducible randomness: the same seed must
produce the same synthetic table and the same attacked table on every run so
that experiments are repeatable bit-for-bit.  ``random.Random`` would satisfy
that, but its Mersenne-Twister state is not derivable from small structured
seeds such as ``("fig12a", eta, trial)``; this wrapper hashes an arbitrary
seed object into the stream and offers the handful of distributions the
library needs.

The generator is a simple counter-mode SHA-256 stream, which is plenty fast
for the table sizes used here and, unlike ``random.Random``, never changes
behaviour across Python versions.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence, TypeVar

__all__ = ["DeterministicPRNG"]

T = TypeVar("T")


class DeterministicPRNG:
    """A small deterministic PRNG keyed by an arbitrary seed object."""

    def __init__(self, seed: object) -> None:
        self._seed_bytes = repr(seed).encode("utf-8")
        self._counter = 0
        self._buffer = b""
        self._gauss_spare: float | None = None

    # ------------------------------------------------------------------ bytes
    def _refill(self) -> None:
        block = hashlib.sha256(self._seed_bytes + b"|" + str(self._counter).encode()).digest()
        self._counter += 1
        self._buffer += block

    def random_bytes(self, n: int) -> bytes:
        """Return *n* pseudo-random bytes."""
        if n < 0:
            raise ValueError("n must be non-negative")
        while len(self._buffer) < n:
            self._refill()
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    # --------------------------------------------------------------- numbers
    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        value = int.from_bytes(self.random_bytes(7), "big") >> 3
        return value / (1 << 53)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError("high must be >= low")
        span = high - low + 1
        # Rejection sampling to avoid modulo bias.
        n_bytes = max(1, (span.bit_length() + 7) // 8)
        limit = (1 << (8 * n_bytes)) // span * span
        while True:
            value = int.from_bytes(self.random_bytes(n_bytes), "big")
            if value < limit:
                return low + (value % span)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return low + (high - low) * self.random()

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Normally distributed float (Box–Muller)."""
        if self._gauss_spare is not None:
            spare, self._gauss_spare = self._gauss_spare, None
            return mu + sigma * spare
        while True:
            u1 = self.random()
            if u1 > 0.0:
                break
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._gauss_spare = radius * math.sin(2.0 * math.pi * u2)
        return mu + sigma * radius * math.cos(2.0 * math.pi * u2)

    # ------------------------------------------------------------ collections
    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive number")
        target = self.random() * total
        cumulative = 0.0
        for item, weight in zip(items, weights):
            if weight < 0:
                raise ValueError("weights must be non-negative")
            cumulative += weight
            if target < cumulative:
                return item
        return items[-1]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Return *k* distinct elements chosen without replacement."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > len(items):
            raise ValueError("sample size larger than population")
        pool = list(items)
        out: list[T] = []
        for _ in range(k):
            index = self.randint(0, len(pool) - 1)
            out.append(pool.pop(index))
        return out

    def shuffle(self, items: list[T]) -> None:
        """Shuffle *items* in place (Fisher–Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def subset_indices(self, n: int, fraction: float) -> list[int]:
        """Return sorted indices of a random subset of ``range(n)``.

        The subset size is ``round(n * fraction)``; used by the attack
        simulators that operate on "a fraction of the tuples".
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        size = int(round(n * fraction))
        return sorted(self.sample(range(n), size))

    def spawn(self, label: object) -> "DeterministicPRNG":
        """Create an independent child generator identified by *label*."""
        return DeterministicPRNG((repr(self._seed_bytes), label))

    def zipf_index(self, n: int, exponent: float = 1.1) -> int:
        """Return an index in ``[0, n)`` following a Zipf-like distribution.

        Used by the data generator to produce realistically skewed categorical
        marginals (a few very common symptoms, a long tail of rare ones).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        return self.weighted_choice(list(range(n)), weights)
