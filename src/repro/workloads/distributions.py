"""Key distributions.

``ZipfianGenerator`` implements the Gray et al. quick Zipfian sampler used
by YCSB, parameterized by the skew ``theta`` (the paper's ``S``).  The
scrambled variant hashes the rank so popular keys spread across the key
space (YCSB's default behaviour); the plain variant keeps popular keys
clustered at the low end, which is what gives skewed reads their *spatial*
locality.
"""

from __future__ import annotations

import random

from repro.lsm.bloom import fnv1a


class ZipfianGenerator:
    """Zipfian-distributed ranks in ``[0, n)``; rank 0 is the most popular."""

    def __init__(self, n: int, theta: float = 0.7, seed: int = 0) -> None:
        if n < 1:
            raise ValueError(f"population must be positive, got {n}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # With n <= 2, ``u * zetan`` stays below ``1 + 0.5**theta``, so every
        # draw takes one of the two early branches of ``next`` and eta is
        # never read (at n == 2 its formula would divide by zero).
        self._eta = (
            (1 - (2.0 / n) ** (1 - theta)) / (1 - self._zeta2 / self._zetan) if n > 2 else 0.0
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / i**theta for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)

    def __iter__(self):
        while True:
            yield self.next()


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the key space by hashing (YCSB-style)."""

    def __init__(self, n: int, theta: float = 0.7, seed: int = 0) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        rank = self._zipf.next()
        return fnv1a(rank.to_bytes(8, "big")) % self.n


class LatestGenerator:
    """Skewed toward the most recently inserted keys (YCSB workload D).

    ``max_key`` tracks the insertion frontier; draws are Zipfian distances
    back from it.
    """

    def __init__(self, initial_max: int, theta: float = 0.7, seed: int = 0) -> None:
        self.max_key = initial_max
        self._zipf = ZipfianGenerator(max(initial_max, 1), theta, seed)

    def note_insert(self, key: int) -> None:
        if key > self.max_key:
            self.max_key = key

    def next(self) -> int:
        back = self._zipf.next()
        return max(0, self.max_key - back)
