"""Single-coordinate offspring count distributions.

Each family knows its generating function, low-order moments, a
cancellation-free paired form, and how to draw the sum of ``z``
independent copies in one call (``z`` an int, or an array of positive
parent counts drawn elementwise).
``pgf`` also accepts mpmath numbers, for the extended-precision table.

The paired form ``pair(da, delta)`` is the primitive the exact engine is
built on.  With ``a = 1 - da`` and ``b = a - delta`` it returns, in one
call that shares its intermediates, the survival forms ``1 - pgf(a)``
and ``1 - pgf(b)`` and the difference form ``pgf(a) - pgf(b)``: all
three stay accurate when their inputs are 1e-300-sized, where the
naive expressions would return zero or noise.  ``survival(d)`` and
``pgf_diff(da, delta)`` are its projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import power_complement, power_diff


@dataclass(frozen=True)
class Geometric:
    """Geometric law on {0, 1, 2, ...} parameterised by its mean.

    pgf(s) = 1 / (1 + mean * (1 - s)); variance = mean * (1 + mean).
    """

    mean: float

    def __post_init__(self):
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"geometric mean must be positive, got {self.mean}")

    def pgf(self, s: float) -> float:
        return 1.0 / (1.0 + self.mean * (1.0 - s))

    def pair(self, da: float, delta: float) -> tuple[float, float, float]:
        m = self.mean
        ma = m * da
        mb = m * (da + delta)
        up = 1.0 + ma
        low = 1.0 + mb
        return ma / up, mb / low, m * delta / (up * low)

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def second_factorial_moment(self) -> float:
        return 2.0 * self.mean * self.mean

    def sample_sum(self, z, rng):
        # sum of z geometrics = negative binomial with z successes,
        # which numpy rejects for z = 0 (arrays hold positive counts)
        if not isinstance(z, np.ndarray) and z == 0:
            return 0
        return rng.negative_binomial(z, 1.0 / (1.0 + self.mean))


@dataclass(frozen=True)
class Poisson:
    """Poisson law; pgf(s) = exp(mean * (s - 1))."""

    mean: float

    def __post_init__(self):
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"poisson mean must be positive, got {self.mean}")

    def pgf(self, s: float) -> float:
        # an mpmath argument brings its own exp
        return getattr(s, "context", math).exp(self.mean * (s - 1.0))

    def pair(self, da: float, delta: float) -> tuple[float, float, float]:
        m = -self.mean
        xa = m * da
        # exp(-m*da) - exp(-m*(da+delta)), both exponents <= 0
        return (-math.expm1(xa), -math.expm1(m * (da + delta)),
                math.exp(xa) * -math.expm1(m * delta))

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def second_factorial_moment(self) -> float:
        return self.mean * self.mean

    def sample_sum(self, z, rng):
        return rng.poisson(self.mean * z)


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli law on {0, 1}; pgf(s) = 1 - p + p * s."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"bernoulli parameter must be in [0,1], got {self.p}")

    def pgf(self, s: float) -> float:
        # never forms 1 - p, which would round before s is seen
        return 1.0 + self.p * (s - 1.0)

    def pair(self, da: float, delta: float) -> tuple[float, float, float]:
        p = self.p
        return p * da, p * (da + delta), p * delta

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def mean(self) -> float:
        return self.p

    @property
    def second_factorial_moment(self) -> float:
        return 0.0

    def sample_sum(self, z, rng):
        return rng.binomial(z, self.p)


@dataclass(frozen=True)
class PointMass:
    """Deterministic count; pgf(s) = s ** k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError(f"point mass needs a nonnegative integer, got {self.k}")

    def pgf(self, s: float) -> float:
        return s**self.k

    def pair(self, da: float, delta: float) -> tuple[float, float, float]:
        k = self.k
        return (power_complement(da, k), power_complement(da + delta, k),
                power_diff(1.0 - da, delta, k))

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def mean(self) -> float:
        return float(self.k)

    @property
    def second_factorial_moment(self) -> float:
        return float(self.k * (self.k - 1))

    def sample_sum(self, z, rng):
        return z * self.k


Marginal = Geometric | Poisson | Bernoulli | PointMass

def marginal_from_config(family: str, params: dict) -> Marginal:
    """Build a marginal from its config-file representation."""
    if family == "geometric":
        return Geometric(float(params["mean"]))
    if family == "poisson":
        return Poisson(float(params["mean"]))
    if family == "bernoulli":
        return Bernoulli(float(params["p"]))
    if family == "pointmass":
        return PointMass(int(params["k"]))
    raise ValueError(f"unknown family '{family}'")
