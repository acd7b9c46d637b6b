"""Single-coordinate offspring count distributions.

Each family knows its generating function, low-order moments, a
cancellation-free paired form, and how to draw the sum of ``z``
independent copies in one call (``z`` an int, or an array of positive
parent counts drawn elementwise).

The paired form is the primitive the exact engine is built on.  With
``a = 1 - da`` and ``b = a - delta`` it gives, sharing its
intermediates, the survival forms ``1 - pgf(a)`` and ``1 - pgf(b)`` and
the difference form ``pgf(a) - pgf(b)``: all three stay accurate when
their inputs are 1e-300-sized, where the naive expressions would return
zero or noise.  Each family writes it once, as the straight-line source
template ``PAIR``, the one definition of its arithmetic: the family's
``pair(da, delta)`` method is compiled from it, reading the parameters
off ``self``, and the model kernel inlines it with the parameters as
literals where they are used, a factor of 1.0 left out
(``pair_source``).  ``survival(d)`` and ``pgf_diff(da, delta)`` are
projections of ``pair``.
"""

from __future__ import annotations

import math
import numbers
import textwrap
from dataclasses import dataclass, fields

from .numerics import compile_step


# A PAIR template is straight-line code over the fields {da} and {delta}
# (the names of the inputs), {t} (a prefix for temporaries) and the
# family's own dataclass fields; it leaves its results in {sa}, sb and
# {gap}.  No line but sb's reads {da} after {sa} or {delta} after {gap}
# is set, so a last factor, which drops sb, may write its results over
# its inputs, as each kernel loop does for a lone factor.  A parameter
# enters as ``{mean}`` where it is an operand and as ``{mean:*}x`` where
# it multiplies x: the kernel writes the product of a literal 1.0 as
# plain x, which is the same bits (and ``-x`` for ``-{mean:*}x``).


class _Param:
    """How a parameter is written into a rendered template: ``text``,
    and ``text * `` before a factor, or nothing when it is the literal
    one."""

    def __init__(self, text: str, one: bool = False):
        self.text, self.one = text, one

    def __format__(self, spec: str) -> str:
        if spec == "*":
            return "" if self.one else f"{self.text} * "
        return self.text


def _paired(cls):
    """Compile the family's ``pair`` method from its ``PAIR`` template."""
    names = [f.name for f in fields(cls)]
    body = cls.PAIR.format(da="da", delta="delta", t="", sa="sa", gap="gap",
                           **{name: _Param(name) for name in names})
    source = ("def pair(self, da, delta):\n"
              + "".join(f"    {name} = self.{name}\n" for name in names)
              + textwrap.indent(body, "    ") + "    return sa, sb, gap\n")
    cls.pair = compile_step(source, f"{cls.__name__}.pair")["pair"]
    cls.pair.__qualname__ = f"{cls.__name__}.pair"
    return cls


def pair_source(law: Marginal, da: str, delta: str, prefix: str, *,
                sa: str = "sa", gap: str = "gap") -> str:
    """``law``'s ``PAIR`` template with its parameters as literals,
    reading the names ``da`` and ``delta``, its temporaries prefixed
    with ``prefix``, leaving its results in ``sa``, ``sb`` and ``gap``."""
    params = {}
    for f in fields(law):
        v = getattr(law, f.name)
        # float() makes a numpy float, whose repr is no literal, a plain one
        params[f.name] = _Param(repr(float(v) if isinstance(v, float) else v),
                                one=v == 1)
    return law.PAIR.format(da=da, delta=delta, t=prefix, sa=sa, gap=gap,
                           **params)


@_paired
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

    PAIR = """\
{t}up = 1.0 + {mean:*}{da}
{t}low = 1.0 + {mean:*}({da} + {delta})
{sa} = {mean:*}{da} / {t}up
sb = {mean:*}({da} + {delta}) / {t}low
{gap} = {mean:*}{delta} / ({t}up * {t}low)
"""

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def second_factorial_moment(self) -> float:
        return 2.0 * self.mean * self.mean

    def sample_sum(self, z, rng):
        # sum of z geometrics = negative binomial with z successes,
        # which numpy rejects for z = 0 (arrays hold positive counts;
        # numpy registers its integer scalars as numbers.Integral)
        if isinstance(z, numbers.Integral) and z == 0:
            return 0
        return rng.negative_binomial(z, 1.0 / (1.0 + self.mean))


@_paired
@dataclass(frozen=True)
class Poisson:
    """Poisson law; pgf(s) = exp(mean * (s - 1))."""

    mean: float

    def __post_init__(self):
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"poisson mean must be positive, got {self.mean}")

    def pgf(self, s: float) -> float:
        return math.exp(self.mean * (s - 1.0))

    # the gap is exp(-mean*da) - exp(-mean*(da+delta)), both exponents <= 0
    PAIR = """\
{t}xa = -{mean:*}{da}
{sa} = -expm1({t}xa)
sb = -expm1(-{mean:*}({da} + {delta}))
{gap} = exp({t}xa) * -expm1(-{mean:*}{delta})
"""

    def survival(self, d: float) -> float:
        return self.pair(d, 0.0)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self.pair(da, delta)[2]

    @property
    def second_factorial_moment(self) -> float:
        return self.mean * self.mean

    def sample_sum(self, z, rng):
        return rng.poisson(self.mean * z)


@_paired
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

    PAIR = """\
{sa} = {p:*}{da}
sb = {p:*}({da} + {delta})
{gap} = {p:*}{delta}
"""

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


@_paired
@dataclass(frozen=True)
class PointMass:
    """Deterministic count; pgf(s) = s ** k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError(f"point mass needs a nonnegative integer, got {self.k}")

    def pgf(self, s: float) -> float:
        return s**self.k

    # the gap comes first: it reads {da}, which {sa} may overwrite
    PAIR = """\
{gap} = power_diff(1.0 - {da}, {delta}, {k})
{sa} = power_complement({da}, {k})
sb = power_complement({da} + {delta}, {k})
"""

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
