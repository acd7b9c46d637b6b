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
template ``PAIR``, the one definition of its arithmetic, rendered one
way only, with its parameters as literals (``pair_source``), and only
by the model kernel, which inlines it.  ``PointMass`` writes its
template out for its own k, over the values of its coordinate that the
kernel defines for a table row too (``power_sum``).  A family's
``survival(d)`` and ``pgf_diff(da, delta)`` are the two results of one
``terminal`` step of the one-type spec whose only law is the family.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property


# A PAIR template is straight-line code over the fields {da} and {delta}
# (coordinate j's complement and gap), {l}, {a} and {h} (its values that
# the kernel defines), {t} (a prefix for temporaries) and the family's
# own dataclass fields; it leaves its results in {sa}, sb and {gap}.  No
# line but sb's reads {da} after {sa} or {delta} after {gap} is set, so
# a last factor, which drops sb, may write its results over its inputs,
# as each kernel loop does for a lone factor; a result that is its input
# unchanged is then no statement at all.  A parameter
# enters as ``{mean}`` where it is an operand and as ``{mean:*}x`` where
# it multiplies x: the rendering writes the product of a literal 1.0 as
# plain x, which is the same bits (and ``-x`` for ``-{mean:*}x``).


def _fields_only(self) -> dict:
    # pickled state: the fields only; compiled code does not pickle,
    # and cached values are rebuilt on first use after unpickling
    return {f.name: getattr(self, f.name) for f in fields(self)}


class _Param:
    """How a parameter is written into a rendered template: its literal,
    and ``literal * `` before a factor, or nothing when it is one."""

    def __init__(self, value):
        # float() makes a numpy float, whose repr is no literal, a plain one
        self.text = repr(float(value) if isinstance(value, float) else value)
        self.one = value == 1

    def __format__(self, spec: str) -> str:
        if spec == "*":
            return "" if self.one else f"{self.text} * "
        return self.text


def pair_source(law: Marginal, j: int, *, sa: str = "sa", gap: str = "gap",
                last: bool = False) -> str:
    """``law``'s ``PAIR`` template with its parameters as literals, over
    coordinate ``j`` (d{j}, e{j} and the kernel's l{j}, a{j} and h{j}),
    its temporaries prefixed with c{j}_, leaving its results in ``sa``,
    ``sb`` and ``gap``; a line that would assign a name to itself is
    left out, and so is a ``last`` factor's sb, which nothing reads."""
    params = {f.name: _Param(getattr(law, f.name)) for f in fields(law)}
    text = law.PAIR.format(da=f"d{j}", delta=f"e{j}", l=f"l{j}", a=f"a{j}",
                           h=f"h{j}", t=f"c{j}_", sa=sa, gap=gap, **params)
    return "".join(line for line in text.splitlines(keepends=True)
                   if (parts := line.rstrip().partition(" = "))[0] != parts[2]
                   and not (last and parts[0] == "sb"))


def power(base: str, c: int) -> str:
    return base if c == 1 else f"{base} ** {c}"


def power_sum(a: str, h: str, c: int) -> str:
    """The sum in ``power_diff(a, e, c)``, sum_t a^t h^(c-1-t) over
    t = 0..c-1 with h = max(a - e, 0), as source over the names ``a``
    and ``h``, in its loop's order.  The powers 0, which are exactly
    1.0, and the leading 0.0 are left out: h ** (c-1) is never -0.0."""
    terms = []
    for t in range(c):
        powers = [power(a, t)] if t else []
        if t < c - 1:
            powers.append(power(h, c - 1 - t))
        terms.append(" * ".join(powers))
    return " + ".join(terms)


class _Family:
    """What every family shares: its two probes, one step of its own
    kernel, and fields-only pickling."""

    __getstate__ = _fields_only

    @cached_property
    def _terminal(self):
        """``terminal`` of the one-type spec whose only law is this family."""
        from .model import ProcessSpec, ProductLaw  # model imports families

        law = ProductLaw(parent=1, children={1: self})
        return ProcessSpec(n_types=1, laws=(law,), name=repr(self)).kernel.terminal

    def survival(self, d: float) -> float:
        return self._terminal(d, 0.0, 1)[0]

    def pgf_diff(self, da: float, delta: float) -> float:
        return self._terminal(da, delta, 1)[1]


@dataclass(frozen=True)
class Geometric(_Family):
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


@dataclass(frozen=True)
class Poisson(_Family):
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

    @property
    def second_factorial_moment(self) -> float:
        return self.mean * self.mean

    def sample_sum(self, z, rng):
        return rng.poisson(self.mean * z)


@dataclass(frozen=True)
class Bernoulli(_Family):
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

    @property
    def mean(self) -> float:
        return self.p

    @property
    def second_factorial_moment(self) -> float:
        return 0.0

    def sample_sum(self, z, rng):
        return rng.binomial(z, self.p)


@dataclass(frozen=True)
class PointMass(_Family):
    """Deterministic count; pgf(s) = s ** k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError(f"point mass needs a nonnegative integer, got {self.k}")

    def pgf(self, s: float) -> float:
        return s**self.k

    @property
    def PAIR(self) -> str:
        """The template for k >= 1 (a product leaves k = 0 out): the gap,
        ``power_diff(a, delta, k)`` written out, then 1 - (1 - x)^k =
        -expm1(k log(1 - x)) at x = da from l (-inf at da = 1 gives 1),
        and at x = da + delta, pinned at 1."""
        gap = "{gap} = {delta}\n" if self.k == 1 else (
            "{gap} = {delta} * (" + power_sum("{a}", "{h}", self.k) + ")\n")
        return gap + ("{sa} = -expm1({k:*}{l})\n"
                      "sb = 1.0 if {da} + {delta} >= 1.0 else "
                      "-expm1({k:*}log1p(-({da} + {delta})))\n")

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
