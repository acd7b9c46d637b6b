"""Reference paired step: the interpretive loops the compiled kernel replaced.

Each family's fused ``pair``, each law shape's paired step
(``pair_step``, with the product survival's pin and clamp at 1 that the
kernel leaves out), the in-place sweep, the table loop and the terminal
chain (one scalar pair per step, of the terminal law's own family or
own-type column, read off the law), as plain Python loops over the
model objects.  The engine compiles the same arithmetic into one
straight-line kernel per model, the model's only stepper; the tests
require it to agree with these bit for bit.  The sweep and the chain
take an input of -0.0 as +0.0, as the kernel does at its entry; the
steps keep their sums from 0.0, which the kernel leaves out.

A point mass steps through ``power_complement``, kept here as the
reference form of the survival that the kernel writes out, and
``numerics.power_diff``, the reference form of its gap; the engine
calls neither.

Apart from those stands the 40-digit table (``extended_table``): plain
iteration of each law's pgf, written out again in mpmath (``mp_pgf``),
so it shares no code with the engine it checks.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import ProductLaw
from branchlab.numerics import neumaier_sum, power_diff


def power_complement(base_complement: float, k: int) -> float:
    """1 - (1 - d)^k without cancellation, for d in [0, 1], k >= 0."""
    if k == 0:
        return 0.0
    if base_complement >= 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-base_complement))


def family_pair(law, da: float, delta: float) -> tuple[float, float, float]:
    """(1 - f(a), 1 - f(b), f(a) - f(b)) for a = 1 - da, b = a - delta."""
    if isinstance(law, Geometric):
        m = law.mean
        ma = m * da
        mb = m * (da + delta)
        up = 1.0 + ma
        low = 1.0 + mb
        return ma / up, mb / low, m * delta / (up * low)
    if isinstance(law, Poisson):
        m = -law.mean
        xa = m * da
        return (-math.expm1(xa), -math.expm1(m * (da + delta)),
                math.exp(xa) * -math.expm1(m * delta))
    if isinstance(law, Bernoulli):
        p = law.p
        return p * da, p * (da + delta), p * delta
    assert isinstance(law, PointMass)
    k = law.k
    return (power_complement(da, k), power_complement(da + delta, k),
            power_diff(1.0 - da, delta, k))


def own_column_pair(rows, da: float, delta: float
                    ) -> tuple[float, float, float]:
    """A table law's own-type column, (count, probability) pairs, laid
    out like a family's pair; the survival at b is returned as the
    survival at a plus the gap, equal in exact arithmetic, and never
    read."""
    a = 1.0 - da
    sa = neumaier_sum(p * power_complement(da, c) for c, p in rows)
    gap = neumaier_sum(p * power_diff(a, delta, c) for c, p in rows)
    return sa, sa + gap, gap


def own_column(law) -> list[tuple[int, float]]:
    """A table law's own-type column: (count, probability) per row, in
    row order."""
    return [(counts[law.parent - 1], p) for counts, p in law.rows]


def terminal_pair(spec, da: float, delta: float,
                  steps: int) -> tuple[float, float]:
    """The terminal chain's (complement, gap) pair after ``steps`` steps,
    one scalar pair per step: the terminal law's own family (a point
    mass at 0 when it has none) or its own-type column."""
    law = spec.laws[-1]
    da, delta = da + 0.0, delta + 0.0
    for _ in range(steps):
        if isinstance(law, ProductLaw):
            own = law.children.get(law.parent, PointMass(0))
            da, _, delta = family_pair(own, da, delta)
        else:
            da, _, delta = own_column_pair(own_column(law), da, delta)
    return da, delta


def product_pair_step(law, da, delta) -> tuple[float, float]:
    acc = 0.0
    total = 0.0
    lower = 1.0
    for child, family in law.children.items():
        j = child - 1
        sa, sb, gap = family_pair(family, da[j], delta[j])
        # running telescope: earlier factors at b, later ones at a
        total = total * (1.0 - sa) + lower * gap
        lower *= 1.0 - sb
        acc = 1.0 if sa >= 1.0 else acc + sa * (1.0 - acc)
    return 1.0 if 1.0 < acc else acc, total


def table_pair_step(law, da, delta) -> tuple[float, float]:
    a = [1.0 - x for x in da]
    b = [1.0 - (x + y) for x, y in zip(da, delta)]
    logs = [math.log1p(-x) if x < 1.0 else -math.inf for x in da]
    survs = []
    gaps = []
    for counts, p in law.rows:
        nz = [(j, c) for j, c in enumerate(counts) if c]
        expo = 0
        row = 0.0
        for k, (j, c) in enumerate(nz):
            expo += c * logs[j]
            step = power_diff(a[j], delta[j], c)
            for l, cl in nz[:k]:
                step *= b[l] ** cl
            for l, cl in nz[k + 1:]:
                step *= a[l] ** cl
            row += step
        survs.append(p * -math.expm1(expo))
        gaps.append(p * row)
    return neumaier_sum(survs), neumaier_sum(gaps)


def pair_step(law, da, delta) -> tuple[float, float]:
    if isinstance(law, ProductLaw):
        return product_pair_step(law, da, delta)
    return table_pair_step(law, da, delta)


def advance_pair(spec, da, delta, steps):
    """The in-place sweep: coordinate i is overwritten as soon as law i
    has stepped."""
    da, delta = [x + 0.0 for x in da], [x + 0.0 for x in delta]
    for _ in range(steps):
        for i, law in enumerate(spec.laws):
            da[i], delta[i] = pair_step(law, da, delta)
    return tuple(da), tuple(delta)


def survival_table(spec, n_max):
    """(d, pmf, truncated_at) of the table build, with its stall check."""
    n_types = spec.n_types
    d = np.empty((n_types, n_max + 1))
    pmf = np.zeros((n_types, n_max + 1))
    da = [1.0] * n_types
    pi = [law.pgf([0.0] * n_types) for law in spec.laws]
    d[:, 0] = da
    truncated_at = None
    for n in range(1, n_max + 1):
        for i, law in enumerate(spec.laws):
            new, gap = pair_step(law, da, pi)
            if n > 1:
                pi[i] = gap
            cur = da[i]
            if (new > cur or not (new > 0.0)
                    or (cur < 1.0 and (new == cur or not (pi[i] > 0.0)))):
                truncated_at = n
                break
            da[i] = d[i, n] = new
            pmf[i, n] = pi[i]
        if truncated_at is not None:
            d[:, n:] = np.nan
            pmf[:, n:] = np.nan
            break
    return d, pmf, truncated_at


def mp_pgf(marg, x):
    """A family's pgf at the mpmath point x, at the working precision."""
    if isinstance(marg, Geometric):
        return 1 / (1 + mp.mpf(marg.mean) * (1 - x))
    if isinstance(marg, Poisson):
        return mp.exp(mp.mpf(marg.mean) * (x - 1))
    if isinstance(marg, Bernoulli):
        return 1 - mp.mpf(marg.p) + mp.mpf(marg.p) * x
    return x**marg.k


def mp_law_pgf(law, x):
    """A law's pgf at the mpmath vector x: the product of its child
    factors, or the table rows summed with ``mp.fsum``."""
    if isinstance(law, ProductLaw):
        return mp.fprod(mp_pgf(family, x[child - 1])
                        for child, family in law.children.items())
    return mp.fsum(p * mp.fprod(x[j] ** c for j, c in enumerate(counts) if c)
                   for counts, p in law.rows)


def extended_table(spec, n_max):
    """(d, pmf) for n = 0..n_max by plain iteration q(n) = f(q(n-1)) at
    40 digits, each entry rounded once to a double.  The cancellations
    in 1 - q and q(n) - q(n-1) that the engine's paired orbit avoids
    cost nothing at this precision for any horizon a test builds."""
    n_types = spec.n_types
    d = np.empty((n_types, n_max + 1))
    pmf = np.zeros((n_types, n_max + 1))
    d[:, 0] = 1.0
    with mp.workdps(40):
        q = [mp.mpf(0)] * n_types
        for n in range(1, n_max + 1):
            new = [mp_law_pgf(law, q) for law in spec.laws]
            for i in range(n_types):
                d[i, n] = float(1 - new[i])
                pmf[i, n] = float(new[i] - q[i])
            q = new
    return d, pmf
