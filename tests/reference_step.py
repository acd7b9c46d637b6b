"""Reference paired step: the interpretive loops the compiled kernel replaced.

Each family's fused ``pair``, each law shape's ``pair_step``, the
in-place sweep, the table loop and the terminal chain (one scalar
``pair`` per step, of the terminal law's own family or own column), as
plain Python loops over the model objects.  The engine compiles the
same arithmetic into one straight-line kernel per model; the tests
require it to agree with these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import ProductLaw, _OwnColumn
from branchlab.numerics import neumaier_sum, power_complement, power_diff


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


def terminal_pair(spec, da: float, delta: float,
                  steps: int) -> tuple[float, float]:
    """The terminal chain's (complement, gap) pair after ``steps`` steps,
    one scalar pair of the terminal law's own-type view per step."""
    own = spec.laws[-1].own_marginal()
    for _ in range(steps):
        if isinstance(own, _OwnColumn):
            da, _, delta = own_column_pair(own.rows, da, delta)
        else:
            da, _, delta = family_pair(own, da, delta)
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
    da, delta = list(da), list(delta)
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
