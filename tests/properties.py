"""Shared hypothesis strategies and invariant checks.

The unit-test files run these with a modest example budget while the
acceptance suite reruns the same checks at a thousand-plus examples
each, so everything here must be cheap per case and deterministic
given the drawn inputs.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import (
    ProcessSpec,
    ProductLaw,
    TableLaw,
    pair_diff_map,
    survival_map,
    validate_hypothesis_A,
)
from branchlab.constants import ConstantSet, constant_set
from branchlab.errors import PrecisionLoss
from branchlab.pgf import build_survival_table, conditional_transform, iterate_point

# --------------------------------------------------------------------------
# strategies

means = st.floats(min_value=0.1, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def link_marginals(draw):
    kind = draw(st.sampled_from(["geometric", "poisson", "bernoulli", "point"]))
    if kind == "geometric":
        return Geometric(draw(means))
    if kind == "poisson":
        return Poisson(draw(means))
    if kind == "bernoulli":
        return Bernoulli(draw(st.floats(min_value=0.1, max_value=1.0)))
    return PointMass(draw(st.integers(min_value=1, max_value=3)))


@st.composite
def critical_marginals(draw):
    # critical with positive variance: the unit-mean members of the
    # two families whose variance cannot vanish
    if draw(st.booleans()):
        return Geometric(1.0)
    return Poisson(1.0)


def _critical_table_rows(n_types, i, p0, link_frac):
    """Critical table law for type i: own counts {0,1,2}, optional link."""
    def row(own, link=0):
        c = [0] * n_types
        c[i - 1] = own
        if link:
            c[i] = link
        return tuple(c)

    p1 = 1.0 - 2.0 * p0
    if i < n_types:
        q = link_frac * p1
        return ((row(0), p0), (row(2), p0), (row(1), p1 - q), (row(1, 1), q))
    return ((row(0), p0), (row(2), p0), (row(1), p1))


@st.composite
def model_specs(draw, max_types: int = 4):
    """Random models satisfying the standing moment assumptions."""
    n = draw(st.integers(min_value=1, max_value=max_types))
    laws = []
    for i in range(1, n + 1):
        if draw(st.booleans()):
            children = {i: draw(critical_marginals())}
            if i < n:
                children[i + 1] = draw(link_marginals())
                extra = draw(st.integers(min_value=0, max_value=n - i - 1))
                for j in range(i + 2, i + 2 + extra):
                    children[j] = draw(link_marginals())
            laws.append(ProductLaw(parent=i, children=children))
        else:
            p0 = draw(st.floats(min_value=0.1, max_value=0.45))
            frac = draw(st.floats(min_value=0.1, max_value=0.9))
            laws.append(TableLaw(parent=i,
                                 rows=_critical_table_rows(n, i, p0, frac)))
    return ProcessSpec(n_types=n, laws=tuple(laws))


@st.composite
def unit_points(draw, n):
    return tuple(
        draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n)
    )


# --------------------------------------------------------------------------
# invariant checks (assert on failure)

def check_pgf_basics(spec: ProcessSpec, s) -> None:
    one = [1.0] * spec.n_types
    for i in range(1, spec.n_types + 1):
        law = spec.law(i)
        assert abs(law.pgf(one) - 1.0) <= 1e-12
        v = law.pgf(list(s))
        assert -1e-12 <= v <= 1.0 + 1e-12
        zero = law.pgf([0.0] * spec.n_types)
        assert v >= zero - 1e-12  # monotone in each coordinate


def check_survival_consistency(spec: ProcessSpec, s) -> None:
    d = [1.0 - x for x in s]
    direct = survival_map(spec, d)
    for i in range(1, spec.n_types + 1):
        naive = 1.0 - spec.law(i).pgf(list(s))
        assert abs(direct[i - 1] - naive) <= 1e-12
        assert 0.0 <= direct[i - 1] <= 1.0


def check_diff_consistency(spec: ProcessSpec, s, shrink: float) -> None:
    # pair (A, B): B = A - delta with delta a fraction of A's headroom
    da = [1.0 - x for x in s]
    delta = [shrink * x for x in s]
    diffs = pair_diff_map(spec, da, delta)
    for i in range(1, spec.n_types + 1):
        law = spec.law(i)
        a = [1.0 - x for x in da]
        b = [x - y for x, y in zip(a, delta)]
        naive = law.pgf(a) - law.pgf(b)
        assert diffs[i - 1] >= -1e-15
        assert abs(diffs[i - 1] - naive) <= 1e-12


def check_pair_step_consistency(spec: ProcessSpec, s, shrink: float,
                                pin: int | None = None) -> None:
    # pair (A, B) as in check_diff_consistency; ``pin`` puts coordinate
    # pin % N at zero, so da is exactly 1 there (a certain child line)
    s = list(s)
    if pin is not None:
        s[pin % spec.n_types] = 0.0
    da = [1.0 - x for x in s]
    delta = [shrink * x for x in s]
    a = [1.0 - x for x in da]
    b = [x - y for x, y in zip(a, delta)]
    # coordinate i of one kernel step is law i's paired step
    step = spec.kernel.advance(da, delta, 1)
    for law, survival, gap in zip(spec.laws, *step):
        assert abs(survival - (1.0 - law.pgf(a))) <= 1e-12
        assert abs(gap - (law.pgf(a) - law.pgf(b))) <= 1e-12
        assert gap >= 0.0


def check_moment_structure(spec: ProcessSpec) -> None:
    md = validate_hypothesis_A(spec)
    n = spec.n_types
    assert len(md.mean_matrix) == n
    assert all(len(row) == n for row in md.mean_matrix)
    for i in range(n):
        assert abs(md.mean_matrix[i][i] - 1.0) <= 1e-9
        for j in range(i):
            assert md.mean_matrix[i][j] == 0.0
        assert md.b[i] > 0.0
    cs = constant_set(md)
    for i in range(n):
        assert cs.gamma[i] == 2.0 ** -(n - 1 - i)
        assert cs.survival_amplitude[i] > 0.0
        assert math.isfinite(cs.survival_amplitude[i])
        assert abs(cs.local_amplitude[i]
                   - cs.gamma[i] * cs.survival_amplitude[i]) <= 1e-15
    if n >= 2:
        assert check_identity_c1N(cs) <= 1e-12


def check_identity_c1N(constants: ConstantSet) -> float:
    """Relative residual of c_{1,N} against the chain route,
    c_{1,N} = D_{N-1} * (1/b_N)**(2**-(N-1)).

    Both sides are assembled in log space; the residual is
    ``|expm1(log lhs - log rhs)|``, so equality holds to roundoff when
    the two derivations agree.  Requires N >= 2.
    """
    n = constants.n_types
    if n < 2:
        raise ValueError("identity needs at least two types")
    log_lhs = math.log(constants.survival_amplitude[0])
    log_rhs = (
        math.log(constants.chain[n - 2])
        + 2.0 ** -(n - 1) * -math.log(constants.b[n - 1])
    )
    return abs(math.expm1(log_lhs - log_rhs))


def check_table_invariants(spec: ProcessSpec, horizon: int = 24) -> None:
    table = build_survival_table(spec, horizon)
    assert table.truncated_at is None
    for i in range(1, spec.n_types + 1):
        col_d = table.d[i - 1]
        col_p = table.pmf[i - 1]
        # deterministic links hold the complement at exactly 1 for the
        # first few steps; after that it must fall strictly
        alive = col_d < 1.0
        first = int(np.argmax(alive)) if alive.any() else horizon + 1
        assert np.all(np.diff(col_d) <= 0.0)
        assert np.all(np.diff(col_d[max(first - 1, 0):]) < 0.0)
        assert np.all(col_p[first:] > 0.0)
        # before the first visibly-dead step the pmf must stay below
        # the survival column's resolution: exactly zero for truly
        # deterministic links, sub-epsilon when a near-one link makes
        # the death mass too small for the complement to register
        assert np.all(col_p[1:first] < 1e-12)
        # telescoping: death probabilities must account for all the
        # mass that left the survival complement
        resid = abs(math.fsum(col_p[1:]) - (1.0 - col_d[horizon]))
        assert resid <= 1e-12
    # conditioning on extinction at n with no observable is vacuous
    m, n = horizon // 3, horizon - 1
    v = conditional_transform(spec, table, [1.0] * spec.n_types, m, n)
    assert abs(v - 1.0) <= 1e-9


def check_semigroup(spec: ProcessSpec, s, m1: int, m2: int) -> None:
    once = iterate_point(spec, s, m1 + m2)
    twice = iterate_point(spec, iterate_point(spec, s, m1), m2)
    for x, y in zip(once, twice):
        assert abs(x - y) <= 1e-12


def check_conditional_range(spec: ProcessSpec, s, m: int, n: int) -> None:
    table = build_survival_table(spec, n)
    try:
        v = conditional_transform(spec, table, s, m, n)
    except PrecisionLoss:
        # acceptable verdict for extreme inputs (tiny s components can
        # push the numerator below float range); never silent nonsense
        return
    assert -1e-12 <= v <= 1.0 + 1e-12
    # m = 0 collapses to the first component exactly
    assert conditional_transform(spec, table, s, 0, n) == s[0]
