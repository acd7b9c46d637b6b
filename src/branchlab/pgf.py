"""Exact generating-function engine.

Everything in this module is built on two orbit primitives:

* the *complement orbit*: survival complements ``d(n) = 1 - q(n)``
  advanced by the stable one-step map ``d -> 1 - f(1 - d)``, never
  forming ``q`` and subtracting;
* the *paired orbit*: two nearby points advanced together as
  ``(complement of the upper point, gap between the points)``, with
  the gap propagated through closed-form difference expressions per
  offspring family.  The gap never suffers cancellation, so exact
  extinction-time probabilities of size 1e-12 and below come out with
  near-full relative accuracy where naive subtraction of iterates
  would return noise.

Both advance through the spec's compiled kernel (``spec.kernel``), the
one stepper: every law's paired step as straight-line code, in one
in-place sweep in type order per step.  Every vector orbit is one
``spec.kernel.advance`` call and ``build_survival_table`` one
``spec.kernel.table`` call, and every walk of the terminal type's
scalar chain (``harmonic_U``, ``terminal_gap``, ``censored_transform``)
is one call of the kernel's ``terminal`` loop; inputs are checked once,
at entry, and a complement orbit is a paired one with a zero gap.  The
one checkpointed orbit is the conditioned one a fixed k steps before
extinction: its start does not depend on the horizon n, so
``conditional_orbit`` gives its values at ascending n from one chain
of ``advance`` calls, and ``conditional_transform`` is its one-horizon
case.  The kernel takes a -0.0 input as +0.0 once per call and holds
only statements whose results are read and that change bits (literal
parameters, no factor 1.0, no unread survival at b, sums from their
first term, ``power_diff`` written out, blocks that write their
results straight into their coordinates, nothing only for the sign of
a zero; ``model`` lists the rules), so every orbit is the interpretive
loop's bit for bit.

Conditioning identities used throughout (start state is one type-1
particle; T is the first generation with an empty population):

    E[prod_j s_j^{Z_j(m)} 1{T <= n}] = F^(m)(s * q(n-m))_1
    E[prod_j s_j^{Z_j(m)} 1{T  = n}] = the paired-orbit gap after m
        steps from the pair (s * q(n-m), s * q(n-m-1))

with componentwise products.  Trees extinct before m contribute
identically to both pair members, so their mass never enters the gap
at all; the construction is exact, not asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import InvalidMoments, PrecisionLoss, SlowConvergence, UnreachableEvent
from .model import ProcessSpec, _collect_moments, check_point
from .numerics import richardson_derivative

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# terminal-type scalar chain
#
# The terminal type only ever produces its own type, so its law acts on
# scalars: the kernel's terminal loop steps that pair alone.

def _terminal_b(spec: ProcessSpec) -> float:
    """Half the own-type offspring variance of the terminal type."""
    b = _collect_moments(spec).b[-1]
    if not (b > 0.0 and math.isfinite(b)):
        raise InvalidMoments(f"terminal-type quadratic coefficient {b!r}")
    return b


# ---------------------------------------------------------------------------
# survival table

@dataclass
class SurvivalTable:
    """Tabulated survival complements and extinction-time probabilities.

    ``d[i-1, n]`` is the probability that a population started from one
    type-i particle is still alive at generation n; ``pmf[i-1, n]`` is
    the probability it dies at exactly generation n.  Both come from
    the complement / paired recurrences, so the small entries keep
    relative accuracy.  If the recurrence stalls (entries below 64-bit
    resolution) the table is truncated and ``truncated_at`` records the
    first unusable index.
    """

    spec: ProcessSpec
    n_max: int
    d: np.ndarray
    pmf: np.ndarray
    truncated_at: int | None

    def usable_n(self) -> int:
        """Largest n with valid table entries."""
        return self.n_max if self.truncated_at is None else self.truncated_at - 1

    def _check(self, i: int, n: int) -> None:
        if not 1 <= i <= self.spec.n_types:
            raise ValueError(f"type index {i} outside 1..{self.spec.n_types}")
        if n < 0 or n > self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")
        if self.truncated_at is not None and n >= self.truncated_at:
            raise PrecisionLoss(
                self.truncated_at,
                f"table truncated at step {self.truncated_at}; n={n} unavailable",
            )

    def survival(self, i: int, n: int) -> float:
        self._check(i, n)
        return float(self.d[i - 1, n])

    def extinct_by(self, i: int, n: int) -> float:
        self._check(i, n)
        return 1.0 - float(self.d[i - 1, n])


def build_survival_table(spec: ProcessSpec, n_max: int) -> SurvivalTable:
    """Tabulate d_i(n) and the extinction-time pmf for n = 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    import numpy as np

    n_types = spec.n_types
    d = np.empty((n_types, n_max + 1))
    pmf = np.zeros((n_types, n_max + 1))
    d[:, 0] = 1.0
    # pi(1) = q(1) = f(0); from there the gap advances by the paired step
    pi = [law.pgf([0.0] * n_types) for law in spec.laws]
    truncated_at = spec.kernel.table(d, pmf, pi)
    if truncated_at is not None:
        d[:, truncated_at:] = np.nan
        pmf[:, truncated_at:] = np.nan
    return SurvivalTable(spec=spec, n_max=n_max, d=d, pmf=pmf,
                         truncated_at=truncated_at)


def extinction_time_pmf(table: SurvivalTable, i: int, n: int) -> float:
    """P(population from one type-i particle dies at exactly n)."""
    if n < 1:
        raise ValueError("extinction time starts at 1")
    table._check(i, n)
    return float(table.pmf[i - 1, n])


# ---------------------------------------------------------------------------
# plain and paired iteration

def iterate_point(spec: ProcessSpec, s: Sequence[float], m: int
                  ) -> tuple[float, ...]:
    """m-fold iterate of the offspring pgf vector at the point s."""
    if m < 0:
        raise ValueError("iteration count must be nonnegative")
    check_point(spec, s)
    if m == 0:
        # the identity map without the complement round trip, -0.0 as +0.0
        return tuple(float(x) + 0.0 for x in s)
    d = spec.kernel.advance([1.0 - x for x in s], [0.0] * spec.n_types, m)[0]
    return tuple(1.0 - x for x in d)


def conditional_orbit(spec: ProcessSpec, table: SurvivalTable,
                      s: Sequence[float], k: int) -> Callable[[int], float]:
    """n -> E[prod_j s_j^{Z_j(n-k)} | T = n], k steps before extinction,
    exactly, from one paired orbit.

    The orbit starts from (s * q(k), s * q(k-1)), which does not depend
    on n, so the value at one horizon is a prefix of the orbit of every
    later one: calls at ascending n continue one chain of
    ``spec.kernel.advance`` calls, and a call below the last one starts
    the chain again.  Each call keeps its own checks (0 <= n-k < n <=
    table horizon, P(T = n) > 0, a numerator that did not underflow),
    so a horizon that fails them does not stop the later ones.  The
    start state is one type-1 particle.
    """
    _require_same_model(spec, table)
    sv = [x + 0.0 for x in s]  # -0.0 as +0.0, as the kernel takes it
    check_point(spec, sv)
    done, da, delta = 0, None, None

    def value(n: int) -> float:
        nonlocal done, da, delta
        m = n - k
        start_da, start_delta, den = _conditioned_start(table, sv, m, n)
        if m == 0:
            # the start state is deterministic, so conditioning is inert
            return sv[0]
        if not 0 < done <= m:
            done, da, delta = 0, start_da, start_delta
        da, delta = spec.kernel.advance(da, delta, m - done)
        done = m
        num = delta[0]
        if num == 0.0 and all(x > 0.0 for x in sv):
            raise PrecisionLoss(m, "conditional numerator underflowed")
        return num / den

    return value


def conditional_transform(spec: ProcessSpec, table: SurvivalTable,
                          s: Sequence[float], m: int, n: int) -> float:
    """E[prod_j s_j^{Z_j(m)} | T = n], exactly: ``conditional_orbit``
    at the one horizon n.  Requires 0 <= m < n <= table horizon."""
    return conditional_orbit(spec, table, s, n - m)(n)


def censored_transform(spec: ProcessSpec, table: SurvivalTable,
                       s: Sequence[float], t: int, m: int,
                       n: int | None = None) -> float:
    """Transform of Z(m) on the event that lower types are dead by t.

    Computes E[prod_j s_j^{Z_j(m)} ; types 1..N-1 empty at t] and, when
    ``n`` is given, conditions on extinction at exactly n (normalised
    by P(T = n)).  ``t = 0`` means no censoring, matching the empty
    intersection convention.  Requires t <= m (the joint law factorises
    through the all-terminal state at t).
    """
    _require_same_model(spec, table)
    if t < 0 or m < 0:
        raise ValueError("times must be nonnegative")
    if t > m:
        raise ValueError(f"censor time t={t} must not exceed m={m}")
    n_types = spec.n_types
    sv = list(s)
    check_point(spec, sv)
    if t == 0 or n_types == 1:
        if n is None:
            return iterate_point(spec, sv, m)[0]
        return conditional_transform(spec, table, sv, m, n)

    terminal = spec.kernel.terminal
    s_term = sv[n_types - 1]
    if n is None:
        du = terminal(1.0 - s_term, 0.0, m - t)[0]
        dvec = [1.0] * (n_types - 1) + [du]
        return 1.0 - spec.kernel.advance(dvec, [0.0] * n_types, t)[0][0]

    da, delta, den = _conditioned_start(table, sv, m, n)
    dx, ds = terminal(da[-1], delta[-1], m - t)
    da = [1.0] * (n_types - 1) + [dx]
    delta = [0.0] * (n_types - 1) + [ds]
    da, delta = spec.kernel.advance(da, delta, t)
    return delta[0] / den


def _conditioned_start(table: SurvivalTable, sv: list[float], m: int,
                       n: int) -> tuple[list[float], list[float], float]:
    """Start of an orbit conditioned on T = n, observed at m: the pair
    (s * q(n-m), s * q(n-m-1)) as (complement, gap), and P(T = n)."""
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    if n > table.usable_n():
        raise PrecisionLoss(
            table.usable_n() + 1,
            f"n={n} beyond usable table horizon {table.usable_n()}",
        )
    den = extinction_time_pmf(table, 1, n)
    if den == 0.0:
        raise UnreachableEvent(f"extinction at exactly n={n} has zero mass")
    k = n - m
    da = [(1.0 - x) + x * table.survival(j + 1, k) for j, x in enumerate(sv)]
    delta = [x * float(table.pmf[j, k]) for j, x in enumerate(sv)]
    return da, delta, den


def _require_same_model(spec: ProcessSpec, table: SurvivalTable) -> None:
    if table.spec is not spec and table.spec != spec:
        raise ValueError("table was built for a different model")


# ---------------------------------------------------------------------------
# harmonic evaluation for the terminal chain

@dataclass(frozen=True)
class HarmonicResult:
    """Extrapolated harmonic value with its own convergence estimate.

    ``value`` approximates the increasing limit U(s) of the scaled gap
    U_h = b * h^2 * terminal_gap(s, h) of the terminal chain: the
    extrapolation of U_h from the horizons n/2 and n that removes the
    1/n term.
    ``convergence_estimate`` is the gap between that value and the same
    extrapolation from n/4 and n/2, an error bound taken from the orbit
    itself.
    """

    value: float
    convergence_estimate: float


def terminal_gap(spec: ProcessSpec, s: float, m: int) -> float:
    """h_m(s) - h_m(0) for the terminal chain, cancellation-free."""
    if not (0.0 <= s < 1.0):
        raise ValueError(f"need 0 <= s < 1, got {s}")
    if m < 0:
        raise ValueError("horizon must be nonnegative")
    return spec.kernel.terminal(1.0 - s, s, m)[1]


def harmonic_U(spec: ProcessSpec, s: float, n: int) -> HarmonicResult:
    """Harmonic function U(s) of the terminal chain, extrapolated in n.

    One orbit of the terminal pair gives the scaled gaps U_h = b * h^2 *
    terminal_gap(s, h) at h = n//4, n//2 and n.  Since U_h = U + c/h +
    O(1/h^2), the value is (h3 U3 - h2 U2) / (h3 - h2), which cancels
    the 1/h term for any two horizons (odd n included); the estimate is
    its distance to the same extrapolation from (h1, h2).
    """
    if not (0.0 <= s < 1.0):
        raise ValueError(f"need 0 <= s < 1, got {s}")
    if n < 4:
        raise ValueError("horizon too short to estimate convergence")
    b = _terminal_b(spec)
    if s == 0.0:
        # the gap is identically zero along the whole orbit
        return HarmonicResult(value=0.0, convergence_estimate=0.0)
    terminal = spec.kernel.terminal
    h1, h2, h3 = n // 4, n // 2, n
    da, delta = 1.0 - s, s
    scaled = []
    done = 0
    for h in (h1, h2, h3):
        da, delta = terminal(da, delta, h - done)
        done = h
        scaled.append(b * h * h * delta)
    if delta == 0.0:
        raise PrecisionLoss(n, "harmonic gap underflowed")
    u1, u2, u3 = scaled
    value = (h3 * u3 - h2 * u2) / (h3 - h2)
    coarse = (h2 * u2 - h1 * u1) / (h2 - h1)
    return HarmonicResult(value=value, convergence_estimate=abs(value - coarse))


# ---------------------------------------------------------------------------
# cumulative-feed transform (total terminal-type children of lower types)

@dataclass(frozen=True)
class WResult:
    """Fixed-point (or finite-horizon) transform of the total feed count.

    ``value`` is the transform from a type-1 start; ``per_type`` holds
    the same transform started from each lower type.  ``residual`` is
    the final fixed-point defect |g(u) - u| (or the last horizon
    increment when a horizon was given).
    """

    value: float
    per_type: tuple[float, ...]
    iterations: int
    residual: float


def w_transform(spec: ProcessSpec, s: float, *, horizon: int | None = None,
                tol: float = 1e-12, max_iter: int = 10**6) -> WResult:
    """E[s^W] where W counts terminal-type children of lower-type parents.

    W is finite almost surely (the cascade dies out), and its transform
    from a type-i start solves the triangular fixed-point system

        phi_i(s) = f_i(x),  x_j = phi_j(s) for i <= j < N,  x_N = s,

    solved bottom-up; each scalar equation is handled by monotone
    iteration from 0 (converging to the smallest root) with a
    safeguarded acceleration step.  With ``horizon=t`` the recursion is
    instead unrolled t generations, which censors the expectation to
    trees whose lower types die out within t.
    """
    n_types = spec.n_types
    if n_types < 2:
        raise ValueError("the feed transform needs at least two types")
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"need 0 <= s <= 1, got {s}")

    if horizon is not None:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        psi = [0.0] * (n_types - 1)
        delta = 1.0
        for _ in range(horizon):
            new = [spec.law(i).pgf(psi + [s]) for i in range(1, n_types)]
            delta = max(abs(a - b) for a, b in zip(new, psi))
            psi = new
        return WResult(value=psi[0], per_type=tuple(psi),
                       iterations=horizon, residual=delta)

    if s == 1.0:
        # W is finite a.s., so the transform at 1 is exactly 1; the
        # fixed-point root there is double and not worth iterating at
        return WResult(value=1.0, per_type=(1.0,) * (n_types - 1),
                       iterations=0, residual=0.0)

    phi = [0.0] * (n_types - 1)
    total_iter = 0
    final_residual = 0.0
    for i in range(n_types - 1, 0, -1):
        def g(u: float, _i=i) -> float:
            x = list(phi)
            x[_i - 1] = u
            x.append(s)
            return spec.law(_i).pgf(x)

        u = 0.0
        residual = math.inf
        iters = 0
        while iters < max_iter:
            gu = g(u)
            residual = gu - u
            if residual <= tol:
                u = gu
                break
            u1 = gu
            u2 = g(u1)
            iters += 2
            denom = u2 - 2.0 * u1 + u
            stepped = u2
            if denom != 0.0:
                cand = u2 - (u2 - u1) ** 2 / denom
                # accept only accelerations provably below the smallest
                # root: g increasing, so u <= root iff g(u) >= u
                if u2 < cand < 1.0 and g(cand) >= cand:
                    stepped = cand
                    iters += 1
            u = stepped
        else:
            raise SlowConvergence(i, iters, residual)
        phi[i - 1] = u
        total_iter += iters
        final_residual = abs(g(u) - u)

    return WResult(value=phi[0], per_type=tuple(phi),
                   iterations=total_iter, residual=final_residual)


def w_weighted_mean(spec: ProcessSpec, lam: float, n: int, *,
                    horizon: int | None = None) -> float:
    """E[W * exp(-lam * W / (b * n))] (optionally horizon-censored).

    Differentiates the feed transform at theta = lam / (b * n) by
    central differences at steps theta*1e-4 and theta*2e-4 combined
    into one fourth-order estimate.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    b = _terminal_b(spec)
    theta = lam / (b * n)

    def transform(th: float) -> float:
        return w_transform(spec, math.exp(-th), horizon=horizon).value

    return -richardson_derivative(transform, theta, theta * 1e-4)
