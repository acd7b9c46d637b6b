"""Process specification for triangular multitype branching cascades.

A model has N particle types.  A type-i parent may produce children of
types i..N only, so the mean matrix is upper triangular.  The regime
of interest is the strongly critical one: every own-type mean equals
one, every type feeds the next one, and every own-type offspring
variance is positive and finite.

Two law shapes are supported per parent type:

* ``ProductLaw`` -- independent marginal counts per child type, drawn
  from the families in :mod:`branchlab.families`;
* ``TableLaw`` -- an explicit finite joint table of count vectors.

Each shape answers the same questions: the vector pgf, one fused
paired step ``pair_step`` (the survival and difference forms in one
pass; ``survival`` and ``pgf_diff`` are its projections), moments, a
scalar view of its own-type coordinate (``own_marginal``), and batched
offspring draws (``draws``).  The engine and the sampler call these
methods and never look at the shape.

All public operations take the process spec as their first argument
and are plain functions, mirroring how the engine modules consume
them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateVariance,
    MissingLink,
    ModelStructureError,
    NonCritical,
)
from .families import Marginal, PointMass, family_tag
from .numerics import neumaier_sum, power_complement, power_diff

CRITICALITY_TOL = 1e-10


@dataclass(frozen=True)
class ProductLaw:
    """Offspring law with independent per-child-type counts.

    ``children`` maps child type (1-based) to its marginal family;
    absent child types produce zero offspring of that type.
    """

    parent: int
    children: Mapping[int, Marginal]

    def __post_init__(self):
        object.__setattr__(self, "children", dict(self.children))
        for child in self.children:
            if child < self.parent:
                raise ModelStructureError(
                    f"type {self.parent} law names child type {child} "
                    f"below the parent type"
                )

    def pgf(self, s: Sequence[float]) -> float:
        out = 1.0
        for child, law in self.children.items():
            out *= law.pgf(s[child - 1])
        return out

    def pair_step(self, da: Sequence[float],
                  delta: Sequence[float]) -> tuple[float, float]:
        """(1 - f(a), f(a) - f(b)) for a = 1 - da, b = a - delta, in one
        pass: the survival by the pairwise complement rule (a certain
        child line pins it at exactly 1), the gap telescoped over the
        child factors, so no nearby numbers are ever subtracted."""
        acc = 0.0
        total = 0.0
        lower = 1.0
        for j, survival, pgf_diff in self._factors:
            x = da[j]
            y = delta[j]
            sa = survival(x)
            # running telescope: earlier factors at b, later ones at a
            total = total * (1.0 - sa) + lower * pgf_diff(x, y)
            lower *= 1.0 - survival(x + y)
            acc = 1.0 if sa >= 1.0 else acc + sa * (1.0 - acc)
        return min(acc, 1.0), total

    def survival(self, d: Sequence[float]) -> float:
        return self.pair_step(d, [0.0] * len(d))[0]

    def pgf_diff(self, da: Sequence[float], delta: Sequence[float]) -> float:
        return self.pair_step(da, delta)[1]

    @cached_property
    def _factors(self):
        # (0-based child type, survival, pgf_diff) per child factor
        return tuple((child - 1, law.survival, law.pgf_diff)
                     for child, law in self.children.items())

    def mean_row(self, n_types: int) -> np.ndarray:
        row = np.zeros(n_types)
        for child, law in self.children.items():
            row[child - 1] = law.mean
        return row

    def second_moment_matrix(self, n_types: int) -> np.ndarray:
        """E[eta_j * eta_k] for all child-type pairs (j, k)."""
        out = np.zeros((n_types, n_types))
        for cj, lj in self.children.items():
            for ck, lk in self.children.items():
                if cj == ck:
                    out[cj - 1, cj - 1] = (
                        lj.second_factorial_moment + lj.mean
                    )
                else:
                    out[cj - 1, ck - 1] = lj.mean * lk.mean
        return out

    def own_marginal(self) -> Marginal:
        """The own-type family; no own-type children is a point mass at 0."""
        return self.children.get(self.parent, PointMass(0))

    def draws(self, parents, rng):
        """(0-based child type, summed children of ``parents``) per child
        type, in child-type order; ``parents`` is an int or an array."""
        for child in sorted(self.children):
            yield child - 1, self.children[child].sample_sum(parents, rng)


@dataclass(frozen=True)
class TableLaw:
    """Offspring law given as an explicit finite joint table.

    ``rows`` holds (counts, probability) pairs where ``counts`` is a
    full-length tuple over all N types.  Probabilities must sum to one
    within 1e-12.
    """

    parent: int
    rows: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        rows = tuple((tuple(int(c) for c in counts), float(p))
                     for counts, p in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ModelStructureError(f"type {self.parent} table is empty")
        width = len(rows[0][0])
        for counts, p in rows:
            if len(counts) != width:
                raise ModelStructureError(
                    f"type {self.parent} table rows have mixed widths"
                )
            if p < 0.0:
                raise ModelStructureError(
                    f"type {self.parent} table has a negative probability"
                )
            if any(c < 0 for c in counts):
                raise ModelStructureError(
                    f"type {self.parent} table has a negative count"
                )
            for child0, c in enumerate(counts):
                if c > 0 and child0 + 1 < self.parent:
                    raise ModelStructureError(
                        f"type {self.parent} table emits child type "
                        f"{child0 + 1} below the parent type"
                    )
        total = neumaier_sum(p for _, p in rows)
        if abs(total - 1.0) > 1e-12:
            raise ModelStructureError(
                f"type {self.parent} table probabilities sum to {total!r}"
            )

    def pgf(self, s: Sequence[float]) -> float:
        return neumaier_sum(
            p * math.prod(s[j] ** c for j, c in enumerate(counts) if c)
            for counts, p in self.rows
        )

    def pair_step(self, da: Sequence[float],
                  delta: Sequence[float]) -> tuple[float, float]:
        """(1 - f(a), f(a) - f(b)) for a = 1 - da, b = a - delta: the
        survival as sum_w p_w (1 - prod_j (1-d_j)^w_j), using sum p_w = 1,
        the gap telescoped over each row's nonzero coordinates."""
        a = [1.0 - x for x in da]
        b = [1.0 - (x + y) for x, y in zip(da, delta)]
        logs = [math.log1p(-x) if x < 1.0 else -math.inf for x in da]
        survs = []
        gaps = []
        for p, telescope in self._nonzero_rows:
            expo = 0
            row = 0.0
            for j, c, before, after in telescope:
                expo += c * logs[j]
                step = power_diff(a[j], delta[j], c)
                for l, cl in before:
                    step *= b[l] ** cl
                for l, cl in after:
                    step *= a[l] ** cl
                row += step
            survs.append(p * -math.expm1(expo))
            gaps.append(p * row)
        return neumaier_sum(survs), neumaier_sum(gaps)

    def survival(self, d: Sequence[float]) -> float:
        return self.pair_step(d, [0.0] * len(d))[0]

    def pgf_diff(self, da: Sequence[float], delta: Sequence[float]) -> float:
        return self.pair_step(da, delta)[1]

    @cached_property
    def _nonzero_rows(self):
        # per row: p, then per nonzero (type, count) pair the pairs
        # before and after it in the telescope
        nonzero = [(p, [(j, c) for j, c in enumerate(w) if c])
                   for w, p in self.rows]
        return [(p, [(j, c, nz[:k], nz[k + 1:])
                     for k, (j, c) in enumerate(nz)]) for p, nz in nonzero]

    def mean_row(self, n_types: int) -> np.ndarray:
        row = np.zeros(n_types)
        for counts, p in self.rows:
            for j, c in enumerate(counts):
                row[j] += p * c
        return row

    def second_moment_matrix(self, n_types: int) -> np.ndarray:
        out = np.zeros((n_types, n_types))
        for counts, p in self.rows:
            w = np.asarray(counts, dtype=float)
            out += p * np.outer(w, w)
        return out

    def own_marginal(self) -> _OwnColumn:
        """The own-type column of the table, as a scalar law."""
        return _OwnColumn(tuple((counts[self.parent - 1], p)
                                for counts, p in self.rows))

    @cached_property
    def _sampling_plan(self):
        # built once: the sampler draws from every law each generation
        counts = np.array([c for c, _ in self.rows], dtype=np.int64)
        emitted = [int(j) for j in np.flatnonzero(counts.any(axis=0))]
        return [p for _, p in self.rows], counts, emitted

    def draws(self, parents, rng):
        """One multinomial split of ``parents`` over the rows, then
        (0-based child type, summed children) per child type the table
        can emit."""
        probs, counts, emitted = self._sampling_plan
        kids = rng.multinomial(parents, probs) @ counts
        for j in emitted:
            yield j, kids[..., j]


@dataclass(frozen=True)
class _OwnColumn:
    """A table law restricted to its own-type coordinate.

    Scalar survival and difference forms of the column's (count,
    probability) pairs, matching the table's vector forms bit for bit
    when every other coordinate is inert.
    """

    rows: tuple[tuple[int, float], ...]

    def survival(self, d: float) -> float:
        return neumaier_sum(p * power_complement(d, c) for c, p in self.rows)

    def pgf_diff(self, da: float, delta: float) -> float:
        a = 1.0 - da
        return neumaier_sum(p * power_diff(a, delta, c) for c, p in self.rows)

    @property
    def variance(self) -> float:
        mean = sum(p * c for c, p in self.rows)
        return sum(p * c * c for c, p in self.rows) - mean * mean


OffspringLaw = ProductLaw | TableLaw


@dataclass(frozen=True)
class ProcessSpec:
    """A complete cascade model: one offspring law per type, 1..N."""

    n_types: int
    laws: tuple[OffspringLaw, ...]
    name: str = "model"

    def __post_init__(self):
        if self.n_types < 1:
            raise ModelStructureError("need at least one type")
        if len(self.laws) != self.n_types:
            raise ModelStructureError(
                f"got {len(self.laws)} laws for {self.n_types} types"
            )
        for i, law in enumerate(self.laws, start=1):
            if law.parent != i:
                raise ModelStructureError(
                    f"law at position {i} declares parent {law.parent}"
                )
            if isinstance(law, ProductLaw):
                if law.children and max(law.children) > self.n_types:
                    raise ModelStructureError(
                        f"type {i} law names child type {max(law.children)} "
                        f"beyond N={self.n_types}"
                    )
            else:
                if len(law.rows[0][0]) != self.n_types:
                    raise ModelStructureError(
                        f"type {i} table rows must have width N={self.n_types}"
                    )

    def law(self, i: int) -> OffspringLaw:
        return self.laws[i - 1]


class Violation(NamedTuple):
    """One failed model assumption, naming the offending type."""

    kind: str  # "non_critical" | "missing_link" | "degenerate_variance"
    type_index: int
    detail: str

    def __str__(self):
        return f"type {self.type_index}: {self.kind} ({self.detail})"


@dataclass(frozen=True)
class MomentData:
    """First and second offspring moments of a validated model.

    ``b`` holds half the own-type variances, the quadratic
    coefficients that govern every asymptotic rate in the engine.
    ``second_moments[i-1][j, k]`` is E[eta_j * eta_k] for a type-i
    parent.
    """

    n_types: int
    mean_matrix: np.ndarray
    b: tuple[float, ...]
    second_moments: tuple[np.ndarray, ...]
    all_moments_finite: bool = True

    @property
    def link_means(self) -> tuple[float, ...]:
        """Means of the type i -> i+1 feeds, i = 1..N-1."""
        return tuple(
            float(self.mean_matrix[i, i + 1]) for i in range(self.n_types - 1)
        )


_VIOLATION_EXC = {
    "non_critical": NonCritical,
    "missing_link": MissingLink,
    "degenerate_variance": DegenerateVariance,
}


def _collect_moments(spec: ProcessSpec) -> MomentData:
    n = spec.n_types
    mean = np.zeros((n, n))
    seconds = []
    b = []
    for i in range(1, n + 1):
        law = spec.law(i)
        mean[i - 1] = law.mean_row(n)
        sm = law.second_moment_matrix(n)
        seconds.append(sm)
        own_var = sm[i - 1, i - 1] - mean[i - 1, i - 1] ** 2
        # roundoff can push an exact-zero variance slightly negative
        b.append(max(own_var, 0.0) / 2.0)
    return MomentData(
        n_types=n,
        mean_matrix=mean,
        b=tuple(b),
        second_moments=tuple(seconds),
    )


def check_assumptions(spec: ProcessSpec, *,
                      criticality_tol: float = CRITICALITY_TOL
                      ) -> list[Violation]:
    """Return all standing-assumption violations (empty if none)."""
    md = _collect_moments(spec)
    out: list[Violation] = []
    n = spec.n_types
    for i in range(1, n + 1):
        m_ii = md.mean_matrix[i - 1, i - 1]
        if abs(m_ii - 1.0) > criticality_tol:
            out.append(Violation("non_critical", i, f"own mean {m_ii!r}"))
    for i in range(1, n):
        link = md.mean_matrix[i - 1, i]
        if not (link > 0.0 and math.isfinite(link)):
            out.append(Violation("missing_link", i, f"link mean {link!r}"))
    for i in range(1, n + 1):
        if not (md.b[i - 1] > 0.0 and math.isfinite(md.b[i - 1])):
            out.append(
                Violation("degenerate_variance", i, f"b = {md.b[i - 1]!r}")
            )
    return out


def validate_hypothesis_A(spec: ProcessSpec, *,
                          criticality_tol: float = CRITICALITY_TOL,
                          force: bool = False,
                          raise_on_violation: bool = True):
    """Check the strong-criticality assumptions and compute moments.

    Returns :class:`MomentData` when the model passes.  Violations are
    raised as the typed exception matching the first failure (carrying
    the full list), or returned as a list when
    ``raise_on_violation=False``.

    ``force=True`` waives the own-mean-equals-one check only, for
    deliberately near-critical studies; structural failures are still
    enforced.
    """
    violations = check_assumptions(spec, criticality_tol=criticality_tol)
    if force:
        violations = [v for v in violations if v.kind != "non_critical"]
    if violations:
        if raise_on_violation:
            exc = _VIOLATION_EXC[violations[0].kind]
            raise exc(violations)
        return violations
    return _collect_moments(spec)


def pgf_eval(spec: ProcessSpec, i: int, s: Sequence[float]) -> float:
    """Generating function f_i(s) of the type-i offspring vector."""
    check_point(spec, s, slack=1e-12)
    return spec.law(i).pgf(list(s))


def survival_map(spec: ProcessSpec, d: Sequence[float]) -> tuple[float, ...]:
    """One generation of the survival recursion: d'_i = 1 - f_i(1 - d).

    Carried out entirely in complement form so components of size
    1e-300 keep full relative accuracy.
    """
    check_point(spec, d)
    return tuple(law.survival(d) for law in spec.laws)


def pair_diff_map(spec: ProcessSpec, da: Sequence[float],
                  delta: Sequence[float]) -> tuple[float, ...]:
    """f_i(a) - f_i(b) for the point pair a = 1 - da, b = a - delta."""
    return tuple(law.pgf_diff(da, delta) for law in spec.laws)


def sample_offspring(spec: ProcessSpec, i: int, z: int, rng) -> np.ndarray:
    """Summed offspring vector of z type-i parents (exact batch draw)."""
    if z < 0:
        raise ValueError("parent count must be nonnegative")
    out = np.zeros(spec.n_types, dtype=np.int64)
    for j, kids in spec.law(i).draws(z, rng):
        out[j] += kids
    return out


def expectation_matrix(spec: ProcessSpec, n: int = 1) -> np.ndarray:
    """n-step mean matrix M^n (M is upper triangular for valid models)."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    md = _collect_moments(spec)
    return np.linalg.matrix_power(md.mean_matrix, n)


def check_point(spec: ProcessSpec, s: Sequence[float], *,
                slack: float = 0.0) -> None:
    """Reject a point (or complement) of the wrong length or with a
    component outside [0, 1 + slack]."""
    if len(s) != spec.n_types:
        raise ValueError(f"expected {spec.n_types} components, got {len(s)}")
    for x in s:
        if not (0.0 <= x <= 1.0 + slack):
            raise ValueError(f"point component {x!r} outside [0, 1]")


def describe(spec: ProcessSpec) -> dict:
    """Config-shaped dictionary describing the model (for artifacts)."""
    laws = []
    for law in spec.laws:
        if isinstance(law, ProductLaw):
            laws.append({
                "parent": law.parent,
                "kind": "product",
                "children": {
                    str(child): {"family": family_tag(m), **asdict(m)}
                    for child, m in sorted(law.children.items())
                },
            })
        else:
            laws.append({
                "parent": law.parent,
                "kind": "table",
                "rows": [
                    {"counts": list(counts), "prob": p}
                    for counts, p in law.rows
                ],
            })
    return {"name": spec.name, "types": spec.n_types, "laws": laws}
