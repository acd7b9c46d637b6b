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
paired step (the survival and difference forms in one pass), moments,
a scalar view of its own-type coordinate (``own_marginal``), and
batched offspring draws (``draws``).  The engine and the sampler call
these and never look at the shape.

The paired step is written once per law, as straight-line source over
local variables (``_block``): a product law inlines each child
family's ``PAIR`` template, a table law unrolls its rows.  A block
holds only arithmetic that is read and that changes bits: parameters
are literals and a factor of 1.0 is left out, the last factor's
survival at b is dropped, a table's all-zero rows leave its Neumaier
sums, which start from their first term, and ``power_diff`` is written
out in its loop's order without ``** 1``, ``** 0`` or ``1 *``.  A spec
compiles its laws' blocks, in type order, into one kernel on first use
(``ProcessSpec.kernel``), which is the one stepper of every vector
orbit, of the survival table (step n = 1, whose gap is dropped, runs
before the loop, which stores through memoryviews of the rows) and of
the terminal type's scalar chain (its own loop, ``terminal``);
``pair_step`` is a law's block compiled alone, and
``survival_map``/``pair_diff_map`` project it for probes.

All public operations take the process spec as their first argument
and are plain functions, mirroring how the engine modules consume
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateVariance,
    MissingLink,
    ModelStructureError,
    NonCritical,
)
from .families import Marginal, PointMass, pair_source
from .numerics import compile_step, neumaier_sum

CRITICALITY_TOL = 1e-10


def _fields_only(self) -> dict:
    # pickled state: compiled steps do not pickle, and are rebuilt on
    # first use after unpickling
    return {f.name: getattr(self, f.name) for f in fields(self)}


def _step_alone(law) -> Callable:
    """A law's block compiled alone: ``pair_step(da, delta) -> (1 - f(a),
    f(a) - f(b))`` for a = 1 - da, b = a - delta."""
    reads, lines, survival, gap = law._block()
    source = "\n".join([
        "def pair_step(da, delta):",
        *(f"    d{j} = da[{j}]\n    e{j} = delta[{j}]" for j in reads),
        *(f"    {line}" for line in lines),
        f"    return {survival}, {gap}", ""])
    return compile_step(source, f"type {law.parent} pair_step")["pair_step"]


@dataclass(frozen=True)
class ProductLaw:
    """Offspring law with independent per-child-type counts.

    ``children`` maps child type (1-based) to its marginal family;
    absent child types produce zero offspring of that type.
    """

    parent: int
    children: Mapping[int, Marginal]

    __getstate__ = _fields_only

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

    @cached_property
    def pair_step(self) -> Callable:
        """This law's block compiled alone, see ``_block``."""
        return _step_alone(self)

    def _block(self) -> tuple[list[int], list[str], str, str]:
        """The paired step as straight-line source over the locals d{j}
        (complement) and e{j} (gap) of the 0-based child coordinates j:
        (coordinates read, statements, survival expression, gap
        expression).  Each child factor's ``PAIR`` template is inlined
        once, in child order.  The survival follows the pairwise
        complement rule, pinned at exactly 1 by a certain child line;
        the gap is telescoped over the factors (earlier ones at b, later
        ones at a), so no nearby numbers are ever subtracted.

        Only what changes bits is written: the first factor starts from
        acc = total = 0 and lower = 1 without the products by 1.0 (the
        sums with 0.0 stay, they turn -0.0 into 0.0); the last factor's
        update of acc and total is the returned expression, and its
        survival at b, never read, is left out (its ``expm1`` argument
        is <= 0, so it cannot raise).  For one factor the survival pin
        is the factor's own: ``0.0 + sa`` is below 1 whenever sa is."""
        reads, lines = [], []
        last = len(self.children) - 1
        survival = gap = "0.0"
        for k, (child, law) in enumerate(self.children.items()):
            j = child - 1
            reads.append(j)
            factor = pair_source(law, f"d{j}", f"e{j}", f"c{j}_").splitlines()
            if k == last:
                factor = [line for line in factor if not line.startswith("sb = ")]
            lines += factor
            if k == 0:
                gap = "0.0 * (1.0 - sa) + gap"
                acc = "1.0 if sa >= 1.0 else 0.0 + sa"
            else:
                gap = "total * (1.0 - sa) + lower * gap"
                acc = "1.0 if sa >= 1.0 else acc + sa * (1.0 - acc)"
            if k < last:
                lines += [f"total = {gap}", f"acc = {acc}",
                          "lower = 1.0 - sb" if k == 0 else "lower *= 1.0 - sb"]
            elif k == 0:
                survival = acc
            else:
                lines.append(f"acc = {acc}")
                survival = "1.0 if 1.0 < acc else acc"
        return reads, lines, survival, gap

    def mean_row(self, n_types: int) -> np.ndarray:
        row = np.zeros(n_types)
        for child, law in self.children.items():
            row[child - 1] = law.mean
        return row

    def own_second_moment(self) -> float:
        """E[eta_i^2] for the parent's own type i."""
        own = self.own_marginal()
        return own.second_factorial_moment + own.mean

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

    __getstate__ = _fields_only

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

    @cached_property
    def pair_step(self) -> Callable:
        """This law's block compiled alone, see ``_block``."""
        return _step_alone(self)

    def _block(self) -> tuple[list[int], list[str], str, str]:
        """The paired step as straight-line source over the locals d{j}
        (complement) and e{j} (gap) of the coordinates j the rows emit:
        (coordinates read, statements, survival expression, gap
        expression).  The survival is sum_w p_w (1 - prod_j
        (1-d_j)^w_j), using sum p_w = 1, with log1p(-d_j) once per
        coordinate and -inf standing for a certain child line; the gap
        is telescoped over each row's nonzero coordinates, with
        ``power_diff`` written out in its loop's order.  Rows are
        unrolled in table order and both sums written out with
        Neumaier's compensation in that order.

        Only what changes bits is written: no ``** 1``, ``1 *`` or
        factor 1.0, no leading ``0 +`` or ``0.0 +`` in a row, and an
        all-zero row, whose terms are constant zeros, is left out of
        both sums (see ``_neumaier``)."""
        rows = [(p, [(j, c) for j, c in enumerate(w) if c])
                for w, p in self.rows]
        rows = [(p, nz) for p, nz in rows if nz]
        reads = sorted({j for _, nz in rows for j, _ in nz})
        # a_j = 1 - d_j enters power_diff (count > 1) and later factors of
        # the telescope, b_j = 1 - (d_j + e_j) its earlier factors, and
        # power_diff's lower point is h_j = max(a_j - e_j, 0)
        uses_h = sorted({j for _, nz in rows for j, c in nz if c > 1})
        uses_a = sorted({j for _, nz in rows for k, (j, c) in enumerate(nz)
                         if c > 1 or k > 0})
        uses_b = sorted({l for _, nz in rows for l, _ in nz[:-1]})
        lines = [f"l{j} = log1p(-d{j}) if d{j} < 1.0 else -inf"
                 for j in reads]
        lines += [f"a{j} = 1.0 - d{j}" for j in uses_a]
        lines += [f"b{j} = 1.0 - (d{j} + e{j})" for j in uses_b]
        # max(a - e, 0.0) as power_diff takes it, without the call
        lines += [f"h{j} = 0.0 if a{j} < e{j} else a{j} - e{j}" for j in uses_h]
        survs, gaps = [], []
        for p, nz in rows:
            expo = " + ".join(_times(c, f"l{j}") for j, c in nz)
            steps = [" * ".join([
                f"e{j}" if c == 1 else f"e{j} * ({_power_sum(j, c)})",
                *(_power(f"b{l}", cl) for l, cl in nz[:k]),
                *(_power(f"a{l}", cl) for l, cl in nz[k + 1:])])
                for k, (j, c) in enumerate(nz)]
            survs.append(_times(p, f"-expm1({expo})"))
            gaps.append(_times(p, " + ".join(steps)))
        survs, survival = _neumaier(survs, "s")
        gaps, gap = _neumaier(gaps, "g")
        return reads, lines + survs + gaps, survival, gap

    def mean_row(self, n_types: int) -> np.ndarray:
        row = np.zeros(n_types)
        for counts, p in self.rows:
            for j, c in enumerate(counts):
                row[j] += p * c
        return row

    def own_second_moment(self) -> float:
        """E[eta_i^2] for the parent's own type i, summed in row order."""
        return sum(p * counts[self.parent - 1] ** 2 for counts, p in self.rows)

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


def _times(factor, operand: str) -> str:
    """``factor * (operand)``, just the operand for a factor of one."""
    if factor == 1:
        return operand
    if not operand.isidentifier():
        operand = f"({operand})"
    return f"{factor!r} * {operand}"


def _power(base: str, c: int) -> str:
    return base if c == 1 else f"{base} ** {c}"


def _power_sum(j: int, c: int) -> str:
    """The sum in ``power_diff(a_j, e_j, c)``, sum_t a^t h^(c-1-t) over
    t = 0..c-1, in its loop's order.  The powers 0, which are exactly
    1.0, and the leading 0.0 are left out: h ** (c-1) is never -0.0."""
    terms = []
    for t in range(c):
        powers = [_power(f"a{j}", t)] if t else []
        if t < c - 1:
            powers.append(_power(f"h{j}", c - 1 - t))
        terms.append(" * ".join(powers))
    return " + ".join(terms)


def _neumaier(terms: list[str], name: str) -> tuple[list[str], str]:
    """``neumaier_sum`` of ``terms`` (expressions) written out in order:
    (statements, expression of the sum).  The running total and carry
    of ``neumaier_sum`` stay +0.0 until its first nonzero term, so the
    sum starts from the first term, takes its carry from the second
    and ends with ``+ 0.0`` when there is one term (turning -0.0 into
    0.0 as the running total would); a term that is a constant zero
    changes neither total nor carry and is never passed here."""
    if not terms:
        return [], "0.0"
    if len(terms) == 1:
        return [], f"{terms[0]} + 0.0"
    lines = [f"{name}0 = {terms[0]}"]
    carry = f"{name}c"
    for k, term in enumerate(terms[1:], start=1):
        total, v, t = f"{name}{k - 1}", f"{name}v{k}", f"{name}{k}"
        lines += [f"{v} = {term}", f"{t} = {total} + {v}",
                  f"{carry} {'+=' if k > 1 else '='} ({total} - {t}) + {v} "
                  f"if abs({total}) >= abs({v}) else ({v} - {t}) + {total}"]
    return lines, f"{t} + {carry}"


@dataclass(frozen=True)
class _OwnColumn:
    """A table law restricted to its own-type coordinate: the column's
    (count, probability) pairs, in row order.  The terminal chain of a
    table law steps the law's own block (``Kernel.terminal``), which
    reads nothing else when the law is the terminal one."""

    rows: tuple[tuple[int, float], ...]


OffspringLaw = ProductLaw | TableLaw


class Kernel(NamedTuple):
    """A spec's paired sweep, compiled.

    ``advance(da, delta, steps) -> (da, delta)`` steps the (complement,
    gap) pair ``steps`` times and returns tuples; ``table(d, pmf, pi)``
    fills columns 1.. of the survival table arrays from d[:, 0] and the
    gaps ``pi`` at n = 1, and returns the first column it could not
    fill, or None; ``terminal(da, delta, steps) -> (da, delta)`` steps
    the terminal type's scalar pair alone.  ``source`` is the code all
    three were compiled from.
    """

    advance: Callable
    table: Callable
    terminal: Callable
    source: str


def _stall_check(i: int, new: str, n) -> list[str]:
    """The table's stall test of the value ``new`` for coordinate i at
    column n, then the store.  Deterministic feed links keep early death
    mass at exactly zero, which is structure, not precision loss, so a
    stall only counts once the complement has left 1."""
    return [f"if ({new} > d{i} or not ({new} > 0.0) or (d{i} < 1.0 and "
            f"({new} == d{i} or not (e{i} > 0.0)))):",
            f"    return {n}",
            f"d{i} = D{i}[{n}] = {new}", f"P{i}[{n}] = e{i}"]


def _compile_kernel(spec: ProcessSpec) -> Kernel:
    # Each step is one sweep in type order that overwrites coordinate i
    # as soon as law i's block has run.  That is the simultaneous update
    # bit for bit because the process is decomposable: law i reads only
    # coordinates i..N (a table's rows are zero below its own type), and
    # those still hold the previous step's values when it runs.
    sweep, first, checked = [], [], []
    for i, law in enumerate(spec.laws):
        _, lines, survival, gap = law._block()
        sweep += [*lines, f"d{i} = {survival}", f"e{i} = {gap}"]
        first += _stall_check(i, f"q{i}", 1)
        checked += [*lines, f"new = {survival}", f"e{i} = {gap}",
                    *_stall_check(i, "new", "n")]
    # The terminal type reads only its own coordinate, so the last
    # law's block is its scalar step.  A product law has one factor
    # there at most, and the chain takes that factor's sa and gap as its
    # family's ``pair`` computes them, without the pin and the sum with
    # 0.0, which turn -0.0 into 0.0.
    j = spec.n_types - 1
    if isinstance(law, ProductLaw) and law.children:
        survival, gap = "sa", "gap"

    def names(letter):
        return "".join(f"{letter}{i}, " for i in range(spec.n_types))

    ds, es = names("d"), names("e")
    source = "\n".join([
        "def advance(da, delta, steps):",
        f"    {ds}= da", f"    {es}= delta",
        "    for _ in range(steps):",
        *(f"        {line}" for line in sweep),
        f"    return ({ds}), ({es})", "",
        "def table(d, pmf, pi):",
        f"    {names('D')}= map(memoryview, d)",
        f"    {names('P')}= map(memoryview, pmf)",
        f"    {ds}= d[:, 0].tolist()", f"    {es}= pi",
        # step n = 1 is one sweep whose gaps are dropped: pi already
        # holds q(1) = f(0)
        f"    ({names('q')}), _ = advance(({ds}), pi, 1)",
        *(f"    {line}" for line in first),
        "    for n in range(2, d.shape[1]):",
        *(f"        {line}" for line in checked),
        "    return None", "",
        f"def terminal(d{j}, e{j}, steps):",
        "    for _ in range(steps):",
        *(f"        {line}" for line in lines),
        f"        d{j} = {survival}", f"        e{j} = {gap}",
        f"    return d{j}, e{j}", ""])
    compiled = compile_step(source, f"{spec.name} kernel")
    return Kernel(advance=compiled["advance"], table=compiled["table"],
                  terminal=compiled["terminal"], source=source)


@dataclass(frozen=True)
class ProcessSpec:
    """A complete cascade model: one offspring law per type, 1..N."""

    n_types: int
    laws: tuple[OffspringLaw, ...]
    name: str = "model"

    __getstate__ = _fields_only

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

    @cached_property
    def kernel(self) -> Kernel:
        """The laws' paired steps compiled into one sweep, on first use."""
        return _compile_kernel(self)


class Violation(NamedTuple):
    """One failed model assumption, naming the offending type."""

    kind: str  # "non_critical" | "missing_link" | "degenerate_variance"
    type_index: int
    detail: str

    def __str__(self):
        return f"type {self.type_index}: {self.kind} ({self.detail})"


@dataclass(frozen=True)
class MomentData:
    """First offspring moments and own-type variances of a validated model.

    ``b`` holds half the own-type variances, the quadratic
    coefficients that govern every asymptotic rate in the engine.
    """

    n_types: int
    mean_matrix: np.ndarray
    b: tuple[float, ...]

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
    b = []
    for i in range(1, n + 1):
        law = spec.law(i)
        mean[i - 1] = law.mean_row(n)
        own_var = law.own_second_moment() - mean[i - 1, i - 1] ** 2
        # roundoff can push an exact-zero variance slightly negative;
        # Python floats, so no numpy scalar leaks into derived values
        b.append(float(max(own_var, 0.0) / 2.0))
    return MomentData(n_types=n, mean_matrix=mean, b=tuple(b))


def check_assumptions(spec: ProcessSpec) -> list[Violation]:
    """Return all standing-assumption violations (empty if none)."""
    md = _collect_moments(spec)
    out: list[Violation] = []
    n = spec.n_types
    for i in range(1, n + 1):
        m_ii = float(md.mean_matrix[i - 1, i - 1])
        if abs(m_ii - 1.0) > CRITICALITY_TOL:
            out.append(Violation("non_critical", i, f"own mean {m_ii!r}"))
    for i in range(1, n):
        link = float(md.mean_matrix[i - 1, i])
        if not (link > 0.0 and math.isfinite(link)):
            out.append(Violation("missing_link", i, f"link mean {link!r}"))
    for i in range(1, n + 1):
        if not (md.b[i - 1] > 0.0 and math.isfinite(md.b[i - 1])):
            out.append(
                Violation("degenerate_variance", i, f"b = {md.b[i - 1]!r}")
            )
    return out


def validate_hypothesis_A(spec: ProcessSpec, *,
                          force: bool = False) -> MomentData:
    """Check the strong-criticality assumptions and compute moments.

    Returns :class:`MomentData` when the model passes.  Violations are
    raised as the typed exception matching the first failure (carrying
    the full list); :func:`check_assumptions` returns them instead.

    ``force=True`` waives the own-mean-equals-one check only, for
    deliberately near-critical studies; structural failures are still
    enforced.
    """
    violations = check_assumptions(spec)
    if force:
        violations = [v for v in violations if v.kind != "non_critical"]
    if violations:
        raise _VIOLATION_EXC[violations[0].kind](violations)
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
    zero = [0.0] * spec.n_types
    return tuple(law.pair_step(d, zero)[0] for law in spec.laws)


def pair_diff_map(spec: ProcessSpec, da: Sequence[float],
                  delta: Sequence[float]) -> tuple[float, ...]:
    """f_i(a) - f_i(b) for the point pair a = 1 - da, b = a - delta."""
    return tuple(law.pair_step(da, delta)[1] for law in spec.laws)


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
