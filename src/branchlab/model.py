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

Each shape answers the same questions: the vector pgf, its paired
step (the survival and difference forms in one pass), moments and
batched offspring draws (``draws``).  The engine and the sampler call
these and never look at the shape.

The paired step is written once per law, as straight-line source over
local variables that writes its survival and gap into the names it is
given (``_block``): a product law inlines each child family's ``PAIR``
template, a table law unrolls its rows.  A block holds only arithmetic
that is read and that changes bits: parameters are literals and a
factor of 1.0 is left out, the last factor's survival at b is dropped,
the product survival has no pin at 1 and no clamp, the product and a
table's Neumaier sums start from their first factor or term (all-zero
rows left out), ``power_diff`` is written out in its loop's order
without ``** 1``, ``** 0`` or ``1 *`` (by a table row and by a
``PointMass`` factor alike, through ``families.power_sum``), no
statement assigns a name to itself, and no statement writes the
sign of a zero: the kernel takes -0.0 as +0.0 once per call.  A spec
compiles its laws' blocks, in type order, into one kernel on first use
(``ProcessSpec.kernel``), the one stepper of the spec: of every vector
orbit, of the survival table (the vector sweep, then a check and store
of each value it wrote, through memoryviews of the rows; step n = 1,
whose gap is dropped, runs before the loop) and of the terminal type's
scalar chain (its own loop, ``terminal``, the last law's block).
``survival_map`` and ``pair_diff_map`` are the two halves of one
kernel step, kept for probes.

All public operations take the process spec as their first argument
and are plain functions, mirroring how the engine modules consume
them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateVariance,
    MissingLink,
    ModelStructureError,
    NonCritical,
)
from .families import (Marginal, PointMass, _fields_only, pair_source, power,
                       power_sum)
from .numerics import compile_step, neumaier_sum

if TYPE_CHECKING:
    import numpy as np

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

    def _block(self, sa: str, gap: str) -> list[str]:
        """The paired step as straight-line source over the locals d{j}
        (complement) and e{j} (gap) of the 0-based child coordinates j,
        writing the survival into the name ``sa``, then the gap into
        ``gap``.  Each child factor's ``PAIR`` template is inlined once,
        in child order.  The survival follows the pairwise complement
        rule, acc + sa * (1 - acc); the gap is telescoped over the
        factors (earlier ones at b, later ones at a), so no nearby
        numbers are ever subtracted.

        Only what changes bits is written.  A lone factor leaves its
        results in ``sa`` and ``gap`` (a result equal to its input is
        no statement, so the block of an identity factor, Bernoulli(1.0),
        is empty); of several, the first one's
        start acc and total, and the last one's update of both goes to
        ``sa`` and ``gap``, without its survival at b, never read (its
        ``expm1`` argument is <= 0, so it cannot raise).  No sign of a
        zero is written: the kernel takes -0.0 inputs as +0.0, and from
        inputs >= +0.0 every template gives results >= +0.0 (products
        and quotients of them, of 1 - d and of parameters >= 0, or
        -expm1(x) for x <= -0.0), so every update sums terms >= +0.0.
        No pin or clamp at 1 is needed: for da in [0, 1] each template
        gives sa in [0, 1] (Geometric m*da / (1 + m*da), whose rounded
        denominator is at least its numerator; Poisson and PointMass
        -expm1(x) for x <= 0, or 0 or 1; Bernoulli p*da, p in [0, 1]),
        so acc starts in [0, 1].  For acc in [0, 1], fl(1 - acc) is
        exact if acc >= 1/2 (Sterbenz) and within 2^-54 otherwise, so
        acc + 1.0 * (1.0 - acc) is exactly 1; rounding is monotone, so
        each update stays in [0, 1], a factor with sa = 1 gives exactly
        1 and later ones keep it (acc + sa * 0.0)."""
        lines = []
        last = len(self.children) - 1
        for k, (child, law) in enumerate(self.children.items()):
            names = ({"sa": sa, "gap": gap} if k == last == 0 else
                     {"sa": "acc", "gap": "total"} if k == 0 else {})
            lines += _factor(law, child - 1, k == last, **names)
            if k == 0 < last:
                lines.append("lower = 1.0 - sb")
            elif k < last:
                lines += ["total = total * (1.0 - sa) + lower * gap",
                          "acc = acc + sa * (1.0 - acc)", "lower *= 1.0 - sb"]
            elif k > 0:
                lines += [f"{sa} = acc + sa * (1.0 - acc)",
                          f"{gap} = total * (1.0 - sa) + lower * gap"]
        return lines if self.children else [f"{sa} = 0.0", f"{gap} = 0.0"]

    def mean_row(self, n_types: int) -> tuple[float, ...]:
        row = [0.0] * n_types
        for child, law in self.children.items():
            row[child - 1] = float(law.mean)
        return tuple(row)

    def own_second_moment(self) -> float:
        """E[eta_i^2] for the parent's own type i; no own-type children
        count as a point mass at 0."""
        own = self.children.get(self.parent, PointMass(0))
        return own.second_factorial_moment + own.mean

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

    def _block(self, sa: str, gap: str) -> list[str]:
        """The paired step as straight-line source over the locals d{j}
        (complement) and e{j} (gap) of the coordinates j the rows emit,
        writing the survival into the name ``sa``, then the gap into
        ``gap`` (no term reads d{j} itself).  The survival
        is sum_w p_w (1 - prod_j (1-d_j)^w_j), using sum p_w = 1, with
        log1p(-d_j) once per coordinate and -inf standing for a certain
        child line; the gap is telescoped over each row's nonzero
        coordinates, with ``power_diff`` written out in its loop's
        order.  Rows are unrolled in table order and both sums written
        out with Neumaier's compensation in that order.

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
                f"e{j}" if c == 1
                else f"e{j} * ({power_sum(f'a{j}', f'h{j}', c)})",
                *(power(f"b{l}", cl) for l, cl in nz[:k]),
                *(power(f"a{l}", cl) for l, cl in nz[k + 1:])])
                for k, (j, c) in enumerate(nz)]
            survs.append(_times(p, f"-expm1({expo})"))
            gaps.append(_times(p, " + ".join(steps)))
        return lines + _neumaier(survs, "s", sa) + _neumaier(gaps, "g", gap)

    def mean_row(self, n_types: int) -> tuple[float, ...]:
        row = [0.0] * n_types
        for counts, p in self.rows:
            for j, c in enumerate(counts):
                row[j] += p * c
        return tuple(row)

    def own_second_moment(self) -> float:
        """E[eta_i^2] for the parent's own type i, summed in row order."""
        return sum(p * counts[self.parent - 1] ** 2 for counts, p in self.rows)

    @cached_property
    def _sampling_plan(self):
        # built once: the sampler draws from every law each generation
        import numpy as np

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


def _factor(family: Marginal, j: int, last: bool, **results) -> list[str]:
    """``family``'s ``PAIR`` template over d{j} and e{j} as statements,
    with its results named by ``results`` (``pair_source``); a last
    factor's survival at b, which nothing reads, is left out."""
    lines = pair_source(family, f"d{j}", f"e{j}", f"c{j}_", **results)
    return [line for line in lines.splitlines()
            if not (last and line.startswith("sb = "))]


def _times(factor, operand: str) -> str:
    """``factor * (operand)``, just the operand for a factor of one."""
    if factor == 1:
        return operand
    if not operand.isidentifier():
        operand = f"({operand})"
    return f"{factor!r} * {operand}"


def _neumaier(terms: list[str], name: str, target: str) -> list[str]:
    """``neumaier_sum`` of ``terms`` (expressions) written out in order,
    ending with the sum's store into ``target``.  The running total and
    carry of ``neumaier_sum`` stay +0.0 until its first nonzero term,
    so the sum starts from the first term and takes its carry from the
    second, and one term is the sum: 0.0 + term differs only for a term
    of -0.0, and past the kernel's entry none is (p * -expm1(x) for x
    <= -0.0, or p times sums of products of gaps, 1 - d_j and 1 - (d_j
    + e_j), all >= +0.0 while d_j + e_j <= 1).  A constant zero term
    changes neither total nor carry and is never passed here."""
    if len(terms) < 2:
        return [f"{target} = {terms[0] if terms else '0.0'}"]
    lines = [f"{name}0 = {terms[0]}"]
    carry = f"{name}c"
    for k, term in enumerate(terms[1:], start=1):
        total, v, t = f"{name}{k - 1}", f"{name}v{k}", f"{name}{k}"
        lines += [f"{v} = {term}", f"{t} = {total} + {v}",
                  f"{carry} {'+=' if k > 1 else '='} ({total} - {t}) + {v} "
                  f"if abs({total}) >= abs({v}) else ({v} - {t}) + {total}"]
    return lines + [f"{target} = {t} + {carry}"]


OffspringLaw = ProductLaw | TableLaw


class Kernel(NamedTuple):
    """A spec's paired sweep, compiled: the spec's one stepper.

    ``advance(da, delta, steps) -> (da, delta)`` steps the (complement,
    gap) pair ``steps`` times and returns tuples (coordinate i of a step
    is law i's paired step); ``table(d, pmf, pi)`` fills columns 1.. of
    the survival table arrays from d[:, 0] and the gaps ``pi`` at n = 1,
    and returns the first column it does not keep (``_stall_check``),
    or None;
    ``terminal(da, delta, steps) -> (da, delta)`` steps the terminal
    type's scalar pair alone; both take an input of -0.0 as +0.0.
    ``source`` is the code all three were compiled from.
    """

    advance: Callable
    table: Callable
    terminal: Callable
    source: str


def _stall_check(n_types: int, n) -> list[str]:
    """The table's test of column n on the values the sweep just wrote,
    then their store, coordinate by coordinate.  A column is kept while
    every complement is a normal double in [``sys.float_info.min``, 1]
    and, from n = 2 on, every gap of a complement below 1 is one too, so
    every stored entry has a double's relative precision.  A complement
    of exactly 1 may have a zero gap (deterministic feed links keep
    early death mass at zero), and so may the n = 1 gap f(0), exact,
    beside a complement just below 1 (a table law without a childless
    row whose probabilities round below 1)."""
    tiny, lines = repr(sys.float_info.min), []
    for i in range(n_types):
        gap = "" if n == 1 else f" or d{i} < 1.0 and not ({tiny} <= e{i})"
        lines += [f"if not ({tiny} <= d{i} <= 1.0){gap}:", f"    return {n}",
                  f"D{i}[{n}] = d{i}", f"P{i}[{n}] = e{i}"]
    return lines


def _compile_kernel(spec: ProcessSpec) -> Kernel:
    # Each step is one sweep in type order that overwrites coordinate i
    # as soon as law i's block has run.  That is the simultaneous update
    # bit for bit because the process is decomposable: law i reads only
    # coordinates i..N (a table's rows are zero below its own type), and
    # those still hold the previous step's values when it runs.  The
    # table loop is that sweep, then each coordinate's check and store.
    blocks = [law._block(f"d{i}", f"e{i}") for i, law in enumerate(spec.laws)]
    sweep = [line for block in blocks for line in block]
    # The terminal type reads only its own coordinate, so the last
    # law's block in advance is its scalar step.  advance and terminal
    # take -0.0 as +0.0 at entry; table starts from 1.0 and f(0) >= +0.0.
    # The block of an identity law (a lone Bernoulli(1.0)) is empty.
    j, block = spec.n_types - 1, blocks[-1]

    def names(letter):
        return "".join(f"{letter}{i}, " for i in range(spec.n_types))

    ds, es = names("d"), names("e")
    source = "\n".join([
        "def advance(da, delta, steps):",
        f"    {ds}= [x + 0.0 for x in da]", f"    {es}= [x + 0.0 for x in delta]",
        "    for _ in range(steps):",
        *(f"        {line}" for line in sweep or ["pass"]),
        f"    return ({ds}), ({es})", "",
        "def table(d, pmf, pi):",
        f"    {names('D')}= map(memoryview, d)",
        f"    {names('P')}= map(memoryview, pmf)",
        # step n = 1 is one sweep whose gaps are dropped: pi already
        # holds q(1) = f(0)
        f"    ({ds}), _ = advance(d[:, 0].tolist(), pi, 1)", f"    {es}= pi",
        *(f"    {line}" for line in _stall_check(spec.n_types, 1)),
        "    for n in range(2, d.shape[1]):",
        *(f"        {line}"
          for line in sweep + _stall_check(spec.n_types, "n")),
        "    return None", "",
        f"def terminal(d{j}, e{j}, steps):",
        f"    d{j}, e{j} = d{j} + 0.0, e{j} + 0.0",
        "    for _ in range(steps):",
        *(f"        {line}" for line in block or ["pass"]),
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
    mean_matrix: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    @property
    def link_means(self) -> tuple[float, ...]:
        """Means of the type i -> i+1 feeds, i = 1..N-1."""
        return tuple(self.mean_matrix[i][i + 1] for i in range(self.n_types - 1))


_VIOLATION_EXC = {
    "non_critical": NonCritical,
    "missing_link": MissingLink,
    "degenerate_variance": DegenerateVariance,
}


def _collect_moments(spec: ProcessSpec) -> MomentData:
    mean = tuple(law.mean_row(spec.n_types) for law in spec.laws)
    # roundoff can push an exact-zero variance slightly negative
    b = tuple(max(law.own_second_moment() - row[i] ** 2, 0.0) / 2.0
              for i, (law, row) in enumerate(zip(spec.laws, mean)))
    return MomentData(n_types=spec.n_types, mean_matrix=mean, b=b)


def check_assumptions(spec: ProcessSpec) -> list[Violation]:
    """Return all standing-assumption violations (empty if none)."""
    md = _collect_moments(spec)
    out: list[Violation] = []
    n = spec.n_types
    for i in range(1, n + 1):
        m_ii = md.mean_matrix[i - 1][i - 1]
        if abs(m_ii - 1.0) > CRITICALITY_TOL:
            out.append(Violation("non_critical", i, f"own mean {m_ii!r}"))
    for i in range(1, n):
        link = md.mean_matrix[i - 1][i]
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
    return spec.kernel.advance(d, [0.0] * spec.n_types, 1)[0]


def pair_diff_map(spec: ProcessSpec, da: Sequence[float],
                  delta: Sequence[float]) -> tuple[float, ...]:
    """f_i(a) - f_i(b) for the point pair a = 1 - da, b = a - delta."""
    return spec.kernel.advance(da, delta, 1)[1]


def sample_offspring(spec: ProcessSpec, i: int, z: int, rng) -> np.ndarray:
    """Summed offspring vector of z type-i parents (exact batch draw)."""
    if z < 0:
        raise ValueError("parent count must be nonnegative")
    import numpy as np

    out = np.zeros(spec.n_types, dtype=np.int64)
    for j, kids in spec.law(i).draws(z, rng):
        out[j] += kids
    return out


def expectation_matrix(spec: ProcessSpec, n: int = 1) -> np.ndarray:
    """n-step mean matrix M^n (M is upper triangular for valid models)."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    import numpy as np

    md = _collect_moments(spec)
    return np.linalg.matrix_power(np.array(md.mean_matrix), n)


def check_point(spec: ProcessSpec, s: Sequence[float], *,
                slack: float = 0.0) -> None:
    """Reject a point (or complement) of the wrong length or with a
    component outside [0, 1 + slack]."""
    if len(s) != spec.n_types:
        raise ValueError(f"expected {spec.n_types} components, got {len(s)}")
    for x in s:
        if not (0.0 <= x <= 1.0 + slack):
            raise ValueError(f"point component {x!r} outside [0, 1]")
