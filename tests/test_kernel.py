"""The compiled kernel against the interpretive reference, bit for bit.

``tests/reference_step.py`` keeps the loops the kernel replaced: each
family's fused pair, each law shape's pair step, the in-place sweep,
the table loop and the terminal chain.  On random product and table
models (no criticality assumed), each coordinate of one kernel step,
the kernel's ``advance``, ``build_survival_table`` and the kernel's
terminal loop must return the same bits, ``truncated_at`` included.  The
strategies reach every rule by which the kernel leaves arithmetic out:
the parameters it folds (a mean or probability of exactly 1.0, the
counts 0 and 1), a table's all-zero, zero-probability and single
nonzero rows, counts up to 4, signed zeros (both sides take -0.0 as
+0.0 once, at entry; the reference keeps its running sums from 0.0,
which the kernel's steps leave out), certain child lines (the product
survival's pin and clamp, which the reference keeps), and tables that
truncate at n = 1 and n = 2.  A table whose probabilities sum above 1
(a pinned example, and random tables raised by up to 64 ulps) keeps
every complement at most 1, and a two-term sum with a row of
probability 1 adds that row's gap as one term.  A pinned table checks
that its sums run in row order, a
pinned ``PointMass(2)`` terminal that the terminal loop, which writes
the results over its inputs, reads the complement before it
overwrites it, pinned tables that each clause of the table's rule
stops the table (a complement or a gap below the smallest normal
double) and that a zero gap at n = 1, a complement that ticks up or
a table whose probabilities sum above 1 (lowered at construction, so
no complement exceeds 1) does not, and a pinned identity law (a lone
Bernoulli(1.0), whose block is empty) that its step keeps the pair.
Up to its truncation the table holds no subnormal entry and agrees
with plain iteration at 340 digits within 1e-13 relative.
A family's probes (``survival`` and ``pgf_diff``, one step of its own
kernel) give the reference's pair, ``PointMass(0..5)`` at the ends of
[0, 1] too.  On every stock model and a table terminal, -0.0 inputs
give +0.0 results from every public step, the m = 0 shortcuts of
``iterate_point`` and ``conditional_transform`` included.  A spec whose family has stepped
still pickles, and samples the same bits at one and two workers.
"""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_step as ref
from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import (ProcessSpec, ProductLaw, TableLaw, pair_diff_map,
                             survival_map)
from branchlab.montecarlo import SimConfig, estimate_pmf_T
from branchlab.pgf import (build_survival_table, conditional_transform,
                           extinction_time_pmf, iterate_point, terminal_gap)
from branchlab.zoo import STOCK_MODELS
from test_layering import _all_tables

GEOMETRIC_2 = ProcessSpec(n_types=1, laws=(
    ProductLaw(parent=1, children={1: Geometric(2.0)}),))
GEOMETRIC_09 = ProcessSpec(n_types=1, laws=(
    ProductLaw(parent=1, children={1: Geometric(0.9)}),))
TABLE_LAW = ProcessSpec(n_types=1, laws=(TableLaw(parent=1, rows=(
    ((0,), 0.6), ((1,), 0.2), ((2,), 0.2))),))
# supercritical type 2 feeding a critical type 1: both settle on a
# fixed point below 1
SETTLING = ProcessSpec(n_types=2, laws=(
    ProductLaw(parent=1, children={1: Geometric(1.0), 2: Poisson(3.0)}),
    ProductLaw(parent=2, children={2: Geometric(2.0)})))

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
means = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)

families = st.one_of(
    means.map(Geometric),
    means.map(Poisson),
    unit.map(Bernoulli),
    st.integers(0, 5).map(PointMass),
    # the parameters the kernel writes without their arithmetic
    st.sampled_from([Geometric(1.0), Poisson(1.0), Bernoulli(0.0),
                     Bernoulli(1.0), PointMass(0), PointMass(1)]),
)


@st.composite
def product_laws(draw, parent, n_types):
    # 1-3 child factors in a drawn order, which fixes the telescope's
    children = draw(st.lists(st.integers(parent, n_types), min_size=1,
                             max_size=3, unique=True))
    return ProductLaw(parent=parent,
                      children={c: draw(families) for c in children})


@st.composite
def table_laws(draw, parent, n_types):
    # counts 0-4 on the parent's type and above, the lower coordinates
    # present at count zero, often with an all-zero row; a single
    # nonzero row has probability 1.0 or shares it with that row
    width = n_types - parent + 1
    counts = st.lists(st.integers(0, 4), min_size=width, max_size=width)
    if draw(st.booleans()):
        rows = [draw(counts.filter(any))]
    else:
        rows = draw(st.lists(counts, min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    # now and then an exact 0.0 weight: a zero-probability row, which
    # the kernel leaves out of both sums
    weight = st.one_of(st.floats(0.0, 1.0).map(lambda w: w + 1e-3),
                       st.just(0.0))
    weights = draw(st.lists(weight, min_size=len(rows),
                            max_size=len(rows)).filter(any))
    total = sum(weights)
    return TableLaw(parent=parent, rows=tuple(
        ((0,) * (parent - 1) + tuple(counts), w / total)
        for counts, w in zip(rows, weights)))


@st.composite
def models(draw, max_types=4):
    n = draw(st.integers(1, max_types))
    laws = tuple(draw(st.one_of(product_laws(i, n), table_laws(i, n)))
                 for i in range(1, n + 1))
    return ProcessSpec(n_types=n, laws=laws, name="random")


@st.composite
def stalling_models(draw):
    """Random models with one law replaced so that the table truncates
    at n = 1 or n = 2 (or earlier in type order): a law without
    offspring stalls at n = 1, and a parent whose only children are of a
    type with one certain child keeps its complement at n = 2 with a
    zero gap."""
    spec = draw(models())
    n = spec.n_types
    laws = list(spec.laws)
    if n == 1 or draw(st.booleans()):
        i = draw(st.integers(1, n))
        laws[i - 1] = draw(st.sampled_from([
            ProductLaw(parent=i, children={}),
            ProductLaw(parent=i, children={i: PointMass(0)}),
            TableLaw(parent=i, rows=(((0,) * n, 1.0),))]))
    else:
        laws[n - 1] = ProductLaw(parent=n, children={n: PointMass(1)})
        laws[n - 2] = ProductLaw(parent=n - 1, children={n: draw(st.one_of(
            means.map(Geometric), means.map(Poisson),
            st.floats(0.01, 0.99).map(Bernoulli)))})
    return ProcessSpec(n_types=n, laws=tuple(laws), name="stalling")


@st.composite
def terminal_specs(draw):
    """Random models whose terminal law is any family alone, no
    offspring, or an own column with counts 0-4."""
    spec = draw(models(max_types=3))
    n = spec.n_types
    last = draw(st.one_of(
        families.map(lambda f: ProductLaw(parent=n, children={n: f})),
        st.just(ProductLaw(parent=n, children={})),
        table_laws(n, n)))
    return ProcessSpec(n_types=n, laws=spec.laws[:-1] + (last,),
                       name="terminal")


@st.composite
def pairs(draw, n=4):
    """(da, delta) with 0 <= delta <= 1 - da: pinned certain child lines
    (da = 1), zero gaps, signed zeros and 1e-300-sized entries among
    them."""
    da, delta = [], []
    for _ in range(n):
        d = draw(st.one_of(unit, st.just(1.0), st.just(1e-300),
                           st.just(0.0), st.just(-0.0)))
        frac = draw(st.one_of(unit, st.just(0.0), st.just(-0.0)))
        da.append(d)
        delta.append(frac * (1.0 - d))
    return da, delta


def hexes(values):
    return [x.hex() for x in values]


@given(models(), pairs(), pairs())
@example(ProcessSpec(n_types=1, laws=(
    ProductLaw(parent=1, children={1: Bernoulli(1.0)}),)),
    ([0.5] * 4, [0.25] * 4), ([0.0] * 4, [0.0] * 4))
@settings(max_examples=300, deadline=None)
def test_compiled_pair_step_is_the_reference(spec, pair, lower):
    # coordinate i of one kernel step is law i's paired step, whatever
    # the lower coordinates hold
    n = spec.n_types
    da, delta = pair[0][:n], pair[1][:n]
    for i, law in enumerate(spec.laws):
        want = ref.pair_step(law, da, delta)
        for start in ((da, delta), (lower[0][:i] + da[i:],
                                    lower[1][:i] + delta[i:])):
            step = spec.kernel.advance(*start, 1)
            assert hexes(v[i] for v in step) == hexes(want)


@given(models(), pairs(), st.integers(0, 8))
@example(ProcessSpec(n_types=2, laws=(
    ProductLaw(parent=1, children={1: Geometric(0.5), 2: Bernoulli(1.0)}),
    TableLaw(parent=2, rows=(((0, 1), 0.000997008973080758),
                             ((0, 1), 0.9980059820538387),
                             ((0, 1), 0.000997008973080758))))),
    ([1.0] * 4, [0.0] * 4), 2)
@settings(max_examples=200, deadline=None)
def test_kernel_advance_is_the_reference_sweep(spec, pair, steps):
    # the example's probabilities sum to 1 + 2^-52 in the kernel's sum
    # as given; lowered at construction, its complement of 1 stays 1,
    # which Bernoulli(1.0) passes on unpinned
    n = spec.n_types
    da, delta = pair[0][:n], pair[1][:n]
    got = spec.kernel.advance(da, delta, steps)
    want = ref.advance_pair(spec, da, delta, steps)
    assert [hexes(v) for v in got] == [hexes(v) for v in want]
    assert (list(da), list(delta)) == (pair[0][:n], pair[1][:n])


def assert_table_is_the_reference(spec, n_max):
    table = build_survival_table(spec, n_max)
    d, pmf, truncated_at = ref.survival_table(spec, n_max)
    assert table.truncated_at == truncated_at
    assert table.d.tobytes() == d.tobytes()
    assert table.pmf.tobytes() == pmf.tobytes()
    return table


@given(models(), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_kernel_table_is_the_reference_loop(spec, n_max):
    assert_table_is_the_reference(spec, n_max)


@given(stalling_models(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_kernel_table_stalls_early_where_the_reference_does(spec, n_max):
    table = assert_table_is_the_reference(spec, n_max)
    assert table.truncated_at in (1, 2) or n_max == 1


def test_kernel_table_truncates_where_the_reference_does():
    table = assert_table_is_the_reference(GEOMETRIC_2, 1100)
    assert table.truncated_at == 1021


def test_kernel_table_truncates_at_the_peeled_step_and_the_next():
    # step n = 1 runs before the loop, n = 2 is the loop's first
    none = ProcessSpec(n_types=1, laws=(ProductLaw(parent=1, children={}),))
    assert assert_table_is_the_reference(none, 5).truncated_at == 1
    feed = ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={2: Geometric(0.5)}),
        ProductLaw(parent=2, children={2: PointMass(1)})))
    assert assert_table_is_the_reference(feed, 5).truncated_at == 2


def test_kernel_table_keeps_a_zero_gap_at_the_peeled_step():
    # the gap at n = 1 is f(0), exact: without a childless row it is
    # 0.0, beside a complement that these probabilities round below 1
    spec = ProcessSpec(n_types=2, laws=(
        TableLaw(parent=1, rows=(((0, 1), 0.05673758865248227),
                                 ((0, 1), 0.9432624113475176))),
        ProductLaw(parent=2, children={2: Geometric(1.0)})))
    table = assert_table_is_the_reference(spec, 5)
    assert table.truncated_at is None
    assert table.d[0, 1] == 0.9999999999999999 and table.pmf[0, 1] == 0.0


def test_kernel_table_runs_on_where_a_complement_would_exceed_one():
    # these probabilities sum to 1 + 1.7e-16, 1 + 2^-52 in the kernel's
    # sum: construction lowers the larger by the excess (one ulp), so
    # the complement of this table without a childless row stays
    # exactly 1 and the table runs on.  At n = 52 type 1 of this
    # supercritical cascade, settling on its fixed point from above,
    # steps up by one ulp, which stops nothing: the table runs on until
    # the gap leaves the normal range
    rows = (((1,), 0.37 / 1.17), ((2,), 0.8 / 1.17))
    above_one = ProcessSpec(n_types=1, laws=(TableLaw(parent=1, rows=rows),))
    assert math.fsum([p for _, p in rows] + [-1.0]) > 2.0 ** -53
    assert above_one.law(1).rows == (
        rows[0], ((2,), math.nextafter(rows[1][1], 0.0)))
    assert assert_table_is_the_reference(above_one, 5).truncated_at is None
    assert above_one.kernel.advance([1.0], [0.0], 1)[0][0] == 1.0
    table = assert_table_is_the_reference(SETTLING, 1100)
    assert table.truncated_at == 1020
    assert table.d[0, 52] > table.d[0, 51] and table.pmf[0, 52] > 0.0


@given(table_laws(1, 2), st.integers(0, 64), pairs(2))
@settings(max_examples=300, deadline=None)
def test_table_complements_stay_at_most_one(law, ulps, pair):
    # probabilities raised by up to 64 ulps of 1 in all: construction
    # leaves their exact excess over 1 at most 2^-54, so one step from
    # d = 1 or from any d in [0, 1] gives a complement of at most 1
    law = TableLaw(parent=1, rows=tuple(
        (counts, p * (1.0 + ulps * 2.0 ** -52)) for counts, p in law.rows))
    assert math.fsum([p for _, p in law.rows] + [-1.0]) <= 2.0 ** -54
    spec = ProcessSpec(n_types=2, laws=(law, ProductLaw(
        parent=2, children={2: Geometric(1.0)})))
    for da, delta in (([1.0, 1.0], [0.0, 0.0]), pair):
        step = spec.kernel.advance(da, delta, 1)
        assert step[0][0] <= 1.0
        assert hexes(v[0] for v in step) == hexes(
            ref.pair_step(law, [x + 0.0 for x in da], [x + 0.0 for x in delta]))


def _step_past(table):
    """The kernel step from the table's last usable column."""
    n = table.usable_n()
    return table.spec.kernel.advance(table.d[:, n].tolist(),
                                     table.pmf[:, n].tolist(), 1)


def test_kernel_table_truncates_where_the_complement_underflows():
    # subcritical with mean below 1/2: the complement leaves the normal
    # range while its gap, about 3 times larger, is still in it
    spec = ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: Geometric(0.25)}),))
    table = assert_table_is_the_reference(spec, 600)
    assert table.truncated_at == 511
    (d,), (e,) = _step_past(table)
    assert 0.0 < d < sys.float_info.min <= e


def test_kernel_table_truncates_where_the_gap_underflows():
    # the complement is still a normal double when its gap leaves the
    # normal range: supercritical, settled on the survival probability
    # 1/2, and subcritical with mean above 1/2
    for spec, stall in ((GEOMETRIC_2, 1021), (TABLE_LAW, 1385)):
        table = assert_table_is_the_reference(spec, stall + 20)
        assert table.truncated_at == stall
        (d,), (e,) = _step_past(table)
        assert sys.float_info.min <= d < 1.0 and 0.0 < e < sys.float_info.min


def test_kernel_table_is_normal_and_accurate_up_to_its_truncation():
    # against plain iteration at 340 digits, which resolves every entry
    # down to the smallest normal double: no stored entry is subnormal,
    # every one is within 1e-13 relative, and the table stops at the
    # first column where the exact values leave the normal range
    tiny = sys.float_info.min
    for spec, stall in ((GEOMETRIC_2, 1021), (GEOMETRIC_09, 6681),
                        (TABLE_LAW, 1385), (SETTLING, 1020)):
        table = build_survival_table(spec, stall + 5)
        d, pmf = ref.extended_table(spec, stall, digits=340)
        assert table.truncated_at == stall
        got_d, got_pmf = table.d[:, 1:stall], table.pmf[:, 1:stall]
        assert (got_d >= tiny).all()
        assert ((got_pmf == 0.0) | (got_pmf >= tiny)).all()
        assert np.allclose(got_d, d[:, 1:stall], rtol=1e-13, atol=0.0)
        assert np.allclose(got_pmf, pmf[:, 1:stall], rtol=1e-13, atol=0.0)
        assert [n for n in range(1, stall + 1) if not all(
            ref.kept(n, x, g) for x, g in zip(d[:, n], pmf[:, n]))] == [stall]
    table = build_survival_table(GEOMETRIC_2, 500)
    assert extinction_time_pmf(table, 1, 400) > 0.0


@given(terminal_specs(), pairs(1), st.integers(0, 8))
@example(ProcessSpec(n_types=1, laws=(
    ProductLaw(parent=1, children={1: PointMass(2)}),)), ([0.3], [0.2]), 3)
@settings(max_examples=300, deadline=None)
def test_kernel_terminal_is_the_reference_chain(spec, pair, steps):
    (da,), (delta,) = pair
    got = spec.kernel.terminal(da, delta, steps)
    assert hexes(got) == hexes(ref.terminal_pair(spec, da, delta, steps))


def probes(family, da, delta):
    """A family's probes laid out like the reference's pair: the survival
    at a and at b (the survival of da + delta, bit for bit in every
    template), and the gap."""
    return (family.survival(da), family.survival(da + delta),
            family.pgf_diff(da, delta))


@given(families, pairs(1))
@settings(max_examples=300, deadline=None)
def test_family_pair_methods_are_the_reference(family, pair):
    # the probes step a kernel, which takes -0.0 as +0.0
    (da,), (delta,) = pair
    assert hexes(probes(family, da, delta)) == hexes(
        ref.family_pair(family, da + 0.0, delta + 0.0))


@pytest.mark.parametrize("k", range(6))
def test_point_mass_pairs_are_the_reference_at_the_edges(k):
    # the written-out PointMass arithmetic against power_complement and
    # power_diff at the ends of [0, 1], with no gap, with the gap
    # reaching b = 0, and one ulp past it, where b is clamped to 0
    family = PointMass(k)
    for da in (0.0, 5e-324, 1e-300, 1e-16, 1.0 - 1e-16, 0.5, 1.0):
        for delta in (0.0, 1.0 - da, math.nextafter(1.0 - da, 2.0)):
            assert hexes(probes(family, da, delta)) == hexes(
                ref.family_pair(family, da, delta))


def test_table_sums_run_in_row_order():
    # Neumaier's sum is not free of order: these probabilities sum to
    # 0x1.1ffffffffffffp-6 in row order and to 0x1.2p-6 reversed.  At
    # da = 1 the survival terms are the probabilities times 1.0, and at
    # da = 0, delta = 1 the gap terms are; the all-zero row is in
    # neither sum
    probs = [float.fromhex(x) for x in ("0x1.ffffffffffffep-7",
                                        "0x1.0000000000002p-9",
                                        "0x1.ffffffffffffep-61")]
    spec = ProcessSpec(n_types=1, laws=(TableLaw(parent=1, rows=(
        ((0,), 1.0 - math.fsum(probs)), *(((1,), p) for p in probs))),))
    survival = spec.kernel.advance([1.0], [0.0], 1)[0][0]
    gap = spec.kernel.advance([0.0], [1.0], 1)[1][0]
    assert survival.hex() == gap.hex() == "0x1.1ffffffffffffp-6"
    assert survival == ref.pair_step(spec.law(1), [1.0], [0.0])[0]
    assert gap == ref.pair_step(spec.law(1), [0.0], [1.0])[1]


def test_a_plain_two_term_sum_adds_each_term_whole():
    # a row of probability 1 beside one of 1e-17, an excess below 2^-54
    # that stays: its gap term, a sum of two products, is added as one
    # term, as Neumaier's sum adds it
    spec = ProcessSpec(n_types=2, laws=(
        TableLaw(parent=1, rows=(((1, 0), 1e-17), ((1, 1), 1.0))),
        ProductLaw(parent=2, children={2: Geometric(1.0)})))
    rng = np.random.default_rng(5)
    for da in rng.random((200, 2)).tolist():
        delta = [x * (1.0 - d) for x, d in zip(rng.random(2).tolist(), da)]
        got = spec.kernel.advance(da, delta, 1)
        want = ref.advance_pair(spec, da, delta, 1)
        assert [hexes(v) for v in got] == [hexes(v) for v in want]


def test_stock_kernels_are_the_reference():
    for make in STOCK_MODELS.values():
        spec = make()
        assert_table_is_the_reference(spec, 2000)
        da = [0.7 - 0.2 * j for j in range(spec.n_types)]
        delta = [0.1 / (j + 1) for j in range(spec.n_types)]
        got = spec.kernel.advance(da, delta, 300)
        want = ref.advance_pair(spec, da, delta, 300)
        assert [hexes(v) for v in got] == [hexes(v) for v in want]


def test_stock_terminals_are_the_reference_chain():
    for make in STOCK_MODELS.values():
        spec = make()
        for s in (0.3, 0.6, 0.95):
            got = spec.kernel.terminal(1.0 - s, s, 10**4)
            want = ref.terminal_pair(spec, 1.0 - s, s, 10**4)
            assert hexes(got) == hexes(want)


def positive_zeros(values):
    return [(v, math.copysign(1.0, v)) for v in values] == [(0.0, 1.0)] * len(values)


@pytest.mark.parametrize("spec", [make() for make in STOCK_MODELS.values()]
                         + [_all_tables()], ids=lambda spec: spec.name)
def test_signed_zero_inputs_give_positive_zeros(spec):
    # -0.0 is taken as +0.0 once, at the entry of advance and terminal,
    # whatever the terminal law's shape and however many steps run
    minus = [-0.0] * spec.n_types
    assert positive_zeros(survival_map(spec, minus))
    assert positive_zeros(pair_diff_map(spec, minus, minus))
    for steps in (0, 1, 3):
        assert positive_zeros([terminal_gap(spec, -0.0, steps)])
        da, delta = spec.kernel.advance(minus, minus, steps)
        assert positive_zeros(da) and positive_zeros(delta)
        assert positive_zeros(spec.kernel.terminal(-0.0, -0.0, steps))
    # and so do the m = 0 shortcuts outside the kernel: the identity
    # map, and a conditioned transform observed at extinction
    assert positive_zeros(iterate_point(spec, minus, 0))
    if spec.name != "all_tables":  # whose type 2 never dies
        table = build_survival_table(spec, 10)
        for m in (0, 1):
            assert positive_zeros(
                [conditional_transform(spec, table, minus, m, 10)])


def test_a_spec_with_its_kernel_built_still_pickles():
    # the Monte Carlo pool pickles specs the engine has already stepped
    for make in STOCK_MODELS.values():
        spec = make()
        build_survival_table(spec, 10)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        table = build_survival_table(copy, 10)
        assert np.array_equal(table.d, build_survival_table(spec, 10).d)


def test_a_spec_whose_family_has_stepped_still_pickles():
    # a family's compiled kernel does not pickle; a spec whose family has
    # been probed must still reach the Monte Carlo workers
    spec = STOCK_MODELS["two_type_cascade"]()
    spec.laws[0].children[1].survival(0.5)
    assert pickle.loads(pickle.dumps(spec)) == spec
    config = SimConfig(master_seed=11, replicates=2000, max_steps=20)
    assert estimate_pmf_T(spec, config, workers=2) == estimate_pmf_T(
        spec, config, workers=1)
