import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.config import loads_model
from branchlab.errors import (
    DegenerateVariance,
    MissingLink,
    ModelStructureError,
    NonCritical,
)
from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import (
    ProcessSpec,
    ProductLaw,
    TableLaw,
    check_assumptions,
    expectation_matrix,
    pair_diff_map,
    pgf_eval,
    sample_offspring,
    survival_map,
    validate_hypothesis_A,
)
from branchlab.zoo import micro_table, single_geometric, two_type_cascade

import properties
import reference_step as ref


def test_product_pgf_values():
    spec = two_type_cascade()
    # geometric factor 1/(2 - 0.5) = 2/3 with the feed factor at 1
    assert pgf_eval(spec, 1, [0.5, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert pgf_eval(spec, 2, [0.3, 0.5]) == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_survival_map_small_argument():
    spec = two_type_cascade()
    out = survival_map(spec, [1e-8, 0.0])
    # to first order the type-1 complement shrinks by the quadratic
    # term only: d - d^2 + feed contribution 0
    assert out[0] == pytest.approx(9.9999999e-09, rel=1e-9)
    assert out[1] == 0.0


def test_survival_map_rejects_bad_input():
    spec = two_type_cascade()
    with pytest.raises(ValueError):
        survival_map(spec, [1.5, 0.0])
    with pytest.raises(ValueError):
        survival_map(spec, [0.5])


def test_pair_diff_matches_direct_subtraction():
    spec = micro_table()
    da = [0.3, 0.2]
    delta = [0.1, 0.05]
    diffs = pair_diff_map(spec, da, delta)
    for i in (1, 2):
        a = [1.0 - x for x in da]
        b = [x - y for x, y in zip(a, delta)]
        naive = pgf_eval(spec, i, a) - pgf_eval(spec, i, b)
        assert diffs[i - 1] == pytest.approx(naive, abs=1e-14)


def test_mean_matrix_and_powers():
    spec = two_type_cascade()
    md = validate_hypothesis_A(spec)
    assert np.allclose(md.mean_matrix, [[1.0, 1.0], [0.0, 1.0]])
    assert md.b == (1.0, 1.0)
    assert md.link_means == (1.0,)
    m10 = expectation_matrix(spec, 10)
    assert m10[0, 1] == pytest.approx(10.0)
    assert m10[0, 0] == pytest.approx(1.0)


def test_micro_table_moments():
    md = validate_hypothesis_A(micro_table())
    assert md.b == pytest.approx((0.4, 0.5))
    assert md.link_means == pytest.approx((0.2,))


def test_noncritical_detected():
    spec = ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.2)}),
    ))
    with pytest.raises(NonCritical) as err:
        validate_hypothesis_A(spec)
    assert err.value.violations[0].type_index == 1


def test_missing_link_detected():
    spec = ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.0)}),
        ProductLaw(parent=2, children={2: Geometric(1.0)}),
    ))
    with pytest.raises(MissingLink):
        validate_hypothesis_A(spec)


def test_degenerate_variance_detected():
    spec = ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: PointMass(1)}),
    ))
    with pytest.raises(DegenerateVariance):
        validate_hypothesis_A(spec)


def test_violations_collected_without_raise():
    spec = ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.3)}),
        ProductLaw(parent=2, children={2: PointMass(1)}),
    ))
    out = check_assumptions(spec)
    kinds = {v.kind for v in out}
    assert "non_critical" in kinds
    assert "missing_link" in kinds
    assert "degenerate_variance" in kinds
    with pytest.raises(NonCritical) as err:
        validate_hypothesis_A(spec)
    assert err.value.violations == out
    # the details read as plain numbers, never as numpy scalars
    assert [v.detail for v in out] == ["own mean 1.3", "link mean 0.0",
                                       "b = 0.0"]


def test_a_law_without_own_type_children_has_no_own_variance():
    # no own-type child counts as a point mass at 0: own mean and b are
    # exactly zero, plain floats, with or without other children
    spec = ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={2: Bernoulli(1.0)}),
        ProductLaw(parent=2, children={}),
    ))
    assert [str(v) for v in check_assumptions(spec)] == [
        "type 1: non_critical (own mean 0.0)",
        "type 2: non_critical (own mean 0.0)",
        "type 1: degenerate_variance (b = 0.0)",
        "type 2: degenerate_variance (b = 0.0)"]
    assert spec.law(1).own_second_moment().hex() == (0.0).hex()
    assert spec.law(2).own_second_moment().hex() == (0.0).hex()


def test_force_skips_enforcement():
    spec = ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.2)}),
    ))
    md = validate_hypothesis_A(spec, force=True)
    assert md.mean_matrix[0][0] == pytest.approx(1.2)


def test_table_law_validation():
    with pytest.raises(ModelStructureError):
        TableLaw(parent=1, rows=(((0, 0), 0.5), ((1, 0), 0.6)))  # sum > 1
    with pytest.raises(ModelStructureError):
        TableLaw(parent=2, rows=(((1, 0), 1.0),))  # count below parent
    with pytest.raises(ModelStructureError):
        TableLaw(parent=1, rows=(((0,), 0.5), ((1, 0), 0.5)))  # ragged
    with pytest.raises(ModelStructureError):
        TableLaw(parent=1, rows=(((0, 0), -0.1), ((1, 0), 1.1)))


def test_process_spec_validation():
    law1 = ProductLaw(parent=1, children={1: Geometric(1.0)})
    with pytest.raises(ModelStructureError):
        ProcessSpec(n_types=2, laws=(law1,))  # law count mismatch
    with pytest.raises(ModelStructureError):
        ProcessSpec(n_types=1, laws=(
            ProductLaw(parent=1, children={1: Geometric(1.0),
                                           2: Poisson(0.5)}),
        ))  # child type beyond n_types
    with pytest.raises(ModelStructureError):
        ProductLaw(parent=2, children={1: Geometric(1.0)})  # child below


def test_sample_offspring_shape_and_mean():
    spec = two_type_cascade()
    rng = np.random.default_rng(7)
    out = sample_offspring(spec, 1, 2000, rng)
    assert out.shape == (2,)
    assert out[0] / 2000 == pytest.approx(1.0, abs=0.15)
    assert out[1] / 2000 == pytest.approx(1.0, abs=0.15)


@st.composite
def table_models(draw):
    """Random all-table models whose terminal law has own counts 0..4."""
    n = draw(st.integers(min_value=1, max_value=3))
    laws = []
    for i in range(1, n):
        p0 = draw(st.floats(min_value=0.1, max_value=0.45))
        frac = draw(st.floats(min_value=0.1, max_value=0.9))
        laws.append(TableLaw(i, properties._critical_table_rows(n, i, p0, frac)))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=5, max_size=5))
    rows = tuple(((0,) * (n - 1) + (c,), w / sum(weights))
                 for c, w in enumerate(weights))
    laws.append(TableLaw(n, rows))
    return ProcessSpec(n_types=n, laws=tuple(laws))


@given(table_models(), properties.unit_points(4), properties.unit_points(4),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_property_own_marginal_is_the_terminal_coordinate(spec, lower, gaps,
                                                          frac):
    # the terminal law ignores the lower coordinates, so its own-type
    # column's fused pair, and one step of the kernel's terminal loop,
    # must reproduce the terminal coordinate of a kernel step bit for
    # bit whatever they hold
    n = spec.n_types
    d = lower[3]
    delta = frac * (1.0 - d)
    da_vec = list(lower[:n - 1]) + [d]
    delta_vec = [g * (1.0 - x) for g, x in zip(gaps, lower[:n - 1])] + [delta]
    survival, gap = (v[-1] for v in spec.kernel.advance(da_vec, delta_vec, 1))
    own_survival, _, own_gap = ref.own_column_pair(
        ref.own_column(spec.law(n)), d, delta)
    assert own_survival.hex() == survival.hex()
    assert own_gap.hex() == gap.hex()
    assert [x.hex() for x in spec.kernel.terminal(d, delta, 1)] == [
        survival.hex(), gap.hex()]


def test_sample_offspring_is_the_laws_draws_in_order():
    # one parent count through sample_offspring draws what the sampler's
    # one-row batch draws, off the same stream; zero parents draw nothing
    for spec in (two_type_cascade(), micro_table()):
        for i in range(1, spec.n_types + 1):
            rng = np.random.default_rng(12345)
            assert not sample_offspring(spec, i, 0, rng).any()
            assert rng.random() == np.random.default_rng(12345).random()
            for z in (1, 7, 1000):
                rng_a = np.random.default_rng(12345)
                rng_b = np.random.default_rng(12345)
                want = np.zeros(spec.n_types, dtype=np.int64)
                for j, kids in spec.law(i).draws(np.array([z]), rng_b):
                    want[j] += kids[0]
                assert sample_offspring(spec, i, z, rng_a).tolist() == want.tolist()
                assert rng_a.random() == rng_b.random()


MIXED_YAML = """\
name: model
types: 3
laws:
  - parent: 1
    kind: product
    children:
      1: {family: poisson, mean: 1.0}
      2: {family: bernoulli, p: 0.3}
  - parent: 2
    kind: product
    children:
      2: {family: geometric, mean: 1.0}
      3: {family: pointmass, k: 2}
  - parent: 3
    kind: product
    children:
      3: {family: geometric, mean: 1.0}
"""

STOCK_YAML = {
    "single_geometric": """\
name: single_geometric
types: 1
laws:
  - parent: 1
    kind: product
    children:
      1: {family: geometric, mean: 1.0}
""",
    "two_type_cascade": """\
name: two_type_cascade
types: 2
laws:
  - parent: 1
    kind: product
    children:
      1: {family: geometric, mean: 1.0}
      2: {family: poisson, mean: 1.0}
  - parent: 2
    kind: product
    children:
      2: {family: geometric, mean: 1.0}
""",
    "micro_table": """\
name: micro_table
types: 2
laws:
  - parent: 1
    kind: table
    rows:
      - {counts: [0, 0], prob: 0.4}
      - {counts: [2, 0], prob: 0.4}
      - {counts: [1, 1], prob: 0.2}
  - parent: 2
    kind: table
    rows:
      - {counts: [0, 0], prob: 0.5}
      - {counts: [0, 2], prob: 0.5}
""",
}


def test_yaml_config_builds_the_same_spec():
    mixed = ProcessSpec(3, (
        ProductLaw(1, {1: Poisson(1.0), 2: Bernoulli(0.3)}),
        ProductLaw(2, {2: Geometric(1.0), 3: PointMass(2)}),
        ProductLaw(3, {3: Geometric(1.0)})))
    assert loads_model(MIXED_YAML) == mixed
    for make in (single_geometric, two_type_cascade, micro_table):
        assert loads_model(STOCK_YAML[make.__name__]) == make()


@given(properties.model_specs(), properties.unit_points(4))
@settings(max_examples=120, deadline=None)
def test_property_pgf_basics(spec, point):
    properties.check_pgf_basics(spec, point[:spec.n_types])
    properties.check_survival_consistency(spec, point[:spec.n_types])


@given(properties.model_specs(), properties.unit_points(4),
       st.floats(min_value=0.0, max_value=1.0),
       st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
@settings(max_examples=120, deadline=None)
def test_property_pair_step_consistency(spec, point, shrink, pin):
    properties.check_pair_step_consistency(spec, point[:spec.n_types],
                                           shrink, pin)


@given(properties.model_specs())
@settings(max_examples=120, deadline=None)
def test_property_moment_structure(spec):
    properties.check_moment_structure(spec)


@given(properties.model_specs(max_types=4), properties.unit_points(4),
       properties.unit_points(4), properties.unit_points(4),
       properties.unit_points(4))
@settings(max_examples=150, deadline=None)
def test_property_laws_ignore_the_lower_coordinates(spec, point, gaps,
                                                    other_da, other_delta):
    # decomposability, which the engine's in-place sweep relies on: law i,
    # coordinate i of a kernel step, must return the same bits whatever
    # coordinates 1..i-1 hold
    n = spec.n_types
    da = [1.0 - x for x in point[:n]]
    delta = [g * x for g, x in zip(gaps, point[:n])]
    step = spec.kernel.advance(da, delta, 1)
    for i in range(n):
        da_other = list(other_da[:i]) + da[i:]
        delta_other = list(other_delta[:i]) + delta[i:]
        other = spec.kernel.advance(da_other, delta_other, 1)
        assert [v[i].hex() for v in other] == [v[i].hex() for v in step]


def test_own_column_survival_at_b_is_survival_at_a_plus_gap():
    # the own column's pair, kept as the terminal chain's reference
    own = ref.own_column(micro_table().law(2))
    for d, delta in ((0.3, 0.2), (1e-9, 1e-12), (1.0, 0.0)):
        sa, sb, gap = ref.own_column_pair(own, d, delta)
        assert sb == sa + gap
        # 1 - f(b) for f(s) = (1 + s^2) / 2, with db = 1 - b
        db = d + delta
        assert sb == pytest.approx(0.5 * db * (2.0 - db), rel=1e-12)
