import math

import numpy as np
import pytest

from branchlab.constants import constant_set
from branchlab.errors import InvalidMoments
from branchlab.model import MomentData, validate_hypothesis_A
from branchlab.zoo import micro_table, three_type_chain, two_type_cascade

from properties import check_identity_c1N


def synthetic_moments(b, links):
    """MomentData with unit diagonal and the given superdiagonal."""
    n = len(b)
    mean = np.eye(n)
    for i, li in enumerate(links):
        mean[i, i + 1] = li
    return MomentData(n_types=n, mean_matrix=mean, b=tuple(b))


def test_decay_exponents_by_depth():
    cs3 = constant_set(validate_hypothesis_A(three_type_chain()))
    assert cs3.gamma == (0.25, 0.5, 1.0)
    cs2 = constant_set(validate_hypothesis_A(two_type_cascade()))
    assert cs2.gamma == (0.5, 1.0)


def test_unit_model_amplitudes_are_one():
    cs = constant_set(validate_hypothesis_A(two_type_cascade()))
    assert cs.survival_amplitude == pytest.approx((1.0, 1.0))
    assert cs.chain == pytest.approx((1.0,))
    assert cs.local_amplitude == pytest.approx((0.5, 1.0))
    cs3 = constant_set(validate_hypothesis_A(three_type_chain()))
    assert cs3.survival_amplitude == pytest.approx((1.0, 1.0, 1.0))
    assert cs3.chain == pytest.approx((1.0, 1.0))


def test_two_type_amplitude_value():
    # b = (1, 4), link mean 2: the start-type amplitude works out to
    # (1/4)^{1/2} * (2/1)^{1/2} = 1/sqrt(2)
    cs = constant_set(synthetic_moments([1.0, 4.0], [2.0]))
    assert cs.survival_amplitude[0] == pytest.approx(2.0**-0.5, rel=1e-14)
    assert cs.survival_amplitude[1] == pytest.approx(0.25, rel=1e-14)
    assert cs.chain[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert cs.local_amplitude[0] == pytest.approx(0.5 * 2.0**-0.5, rel=1e-14)


def test_micro_table_constants():
    cs = constant_set(validate_hypothesis_A(micro_table()))
    # b = (0.4, 0.5), link 0.2
    assert cs.survival_amplitude[1] == pytest.approx(2.0)
    expected = math.sqrt(2.0) * math.sqrt(0.2 / 0.4)
    assert cs.survival_amplitude[0] == pytest.approx(expected, rel=1e-14)


def test_chain_identity_randomised():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        b = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n))
        links = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n - 1))
        cs = constant_set(synthetic_moments(list(b), list(links)))
        assert check_identity_c1N(cs) <= 1e-12


def test_single_type_has_no_chain():
    cs = constant_set(synthetic_moments([0.7], []))
    assert cs.chain == ()
    assert cs.gamma == (1.0,)
    assert cs.survival_amplitude[0] == pytest.approx(1.0 / 0.7)
    with pytest.raises(ValueError):
        check_identity_c1N(cs)


def test_bad_moments_rejected():
    with pytest.raises(InvalidMoments):
        constant_set(synthetic_moments([0.0, 1.0], [1.0]))
    with pytest.raises(InvalidMoments):
        constant_set(synthetic_moments([1.0, 1.0], [0.0]))
    with pytest.raises(InvalidMoments):
        constant_set(synthetic_moments([1.0, math.inf], [1.0]))
