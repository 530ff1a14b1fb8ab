import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoeq import PenaltySpec, delta_t, delta_t_prime, penalty

LOGIT = PenaltySpec(kind="logit", mu=0.2)
LINEAR = PenaltySpec(kind="linear", mu=0.2)


def _square(x):
    return x * x


def _square_prime(x):
    return 2.0 * x


CUSTOM = PenaltySpec(kind="custom", t=_square, t_prime=_square_prime)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(kind="logit", mu=-0.1)
    with pytest.raises(ValueError):
        PenaltySpec(kind="nope")
    with pytest.raises(ValueError):
        PenaltySpec(kind="custom", t=_square)  # missing derivative
    with pytest.raises(ValueError):
        PenaltySpec(kind="logit", t=_square, t_prime=_square_prime)


def test_boundedness():
    assert not LOGIT.bounded
    assert PenaltySpec(kind="logit", mu=0.0).bounded
    assert LINEAR.bounded
    assert CUSTOM.bounded


def test_logit_penalty_values():
    assert penalty(0.0, LOGIT) == 0.0
    assert penalty(0.5, LOGIT) == pytest.approx(0.2 * math.log(2.0), rel=1e-14)
    assert penalty(1.0, LOGIT) == math.inf


def test_logit_differential_known_points():
    assert delta_t(0.5, LOGIT) == 0.0
    assert delta_t(0.8, LOGIT) == pytest.approx(0.2 * math.log(4.0), rel=1e-13)
    assert delta_t(0.0, LOGIT) == -math.inf
    assert delta_t(1.0, LOGIT) == math.inf


def test_logit_zero_weight_is_the_zero_penalty():
    free = PenaltySpec(kind="logit", mu=0.0)
    h = np.linspace(0.0, 1.0, 11)
    assert np.all(penalty(h, free) == 0.0)
    assert np.all(delta_t(h, free) == 0.0)


def test_logit_slope_closed_form_and_minimum():
    assert delta_t_prime(0.5, LOGIT) == pytest.approx(4.0 * 0.2, rel=1e-14)
    h = np.linspace(0.05, 0.95, 37)
    slopes = delta_t_prime(h, LOGIT)
    assert np.all(slopes >= 4.0 * 0.2 - 1e-14)
    assert np.max(np.abs(slopes - 0.2 / (h * (1.0 - h)))) <= 1e-14


def test_logit_slope_rejects_endpoints():
    with pytest.raises(ValueError):
        delta_t_prime(0.0, LOGIT)
    with pytest.raises(ValueError):
        delta_t_prime(1.0, LOGIT)


def test_linear_family():
    h = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(delta_t(h, LINEAR) - 0.2 * (2.0 * h - 1.0))) <= 1e-15
    assert np.all(delta_t_prime(h, LINEAR) == 0.4)
    assert penalty(0.7, LINEAR) == pytest.approx(0.14, rel=1e-14)


def test_custom_family_matches_its_closed_form():
    # t(x) = x**2 gives delta_t = 2h - 1 and a constant slope of 2
    h = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(delta_t(h, CUSTOM) - (2.0 * h - 1.0))) <= 1e-15
    assert np.max(np.abs(delta_t_prime(h, CUSTOM) - 2.0)) <= 1e-15
    assert delta_t(0.25, CUSTOM) == pytest.approx(-0.5, rel=1e-14)


def test_domain_validation():
    with pytest.raises(ValueError):
        penalty(-0.1, LOGIT)
    with pytest.raises(ValueError):
        delta_t(1.1, LINEAR)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(h=st.floats(1e-6, 1.0 - 1e-6), mu=st.floats(0.0, 3.0),
       kind=st.sampled_from(["logit", "linear"]))
def test_differential_antisymmetry_and_slope_symmetry(h, mu, kind):
    # rel 1e-9, not tighter: re-rounding of 1-h costs ~1e-10 relative at the
    # extreme shares this property samples
    spec = PenaltySpec(kind=kind, mu=mu)
    assert delta_t(h, spec) == pytest.approx(-delta_t(1.0 - h, spec),
                                             rel=1e-9, abs=1e-12)
    assert delta_t_prime(h, spec) == pytest.approx(delta_t_prime(1.0 - h, spec),
                                                   rel=1e-9, abs=1e-12)
    assert delta_t_prime(h, spec) >= 0.0


def test_custom_family_keeps_the_shape_of_a_2d_array():
    h = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert delta_t(h, CUSTOM).shape == (3, 4)
    assert np.max(np.abs(delta_t(h, CUSTOM) - (2.0 * h - 1.0))) <= 1e-15
    assert np.max(np.abs(delta_t_prime(h, CUSTOM) - 2.0)) <= 1e-15
