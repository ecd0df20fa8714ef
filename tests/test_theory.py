"""Hard-instance pair: exact identities and coupled indistinguishability."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientbandits.distributions import Bernoulli, Dirac, TwoPointMass, assumption1_margin
from patientbandits.harness import simulate, split_seed
from patientbandits.policies import PatientBandits, VanillaUcb
from patientbandits.theory import (
    make_coupled_pair,
    make_lower_bound_pair,
    observable_mean,
)


def test_pair_structure_T16():
    pair = make_lower_bound_pair(T=16, alpha=0.5)
    assert pair.p == pytest.approx(0.25, abs=1e-15)
    assert pair.q == pytest.approx(1.0 / 14.0, abs=1e-15)
    assert pair.problem_a.arms[0] == (Bernoulli(0.5), Dirac(0))
    assert pair.problem_b.arms[0] == (Bernoulli(0.5), Dirac(0))
    assert pair.problem_a.arms[1][0] == Bernoulli(0.5 - pair.q)
    assert pair.problem_a.arms[1][1] == Dirac(0)
    assert pair.problem_b.arms[1][0] == Bernoulli(0.5 + pair.q)
    assert pair.problem_b.arms[1][1] == TwoPointMass(p=0.25, d0=0, d1=16)
    # Effective in-horizon mean of arm 2: 3/7 on both sides.
    assert (0.5 + pair.q) * (1 - pair.p) == pytest.approx(3.0 / 7.0, abs=1e-15)


def test_pair_values_T100_alpha1():
    pair = make_lower_bound_pair(T=100, alpha=1.0)
    assert pair.p == pytest.approx(0.01, abs=1e-15)
    assert pair.q == pytest.approx(0.01 / 3.98, abs=1e-12)


def test_pair_coincides_for_large_alpha():
    pair = make_lower_bound_pair(T=100, alpha=50.0)
    assert pair.p < 1e-90
    assert pair.q < 1e-90
    assert pair.problem_a.means[1] == pytest.approx(pair.problem_b.means[1], abs=1e-80)


@given(
    T=st.integers(min_value=2, max_value=10**6),
    alpha=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_pair_identities(T, alpha):
    pair = make_lower_bound_pair(T, alpha)
    # (1/2 + q)(1 - p) = 1/2 - q, and q >= p / 4.
    assert abs((0.5 + pair.q) * (1.0 - pair.p) - (0.5 - pair.q)) <= 1e-12
    assert pair.q >= pair.p / 4.0
    margin = assumption1_margin(
        pair.problem_b.delay_law(1), alpha, m_max=min(T - 1, 300)
    )
    assert margin >= -1e-15


def test_observable_means():
    pair = make_lower_bound_pair(T=16, alpha=0.5)
    for window in (1, 5, 15):
        a = observable_mean(pair.problem_a, 1, window)
        b = observable_mean(pair.problem_b, 1, window)
        assert a == pytest.approx(0.5 - pair.q, abs=1e-15)
        assert abs(a - b) <= 1e-12  # the indistinguishability identity
    assert observable_mean(pair.problem_b, 1, 16) == pytest.approx(0.5 + pair.q, abs=1e-15)
    assert observable_mean(pair.problem_a, 0, 3) == 0.5


def test_coupled_draws_pointwise_equivalence():
    # On every uniform pair: problem A's conversion event equals problem B's
    # "converted and visible within the horizon" event.
    T, alpha = 50, 0.5
    coupled_a, coupled_b = make_coupled_pair(T, alpha)
    q = make_lower_bound_pair(T, alpha).q
    grid = np.linspace(0.001, 0.999, 41)
    for u1 in grid:
        for u2 in grid:
            ca, da = coupled_a.draw(1, u1, u2)
            cb, db = coupled_b.draw(1, u1, u2)
            assert (ca == 1.0) == (u1 < 0.5 - q)
            assert (cb == 1.0 and db == 0) == (u1 < 0.5 - q)
            assert da == 0
            # Arm 1 is identical on both sides.
            ra, _ = coupled_a.draw(0, u1, u2)
            rb, _ = coupled_b.draw(0, u1, u2)
            assert ra == rb


def test_coupled_draws_have_exact_marginals():
    # Integrate the coupling map over the unit square analytically.
    T, alpha = 200, 0.3
    pair = make_lower_bound_pair(T, alpha)
    p, q = pair.p, pair.q
    residual = 0.5 + q
    t1 = (0.5 + q) * p / residual
    t2 = t1 + (0.5 - q) * (1.0 - p) / residual
    prob_c1 = (0.5 - q) + residual * t1  # visible branch + (1, T) slice
    prob_dT = residual * (t1 + (1.0 - t2))
    prob_c1_dT = residual * t1
    assert prob_c1 == pytest.approx(0.5 + q, abs=1e-12)
    assert prob_dT == pytest.approx(p, abs=1e-12)
    assert prob_c1_dT == pytest.approx((0.5 + q) * p, abs=1e-12)  # independence


@pytest.mark.parametrize("policy_factory", [lambda: PatientBandits(alpha=0.5), VanillaUcb])
def test_coupled_trace_equality(policy_factory):
    T = 80
    coupled_a, coupled_b = make_coupled_pair(T, alpha=0.5)
    for k in range(5):
        seed = split_seed(2024, k)
        env_a, _ = simulate(coupled_a, policy_factory(), np.random.default_rng(seed))
        env_b, _ = simulate(coupled_b, policy_factory(), np.random.default_rng(seed))
        pulls_a = [r.arm for r in env_a.pull_records()]
        pulls_b = [r.arm for r in env_b.pull_records()]
        assert pulls_a == pulls_b


def test_make_pair_validation():
    with pytest.raises(ValueError):
        make_lower_bound_pair(T=1, alpha=0.5)
    with pytest.raises(ValueError):
        make_lower_bound_pair(T=10, alpha=0.0)
    for alpha in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="alpha"):
            make_lower_bound_pair(T=10, alpha=alpha)
    with pytest.raises(ValueError, match="integer"):
        make_lower_bound_pair(T=10.5, alpha=0.5)


@pytest.mark.parametrize("window", [0, 2.5, True, math.inf, "3"])
def test_observable_mean_rejects_non_integer_window(window):
    with pytest.raises(ValueError, match="window"):
        observable_mean(make_lower_bound_pair(16, 0.5).problem_b, 1, window)
