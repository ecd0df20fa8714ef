"""Estimator formulas: frozen hand-computed values and structural properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientbandits.distributions import Dirac, ParetoCeil
from patientbandits.estimators import (
    AdaptParams,
    InsufficientDataError,
    UcbParams,
    UndefinedEstimatorError,
    alpha_bar,
    alpha_bar_activation,
    alpha_bar_offset,
    alpha_bar_threshold,
    alpha_hat,
    bias_bound_oracle,
    confidence_radius,
    delay_bias,
    deviation,
    log_log_schedule,
    mu_hat,
    window_pair,
)


def test_mu_hat_values():
    assert mu_hat(0.0, 5) == 0.0
    assert mu_hat(5.0, 5) == 1.0
    assert mu_hat(1.0, 3) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(UndefinedEstimatorError):
        mu_hat(0.0, 0)


def test_confidence_radius_hand_value():
    # delta = (2 * 1000**3)**-1, alpha = 1, pulls = 4:
    # sqrt(2 * ln(4e9) / 4) + 2 * 4**-0.5 = 3.3249 + 1.0
    params = UcbParams(alpha=1.0, K=2, T=1000)
    assert params.delta == pytest.approx(1.0 / (2 * 1000**3), abs=0.0)
    assert confidence_radius(4, params) == pytest.approx(4.325, abs=1e-3)


def test_confidence_radius_bias_term_by_alpha():
    # At 100 pulls the bias term is 2 * 100**-0.3 vs 2 * 100**-0.5.
    p_small = UcbParams(alpha=0.3, K=2, T=1000)
    p_large = UcbParams(alpha=1.0, K=2, T=1000)
    dev = math.sqrt(2.0 * math.log(2.0 / p_small.delta) / 100)
    assert confidence_radius(100, p_small) - dev == pytest.approx(0.50238, abs=1e-4)
    assert confidence_radius(100, p_large) - dev == pytest.approx(0.2, abs=1e-12)


def test_confidence_radius_monotonicity():
    params = UcbParams(alpha=0.4, K=3, T=500)
    radii = [confidence_radius(n, params) for n in range(1, 400)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    # Nonincreasing in alpha below 1/2, constant above.
    at = lambda a: confidence_radius(50, UcbParams(alpha=a, K=3, T=500))
    assert at(0.1) > at(0.3) > at(0.5)
    assert at(0.5) == at(0.9) == at(10.0)


def test_radius_terms_are_scalar():
    assert isinstance(deviation(7, 1e-6), float)
    assert isinstance(delay_bias(7, 0.3), float)
    no_bias = UcbParams(alpha=None, K=2, T=100)
    assert confidence_radius(7, no_bias) == deviation(7, no_bias.delta)


def test_radius_vanishes_with_pulls():
    params = UcbParams(alpha=1.0, K=2, T=10**6)
    assert confidence_radius(10**6, params) < 0.02


def test_default_delta_and_override():
    assert UcbParams(alpha=1.0, K=3, T=100).delta == 1.0 / (3 * 100**3)
    assert UcbParams(alpha=1.0, K=3, T=100, delta=0.05).delta == 0.05
    with pytest.raises(ValueError):
        UcbParams(alpha=1.0, K=3, T=100, delta=2.0)
    with pytest.raises(ValueError):
        UcbParams(alpha=-1.0, K=3, T=100)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            UcbParams(alpha=bad, K=3, T=100)
    with pytest.raises(ValueError, match="alpha"):
        UcbParams(alpha=True, K=3, T=100)
    with pytest.raises(ValueError, match="delta"):
        UcbParams(alpha=1.0, K=3, T=100, delta=True)



@pytest.mark.parametrize(
    "name, value", [("K", True), ("K", 2.5), ("K", "2"), ("K", 0), ("T", 2.5), ("T", True),
                    ("T", "100"), ("T", 0)],
)
def test_params_counts_must_be_positive_integers(name, value):
    ucb = {"K": 2, "T": 100, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        UcbParams(alpha=0.5, **ucb)
    adapt = {"K": 2, "T": 100, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _adapt_params(**adapt)


def test_params_refuse_bool_and_fractional_counts_together():
    with pytest.raises(ValueError, match="K must be an integer"):
        UcbParams(alpha=0.5, K=True, T=2.5)
    with pytest.raises(ValueError, match="K must be an integer"):
        _adapt_params(K=2.5, T=True)

def test_alpha_schedule():
    # log(log t) / log t, clamped positive for small t.
    assert log_log_schedule(2) > 0.0
    t = 100
    assert log_log_schedule(t) == pytest.approx(
        math.log(math.log(t)) / math.log(t), abs=1e-12
    )
    params = UcbParams(alpha=log_log_schedule, K=2, T=1000)
    r100 = confidence_radius(16, params, round_=100)
    expected = math.sqrt(2 * math.log(2 / params.delta) / 16) + 2 * 16 ** -min(
        log_log_schedule(100), 0.5
    )
    assert r100 == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError, match="round"):
        confidence_radius(16, params)


@pytest.mark.parametrize("t", [1, 0, -3, 1.5, math.nan])
def test_alpha_schedule_names_its_domain_below_round_2(t):
    with pytest.raises(ValueError, match=r"t >= 2"):
        log_log_schedule(t)


def test_bias_bound_oracle_hand_value():
    # ParetoCeil(0.5), pulls at 1..4, t = 4, mu = 1:
    # (1 + 1 + 2**-0.5 + 3**-0.5) / 4 against 2 * 4**-0.5.
    exact, bound = bias_bound_oracle([1, 2, 3, 4], t=4, law=ParetoCeil(0.5), mu=1.0)
    assert exact == pytest.approx(0.8211, abs=1e-4)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert exact <= bound


def test_bias_bound_oracle_edge_cases():
    # All arrivals visible under a zero delay: bias contribution is 0.
    exact, _ = bias_bound_oracle([1, 2, 3], t=4, law=Dirac(0), mu=1.0, alpha=1.0)
    assert exact == 0.0
    exact, _ = bias_bound_oracle([1, 2, 3, 4], t=4, law=ParetoCeil(0.5), mu=0.0)
    assert exact == 0.0
    with pytest.raises(ValueError):
        bias_bound_oracle([], t=4, law=ParetoCeil(0.5), mu=1.0)
    with pytest.raises(ValueError, match="tail index"):
        bias_bound_oracle([1], t=4, law=Dirac(0), mu=1.0)
    with pytest.raises(ValueError):
        bias_bound_oracle([0, 1], t=4, law=ParetoCeil(0.5), mu=1.0)


@given(
    data=st.data(),
    t=st.integers(min_value=2, max_value=120),
    alpha=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_bias_never_exceeds_bound_on_any_schedule(data, t, alpha):
    rounds = data.draw(
        st.lists(st.integers(min_value=1, max_value=t), min_size=1, unique=True)
    )
    exact, bound = bias_bound_oracle(sorted(rounds), t, ParetoCeil(alpha), mu=1.0)
    assert exact <= bound + 1e-12


def test_alpha_hat_values():
    # -ln(0.1) / ln(100) is exactly the 0.5 cap, up to float division.
    assert alpha_hat(0.1, 100) == pytest.approx(0.5, abs=1e-12)
    assert alpha_hat(0.2, 100) == pytest.approx(0.34948, abs=1e-4)
    assert alpha_hat(1.0, 100) == 0.0
    assert alpha_hat(0.0, 100) == 0.5
    assert alpha_hat(-0.3, 100) == 0.5
    with pytest.raises(InsufficientDataError):
        alpha_hat(0.1, 1)


@given(
    diff=st.floats(min_value=-1.0, max_value=1.0),
    pulls=st.integers(min_value=2, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_alpha_hat_range(diff, pulls):
    assert 0.0 <= alpha_hat(diff, pulls) <= 0.5


def _adapt_params(c=1.0, alpha_floor=1.0, mu_floor=1.0, K=2, T=1000):
    return AdaptParams(c=c, alpha_floor=alpha_floor, mu_floor=mu_floor, K=K, T=T)


def test_alpha_bar_hand_value():
    # ahat = 0.5, c = mu_floor = 1, K = 2, T = 1000, leader pulls = 1e6:
    # 0.5 - ln(16 * sqrt(ln(4e9))) / ln(1e6) = 0.18726
    params = _adapt_params()
    offset = alpha_bar_offset(params, 1.0 / (2 * 1000**3))
    assert alpha_bar(0.5, 10**6, offset) == pytest.approx(0.1872, abs=5e-4)
    assert alpha_bar(0.0, 10**6, offset) == 0.0


@pytest.mark.parametrize("T, delta", [(10, 0.5), (3000, 0.05), (3000, None), (10**5, 1e-6),
                                      (10**5, None)])
def test_a_zero_bias_exponent_adds_the_same_constant_at_every_count(T, delta):
    # The index policies add one constant, not a delay_bias call per arm, on a
    # round whose exponent is 0; the sum must keep every bit of the call's.
    delta = UcbParams(alpha=None, K=2, T=T, delta=delta).delta
    for n in range(1, T + 1):
        dev = deviation(n, delta)
        assert dev + delay_bias(n, 0.0) == dev + delay_bias(n, -0.0) == dev + 2.0


def test_alpha_bar_offset_is_clamped_at_zero():
    # c * mu_floor above 2**3.5 * deviation(1, delta): the log is negative, and
    # unclamped the bound would sit above the estimate and above 0.5.
    params = _adapt_params(c=1.0, mu_floor=100.0)
    assert math.log(2.0**3.5 * deviation(1, 0.5) / 100.0) < 0.0
    offset = alpha_bar_offset(params, 0.5)
    assert offset == 0.0 and alpha_bar_threshold(offset) == 2
    for ahat in (0.0, 0.2, 0.5):
        assert alpha_bar(ahat, 10, offset) == ahat


def test_alpha_bar_range_and_limit():
    params = _adapt_params()
    offset = alpha_bar_offset(params, 1.0 / (2 * 1000**3))
    for pulls in (2, 10, 1000, 10**6):
        for ahat in (0.0, 0.2, 0.5):
            value = alpha_bar(ahat, pulls, offset)
            assert 0.0 <= value <= 0.5
            assert value <= ahat
    # The correction decays like 1 / log(pulls): the bound approaches ahat.
    gaps = [0.5 - alpha_bar(0.5, p, offset) for p in (10**3, 10**6, 10**12)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert 0.5 - alpha_bar(0.5, 10**300, offset) < 0.01
    with pytest.raises(InsufficientDataError):
        alpha_bar(0.5, 1, offset)


@given(
    ahat=st.floats(0.0, 0.5),
    pulls=st.integers(2, 10**7),
    c=st.floats(1e-3, 1.0),
    alpha_floor=st.floats(0.05, 3.0),
    mu_floor=st.floats(1e-3, 10.0),
    T=st.integers(2, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_hoisted_constants_keep_the_per_round_bits(ahat, pulls, c, alpha_floor, mu_floor, T):
    # The per-round formulas as written before their constants were hoisted.
    params = _adapt_params(c=c, alpha_floor=alpha_floor, mu_floor=mu_floor, T=T)
    delta = UcbParams(alpha=None, K=2, T=T).delta
    correction = math.log(2.0**3.5 * deviation(1, delta) / (c * mu_floor)) / math.log(pulls)
    assert alpha_bar(ahat, pulls, alpha_bar_offset(params, delta)) == max(ahat - correction, 0.0)
    factor = (c / 2.0) ** (1.0 / alpha_floor)
    assert window_pair(pulls, params)[1] == max(1, math.floor(factor * (pulls // 2)))


@pytest.mark.parametrize("T, thousands", [(3000, 26.0), (10**4, 29.7), (3 * 10**4, 33.1),
                                          (10**5, 36.8)])
def test_alpha_bar_activation_matches_the_horizon_table(T, thousands):
    # K = 2, c = 1, mu_floor = 0.5, the default delta: adapt is UCB plus a
    # constant until its leader has this many pulls.
    params = _adapt_params(c=1.0, alpha_floor=0.2, mu_floor=0.5, T=T)
    n = alpha_bar_activation(2, T, params)
    assert round(n / 1000, 1) == thousands
    offset = alpha_bar_offset(params, 1.0 / (2 * T**3))
    assert alpha_bar(0.5, n - 1, offset) == 0.0 < alpha_bar(0.5, n, offset)


@given(
    c=st.floats(1e-3, 1.0),
    mu_floor=st.floats(1e-3, 10.0),
    K=st.integers(1, 8),
    T=st.integers(2, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_alpha_bar_activation_is_the_first_positive_count(c, mu_floor, K, T):
    params = _adapt_params(c=c, mu_floor=mu_floor, K=K, T=T)
    offset = alpha_bar_offset(params, UcbParams(alpha=None, K=K, T=T).delta)
    n = alpha_bar_activation(K, T, params)
    assert alpha_bar(0.5, n, offset) > 0.0
    if n > 2:
        assert alpha_bar(0.5, n - 1, offset) == 0.0


@given(
    c=st.floats(1e-3, 1.0),
    mu_floor=st.floats(1e-3, 1e3),
    K=st.integers(1, 8),
    T=st.integers(2, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_alpha_bar_activation_is_the_threshold_at_the_default_delta(c, mu_floor, K, T):
    params = _adapt_params(c=c, mu_floor=mu_floor, K=K, T=T)
    offset = alpha_bar_offset(params, UcbParams(alpha=None, K=K, T=T).delta)
    assert alpha_bar_activation(K, T, params) == alpha_bar_threshold(offset)


@given(offset=st.floats(-50.0, 400.0))
@settings(max_examples=200, deadline=None)
def test_alpha_bar_threshold_is_the_first_positive_count(offset):
    n = alpha_bar_threshold(offset)
    if n == math.inf:
        assert 2.0 * offset > 709.0  # exp(2 * offset) overflows
        return
    assert alpha_bar(0.5, n, offset) > 0.0
    if n > 2:
        assert alpha_bar(0.5, n - 1, offset) == 0.0
    else:
        assert offset < 0.5 * math.log(2.0)


def test_alpha_bar_threshold_at_its_extremes():
    assert alpha_bar_threshold(0.0) == alpha_bar_threshold(-1e300) == 2
    assert alpha_bar_threshold(355.0) == alpha_bar_threshold(1e300) == math.inf
    # Here log(n) changes only once n moves by about 1e294, yet the search ends.
    n = alpha_bar_threshold(354.0)
    assert alpha_bar(0.5, n - 1, 354.0) == 0.0 < alpha_bar(0.5, n, 354.0)


def test_alpha_bar_activation_at_its_extremes():
    # A large mean floor makes the correction negative: active from 2 pulls.
    assert alpha_bar_activation(2, 1000, _adapt_params(mu_floor=1e6)) == 2
    # A threshold beyond the float range: never active at any horizon.
    assert alpha_bar_activation(2, 1000, _adapt_params(c=1e-150, mu_floor=1e-150)) == math.inf


def test_window_pair_values():
    assert window_pair(100, _adapt_params(c=1.0, alpha_floor=1.0)) == (50, 25)
    assert window_pair(2, _adapt_params()) == (1, 1)
    # Huge floor index sends the shrink factor to 1: short wait reaches D.
    long_wait, short_wait = window_pair(100, _adapt_params(alpha_floor=1e12))
    assert long_wait == 50 and short_wait >= long_wait - 1
    with pytest.raises(InsufficientDataError):
        window_pair(1, _adapt_params())


@given(
    pulls=st.integers(min_value=2, max_value=10**6),
    c=st.floats(min_value=1e-3, max_value=1.0),
    floor=st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_window_pair_ordering(pulls, c, floor):
    long_wait, short_wait = window_pair(pulls, _adapt_params(c=c, alpha_floor=floor))
    assert 1 <= short_wait <= long_wait
    assert long_wait == pulls // 2


def test_adapt_params_validation():
    with pytest.raises(ValueError):
        _adapt_params(c=0.0)
    with pytest.raises(ValueError):
        _adapt_params(c=1.5)
    with pytest.raises(ValueError):
        _adapt_params(alpha_floor=0.0)
    with pytest.raises(ValueError):
        _adapt_params(mu_floor=-1.0)
    with pytest.raises(ValueError, match="finite"):
        _adapt_params(alpha_floor=math.nan)
    with pytest.raises(ValueError, match="finite"):
        _adapt_params(mu_floor=math.inf)
    for field in ("c", "alpha_floor", "mu_floor"):
        with pytest.raises(ValueError, match=field):
            _adapt_params(**{field: True})
    with pytest.raises(ValueError, match="c \\* mu_floor"):  # alpha_bar divides by it
        _adapt_params(c=1e-200, mu_floor=1e-200)


def test_theorem_style_coverage_smoke():
    # Single arm pulled every round; the radius covers the censored mean's
    # error in at least 95% of runs (delta = 0.05 supplied explicitly).
    rng = np.random.default_rng(5)
    runs, t, alpha, mu = 400, 400, 0.5, 0.5
    params = UcbParams(alpha=alpha, K=1, T=t, delta=0.05)
    radius = confidence_radius(t, params)
    rounds = np.arange(1, t + 1)
    hits = 0
    for _ in range(runs):
        rewards = (rng.random(t) < mu).astype(float)
        delays = np.ceil((1.0 - rng.random(t)) ** (-1.0 / alpha))
        visible = delays <= (t - rounds)
        estimate = mu_hat(float((rewards * visible).sum()), t)
        hits += abs(estimate - mu) <= radius
    assert hits / runs >= 0.95
