"""Distribution laws: exact CDFs, sampler consistency, tail-bound margins."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientbandits.distributions import (
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
    assumption1_margin,
    delay_law_from_spec,
    reward_law_from_spec,
)

DELAY_LAWS = [
    Dirac(0),
    Dirac(3),
    TwoPointMass(p=0.3, d0=2, d1=50),
    Geometric(q=0.2),
    ParetoCeil(alpha=0.3),
    ParetoCeil(alpha=1.0),
    ParetoCeil(alpha=2.0),
]


def test_bernoulli_degenerate_and_mean():
    rng = np.random.default_rng(0)
    law = Bernoulli(1.0)
    assert law.mean() == 1.0
    assert all(law.sample(rng) == 1.0 for _ in range(20))
    assert Bernoulli(0.25).mean() == 0.25


def test_point_mass_sample():
    rng = np.random.default_rng(0)
    assert PointMass(0.5).sample(rng) == 0.5
    assert PointMass(0.5).mean() == 0.5


def test_bernoulli_empirical_mean():
    # CLT band: 3 sigma = 3 * 0.5 / sqrt(1e6) = 0.0015 < 0.002
    rng = np.random.default_rng(7)
    draws = Bernoulli(0.5).sample(rng, 10**6)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.5) < 0.002


def test_reward_sample_consumes_one_draw():
    for law in (Bernoulli(0.3), PointMass(0.7)):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        law.sample(rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()


def test_delay_sample_consumes_one_draw():
    for law in DELAY_LAWS:
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        law.sample(rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()


def test_dirac_sampling_and_cdf():
    rng = np.random.default_rng(1)
    assert Dirac(3).sample(rng) == 3
    assert Dirac(0).cdf(0) == 1.0
    assert Dirac(5).cdf(4) == 0.0
    assert Dirac(5).cdf(5) == 1.0


def test_two_point_mass():
    rng = np.random.default_rng(2)
    assert TwoPointMass(p=0.0, d0=0, d1=99).sample(rng) == 0
    # Only the d0 mass has arrived by m = 50.
    assert TwoPointMass(p=0.25, d0=0, d1=100).cdf(50) == pytest.approx(0.75, abs=1e-15)


def test_pareto_ceil_tail_is_exact():
    law = ParetoCeil(alpha=1.0)
    assert law.cdf(2) == pytest.approx(0.5, abs=1e-15)
    assert law.cdf(0) == 0.0
    m = np.arange(1, 500)
    for alpha in (0.3, 0.7, 1.5):
        np.testing.assert_array_equal(
            ParetoCeil(alpha).tail(m), m.astype(np.float64) ** -float(alpha)
        )
        np.testing.assert_allclose(
            1.0 - ParetoCeil(alpha).cdf(m), m ** (-float(alpha)), rtol=1e-12
        )


def test_pareto_ceil_sampled_tail_fraction():
    # Exact tail P(D > 2) = 2 ** -1 = 0.5 for alpha = 1.
    rng = np.random.default_rng(3)
    draws = ParetoCeil(alpha=1.0).sample(rng, 10**5)
    assert abs(np.mean(draws > 2) - 0.5) < 0.01
    assert draws.min() >= 1


def test_geometric_cdf_matches_pmf_sum():
    law = Geometric(q=0.2)
    for m in range(10):
        direct = sum(0.2 * 0.8**k for k in range(m + 1))
        assert law.cdf(m) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("law", DELAY_LAWS, ids=str)
@given(m=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_cdf_monotone_and_bounded(law, m):
    lo, hi = law.cdf(m), law.cdf(m + 1)
    assert 0.0 <= lo <= hi <= 1.0


@pytest.mark.parametrize("law", DELAY_LAWS, ids=str)
def test_cdf_approaches_one(law):
    # Heavy tails converge slowly; 1e15**-0.3 is still ~3e-5.
    assert law.tail(10**15) < 1e-2
    assert law.tail(10**15) <= law.tail(10**3) <= 1.0


def test_assumption1_margin_dirac():
    # Tail is 0, so the slack m**-1 is minimized at m = 10.
    assert assumption1_margin(Dirac(0), alpha=1.0, m_max=10) == pytest.approx(0.1, abs=1e-15)


def test_assumption1_margin_pareto_tight_and_violated():
    # The ceil construction makes the tail bound hold with equality.
    assert assumption1_margin(ParetoCeil(0.3), alpha=0.3, m_max=100) == 0.0
    margin = assumption1_margin(ParetoCeil(0.3), alpha=0.5, m_max=100)
    brute = min(m**-0.5 - m**-0.3 for m in range(1, 101))
    assert margin == pytest.approx(brute, abs=1e-12)
    assert margin < 0.0


def _dkw_sup(draws: np.ndarray, law) -> float:
    """Exact sup-distance between the empirical and the law CDF (step functions)."""
    values, counts = np.unique(draws, return_counts=True)
    ecdf = np.cumsum(counts) / draws.size
    ecdf_before = np.concatenate([[0.0], ecdf[:-1]])
    sup = 0.0
    for v, lo, hi in zip(values, ecdf_before, ecdf):
        # Just below v the empirical CDF is `lo`; from v onward it is `hi`.
        sup = max(sup, abs(hi - law.cdf(v)), abs(lo - law.cdf(v - 1)))
    sup = max(sup, 1.0 - law.cdf(values[-1]))
    return sup


@pytest.mark.parametrize("law", DELAY_LAWS, ids=str)
def test_sampler_cdf_consistency_dkw(law):
    n = 10**5
    rng = np.random.default_rng(11)
    draws = np.asarray(law.sample(rng, n), dtype=np.float64)
    # DKW band at confidence 0.999: sqrt(log(2 / 0.001) / (2n))
    eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))
    assert _dkw_sup(draws, law) <= eps


def test_law_specs_round_trip():
    assert reward_law_from_spec({"kind": "bernoulli", "mu": 0.5}) == Bernoulli(0.5)
    assert reward_law_from_spec({"kind": "point_mass", "value": 1.0}) == PointMass(1.0)
    assert delay_law_from_spec({"kind": "dirac", "d": 2}) == Dirac(2)
    assert delay_law_from_spec({"kind": "pareto_ceil", "alpha": 0.3}) == ParetoCeil(0.3)
    assert delay_law_from_spec(
        {"kind": "two_point", "p": 0.1, "d0": 0, "d1": 9}
    ) == TwoPointMass(0.1, 0, 9)
    assert delay_law_from_spec({"kind": "geometric", "q": 0.5}) == Geometric(0.5)


def test_unknown_tags_rejected():
    with pytest.raises(ValueError, match="unknown reward law"):
        reward_law_from_spec({"kind": "gaussian", "mu": 0.0})
    with pytest.raises(ValueError, match="unknown delay law"):
        delay_law_from_spec({"kind": "exponential", "rate": 1.0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bernoulli(1.5),
        lambda: Bernoulli(-0.1),
        lambda: PointMass(2.0),
        lambda: Dirac(-1),
        lambda: ParetoCeil(0.0),
        lambda: ParetoCeil(-0.5),
        lambda: TwoPointMass(p=1.2, d0=0, d1=1),
        lambda: TwoPointMass(p=0.5, d0=-1, d1=1),
        lambda: Geometric(0.0),
        lambda: Geometric(1.5),
        lambda: ParetoCeil(float("nan")),
        lambda: ParetoCeil(float("inf")),
        lambda: Geometric(1e-17),  # 1 - q rounds to 1: the sampler would divide by 0
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_pareto_ceil_overflow_saturates_to_inf():
    class NearOne:
        def random(self, size=None):
            u = 1e-10  # u ** -100 overflows a float
            return 1.0 - u if size is None else np.full(size, 1.0 - u)

    law = ParetoCeil(0.01)
    assert law.sample(NearOne()) == math.inf
    with np.errstate(over="ignore"):
        assert np.all(law.sample(NearOne(), size=3) == math.inf)  # same as the array path
