"""Distribution laws: exact CDFs, inverse-transform consistency, tail-bound margins."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientbandits.distributions import (
    DELAY_LAWS,
    REWARD_LAWS,
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
    assumption1_margin,
    from_spec,
)
from patientbandits.environment import BanditInstance, DelayedBanditEnv

REWARD_LAW_CASES = [Bernoulli(0.3), PointMass(0.7)]
DELAY_LAW_CASES = [
    Dirac(0),
    Dirac(3),
    TwoPointMass(p=0.3, d0=2, d1=50),
    Geometric(q=0.2),
    ParetoCeil(alpha=0.3),
    ParetoCeil(alpha=1.0),
    ParetoCeil(alpha=2.0),
]


def _draws(law, n, seed):
    """``n`` values of ``law`` by inverse transform of one seeded stream."""
    rng = np.random.default_rng(seed)
    return np.array([law.from_uniform(u) for u in rng.random(n).tolist()], dtype=np.float64)


def test_bernoulli_degenerate_and_mean():
    law = Bernoulli(1.0)
    assert law.mean() == 1.0
    assert all(law.from_uniform(u) == 1.0 for u in np.linspace(0.0, 0.999, 20))
    assert Bernoulli(0.25).mean() == 0.25
    assert Bernoulli(0.25).from_uniform(0.2) == 1.0
    assert Bernoulli(0.25).from_uniform(0.25) == 0.0


def test_point_mass_sample():
    assert PointMass(0.5).from_uniform(0.9) == 0.5
    assert PointMass(0.5).mean() == 0.5


def test_bernoulli_empirical_mean():
    # CLT band: 3 sigma = 3 * 0.5 / sqrt(1e6) = 0.0015 < 0.002
    draws = _draws(Bernoulli(0.5), 10**6, seed=7)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.5) < 0.002


def _draw_against_stream(reward, delay, seed):
    """One ``BanditInstance.draw`` at a stream's first two uniforms, and those uniforms."""
    instance = BanditInstance([(reward, delay)], horizon=1)
    rng = np.random.default_rng(seed)
    u1, u2 = rng.random(), rng.random()
    return instance.draw(0, u1, u2), u1, u2


def test_reward_sample_consumes_one_draw():
    # The reward is drawn first, from exactly the first uniform, whatever the delay law.
    for reward in REWARD_LAW_CASES:
        for delay in DELAY_LAW_CASES:
            (r, _), u1, _ = _draw_against_stream(reward, delay, seed=5)
            assert r == reward.from_uniform(u1)


def test_delay_sample_consumes_one_draw():
    # The delay is drawn second, from exactly the second uniform, whatever the reward law.
    for reward in REWARD_LAW_CASES:
        for delay in DELAY_LAW_CASES:
            (_, d), _, u2 = _draw_against_stream(reward, delay, seed=9)
            assert d == delay.from_uniform(u2)


def test_pull_reads_two_uniforms_and_draws_at_them():
    # The stream contract: each pull calls its uniform source exactly twice
    # and records draw(arm, first, second), the delay clamped past T.
    T = 40
    for reward in REWARD_LAW_CASES:
        for delay in DELAY_LAW_CASES:
            env = DelayedBanditEnv(BanditInstance([(reward, delay)], horizon=T))
            rng = np.random.default_rng(13)
            read = []

            def uniform():
                read.append(rng.random())
                return read[-1]

            for _ in range(T):
                read.clear()
                env.pull(0, uniform)
                assert len(read) == 2
                r, d = env.instance.draw(0, *read)
                record = env.pull_records()[-1]
                assert (record.reward, record.delay) == (r, d if d <= T else T + 1)


def test_dirac_sampling_and_cdf():
    assert Dirac(3).from_uniform(0.5) == 3
    assert Dirac(0).cdf(0) == 1.0
    assert Dirac(5).cdf(4) == 0.0
    assert Dirac(5).cdf(5) == 1.0


def test_two_point_mass():
    assert TwoPointMass(p=0.0, d0=0, d1=99).from_uniform(0.0) == 0
    assert TwoPointMass(p=0.3, d0=0, d1=99).from_uniform(0.29) == 99
    # Only the d0 mass has arrived by m = 50.
    assert TwoPointMass(p=0.25, d0=0, d1=100).cdf(50) == pytest.approx(0.75, abs=1e-15)


def test_pareto_ceil_tail_is_exact():
    law = ParetoCeil(alpha=1.0)
    assert law.cdf(2) == pytest.approx(0.5, abs=1e-15)
    assert law.cdf(0) == 0.0
    for alpha in (0.3, 0.7, 1.5):
        law = ParetoCeil(alpha)
        for m in range(1, 500):
            assert law.tail(m) == float(m) ** -alpha
            assert law.cdf(m) == 1.0 - float(m) ** -alpha


@pytest.mark.parametrize("law", DELAY_LAW_CASES, ids=str)
def test_tail_and_cdf_step_at_integers(law):
    # Delays are integers, so P(D <= m + 1/2) = P(D <= m).
    for m in range(51):
        assert law.cdf(m + 0.5) == law.cdf(m)
        assert law.tail(m + 0.5) == law.tail(m)


def test_pareto_ceil_sampled_tail_fraction():
    # Exact tail P(D > 2) = 2 ** -1 = 0.5 for alpha = 1.
    draws = _draws(ParetoCeil(alpha=1.0), 10**5, seed=3)
    assert abs(np.mean(draws > 2) - 0.5) < 0.01
    assert draws.min() >= 1


def test_geometric_cdf_matches_pmf_sum():
    law = Geometric(q=0.2)
    for m in range(10):
        direct = sum(0.2 * 0.8**k for k in range(m + 1))
        assert law.cdf(m) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("law", DELAY_LAW_CASES, ids=str)
@given(m=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_cdf_monotone_and_bounded(law, m):
    lo, hi = law.cdf(m), law.cdf(m + 1)
    assert 0.0 <= lo <= hi <= 1.0


@pytest.mark.parametrize("law", DELAY_LAW_CASES, ids=str)
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
    brute = min(float(m) ** -0.5 - float(m) ** -0.3 for m in range(1, 101))
    assert margin == brute
    assert margin < 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
def test_assumption1_margin_pareto_grid_is_scalar_exact(alpha):
    # The audit is the scalar brute-force minimum bit for bit; a vectorised
    # pow may differ from it in the last bit.
    for law_alpha in np.linspace(0.05, 1.5, 30).tolist():
        brute = min(
            float(m) ** -alpha - float(m) ** -law_alpha for m in range(1, 1001)
        )
        assert assumption1_margin(ParetoCeil(law_alpha), alpha, m_max=1000) == brute


_STEP_TAIL_LAWS = st.one_of(
    st.integers(0, 2100).map(Dirac),
    st.builds(TwoPointMass, p=st.floats(0.0, 1.0), d0=st.integers(0, 2100),
              d1=st.integers(0, 2100)),
)


@given(law=_STEP_TAIL_LAWS, alpha=st.floats(0.0, 50.0, exclude_min=True),
       m_max=st.integers(1, 2000))
@settings(max_examples=200, deadline=None)
def test_assumption1_margin_of_a_step_tail_is_the_brute_force_minimum(law, alpha, m_max):
    brute = min(float(m) ** -alpha - law.tail(m) for m in range(1, m_max + 1))
    assert assumption1_margin(law, alpha, m_max).hex() == brute.hex()


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, True])
def test_assumption1_margin_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        assumption1_margin(Dirac(0), alpha=alpha, m_max=10)


@pytest.mark.parametrize("m_max", [0, 2.5, True, "10"])
def test_assumption1_margin_rejects_bad_m_max(m_max):
    with pytest.raises(ValueError, match="m_max"):
        assumption1_margin(Dirac(0), alpha=1.0, m_max=m_max)


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


@pytest.mark.parametrize("law", DELAY_LAW_CASES, ids=str)
def test_sampler_cdf_consistency_dkw(law):
    n = 10**5
    draws = _draws(law, n, seed=11)
    # DKW band at confidence 0.999: sqrt(log(2 / 0.001) / (2n))
    eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))
    assert _dkw_sup(draws, law) <= eps


def test_law_specs_round_trip():
    def reward(spec):
        return from_spec(REWARD_LAWS, spec, "reward law")

    def delay(spec):
        return from_spec(DELAY_LAWS, spec, "delay law")

    assert reward({"kind": "bernoulli", "mu": 0.5}) == Bernoulli(0.5)
    assert reward({"kind": "point_mass", "value": 1.0}) == PointMass(1.0)
    assert delay({"kind": "dirac", "d": 2}) == Dirac(2)
    assert delay({"kind": "pareto_ceil", "alpha": 0.3}) == ParetoCeil(0.3)
    assert delay({"kind": "two_point", "p": 0.1, "d0": 0, "d1": 9}) == TwoPointMass(0.1, 0, 9)
    assert delay({"kind": "geometric", "q": 0.5}) == Geometric(0.5)
    spec = {"kind": "dirac", "d": 2}
    delay(spec)
    assert spec == {"kind": "dirac", "d": 2}  # the caller's spec is left as it was


def test_unknown_tags_rejected():
    with pytest.raises(ValueError, match="unknown reward law"):
        from_spec(REWARD_LAWS, {"kind": "gaussian", "mu": 0.0}, "reward law")
    with pytest.raises(ValueError, match="unknown delay law"):
        from_spec(DELAY_LAWS, {"kind": "exponential", "rate": 1.0}, "delay law")
    with pytest.raises(ValueError, match="unknown delay law"):
        from_spec(DELAY_LAWS, {"alpha": 1.0}, "delay law")  # no kind at all
    # Parameters are passed on as they are: a misspelt one is not dropped.
    with pytest.raises(TypeError):
        from_spec(DELAY_LAWS, {"kind": "pareto_ceil", "alhpa": 1.0}, "delay law")
    with pytest.raises(TypeError):
        from_spec(DELAY_LAWS, {"kind": "geometric"}, "delay law")


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
        # Integer delays are checked, not truncated.
        lambda: Dirac(2.7),
        lambda: Dirac(2.0),
        lambda: Dirac(math.inf),
        lambda: Dirac(True),
        lambda: Dirac("2"),
        lambda: TwoPointMass(p=0.5, d0=0, d1=math.inf),
        lambda: TwoPointMass(p=0.5, d0=1.5, d1=3),
        # Real parameters refuse bools, strings and NaN.
        lambda: Bernoulli(True),
        lambda: Bernoulli("0.5"),
        lambda: Bernoulli(math.nan),
        lambda: PointMass(False),
        lambda: ParetoCeil(True),
        lambda: TwoPointMass(p=math.nan, d0=0, d1=1),
        lambda: Geometric(True),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_pareto_ceil_overflow_saturates_to_inf():
    law = ParetoCeil(0.01)
    assert law.from_uniform(1.0 - 1e-10) == math.inf  # (1e-10) ** -100 overflows a float
    assert law.from_uniform(0.0) == 1
