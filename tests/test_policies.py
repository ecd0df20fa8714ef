"""Policies: pinned index arithmetic, tie-breaking, information hygiene."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import FakeView
from hypothesis import example, given, settings
from hypothesis import strategies as st
from patientbandits import estimators
from patientbandits.distributions import (
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    from_spec,
)
from patientbandits.environment import BanditInstance
from patientbandits.estimators import alpha_bar_activation, delay_bias, deviation
from patientbandits.harness import simulate
from patientbandits.policies import (
    AdaptPatientBandits,
    DUcb,
    PatientBandits,
    UniformRandom,
    VanillaUcb,
    POLICIES,
    ducb_index,
)


def make_policy(spec):
    return from_spec(POLICIES, spec, "policy")


def _ready(policy, K=2, T=1000):
    policy.reset(K, T)
    return policy


def test_patient_tie_breaks_to_lowest_index():
    policy = _ready(PatientBandits(alpha=0.5))
    view = FakeView(counts=[10, 10], sums=[3.0, 3.0], t=21)
    assert policy.select(view, np.random.default_rng(0)) == 0


def test_patient_equal_radii_prefers_higher_mean():
    policy = _ready(PatientBandits(alpha=1.0, delta=None), K=2, T=3000)
    view = FakeView(counts=[1000, 1000], sums=[900.0, 100.0], t=2001)
    assert policy.select(view, np.random.default_rng(0)) == 0


def test_patient_small_count_arm_dominates():
    # Arm B with one pull: UCB = 0 + sqrt(2 ln(4e9)) + 2 = 8.65, far above
    # arm A's 0.6 + 0.333 + 0.1.
    policy = _ready(PatientBandits(alpha=0.5), K=2, T=1000)
    view = FakeView(counts=[400, 1], sums=[240.0, 0.0], t=402)
    assert policy.select(view, np.random.default_rng(0)) == 1


def test_patient_initialization_pulls_each_arm_once():
    policy = _ready(PatientBandits(alpha=0.5), K=3, T=100)
    assert policy.select(FakeView([0, 0, 0], [0.0] * 3, t=1), None) == 0
    assert policy.select(FakeView([1, 0, 0], [0.0] * 3, t=2), None) == 1
    assert policy.select(FakeView([1, 1, 0], [0.0] * 3, t=3), None) == 2


def test_patient_accepts_schedule_alpha():
    policy = _ready(PatientBandits(alpha="loglog"), K=2, T=500)
    view = FakeView(counts=[5, 5], sums=[2.0, 4.0], t=11)
    assert policy.select(view, np.random.default_rng(0)) == 1
    assert policy.label == "patient(alpha=loglog)"


def test_vanilla_same_state_as_patient_example():
    policy = _ready(VanillaUcb(), K=2, T=1000)
    view = FakeView(counts=[400, 1], sums=[240.0, 0.0], t=402)
    assert policy.select(view, np.random.default_rng(0)) == 1  # 6.65 > 1.03
    sym = FakeView(counts=[7, 7], sums=[2.0, 2.0], t=15)
    assert policy.select(sym, np.random.default_rng(0)) == 0


def test_patient_equals_vanilla_when_counts_are_level():
    # With zero delays and a huge assumed index the bias bonus is a uniform
    # 2 / sqrt(n) shift whenever all counts agree, so selections coincide.
    inst = BanditInstance([(Bernoulli(0.4), Dirac(0)), (Bernoulli(0.6), Dirac(0))], 400)
    patient = _ready(PatientBandits(alpha=1e6), K=2, T=400)
    vanilla = _ready(VanillaUcb(), K=2, T=400)
    rng = np.random.default_rng(3)
    from patientbandits.environment import DelayedBanditEnv

    env = DelayedBanditEnv(inst)
    agreeing_rounds = 0
    for _ in range(400):
        view = env.observe()
        arm = patient.select(view, rng)
        if view.counts[0] == view.counts[1] > 0:
            assert vanilla.select(view, rng) == arm
            agreeing_rounds += 1
        env.pull(arm, rng.random)
    assert agreeing_rounds > 0


def test_patient_without_bias_term_tracks_vanilla_exactly():
    class PatientNoBias(PatientBandits):
        def reset(self, n_arms, horizon):
            super().reset(n_arms, horizon)
            self.params = dataclasses.replace(self.params, alpha=None)

    inst = BanditInstance([(Bernoulli(0.4), Dirac(0)), (Bernoulli(0.6), Dirac(0))], 300)
    env_a, trace_a = simulate(inst, PatientNoBias(alpha=1e6), np.random.default_rng(9))
    env_b, trace_b = simulate(inst, VanillaUcb(), np.random.default_rng(9))
    assert env_a.pull_records() == env_b.pull_records()
    assert np.array_equal(trace_a.regret, trace_b.regret)


@pytest.mark.parametrize("alpha", [None, 0.1, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("T", [400, 3000])
def test_radius_table_is_the_scalar_radius(T, K, alpha):
    # At every count from 1 to T, the radius select keeps for an arm is bit for
    # bit the scalar radius on Python ints; an array pow may round differently.
    policy = _ready(VanillaUcb() if alpha is None else PatientBandits(alpha), K=K, T=T)
    delta = policy.params.delta
    for n in range(1, T + 1):
        policy.select(FakeView([n] * K, [0.0] * K, t=K * n + 1), None)
        expected = deviation(n, delta) if alpha is None else deviation(n, delta) + delay_bias(n, alpha)
        assert policy._radius == [expected] * K


def test_adapt_initialization_two_sweeps():
    policy = _ready(AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.4), K=2, T=100)
    assert policy.select(FakeView([0, 0], [0.0, 0.0], t=1), None) == 0
    assert policy.select(FakeView([1, 0], [0.0, 0.0], t=2), None) == 1
    assert policy.select(FakeView([1, 1], [0.0, 0.0], t=3), None) == 0
    assert policy.select(FakeView([2, 1], [0.0, 0.0], t=4), None) == 1


def test_adapt_leader_is_lowest_index_on_ties():
    # mu_floor 8 and delta 0.5 put the bound's threshold at 6 pulls, so the windows are read.
    policy = _ready(AdaptPatientBandits(c=1.0, alpha_floor=0.5, mu_floor=8.0, delta=0.5),
                    K=2, T=100)
    view = FakeView(counts=[6, 6], sums=[2.0, 2.0], t=13, windows={(0, 3): (4, 2.0), (0, 1): (5, 1.0)})
    policy.select(view, np.random.default_rng(0))
    assert view.queried_windows
    assert all(arm == 0 for arm, _ in view.queried_windows)


def test_adapt_degenerate_window_still_selects():
    # mu_floor 16 and delta 0.5 put the bound's threshold at 2 pulls, so the windows are read.
    policy = _ready(AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=16.0, delta=0.5),
                    K=2, T=100)
    # Windows answer (0, 0.0): diff collapses to the null-signal path.
    view = FakeView(counts=[3, 2], sums=[1.0, 1.0], t=6)
    arm = policy.select(view, np.random.default_rng(0))
    assert arm in (0, 1)
    assert view.queried_windows
    assert policy.alpha_bar_history and 0.0 <= policy.alpha_bar_history[-1] <= 0.5


def test_adapt_alpha_bar_within_range_on_simulation():
    inst = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.7), ParetoCeil(0.4))], 600
    )
    policy = AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.4)
    simulate(inst, policy, np.random.default_rng(4))
    bars = np.asarray(policy.alpha_bar_history)
    assert len(bars) == 600 - 2 * 2
    assert np.all((bars >= 0.0) & (bars <= 0.5))


class _FullAdapt(AdaptPatientBandits):
    """The same policy with the threshold forced to 2: every round reads its windows."""

    def reset(self, n_arms, horizon):
        super().reset(n_arms, horizon)
        self._alpha_bar_threshold = 2


def _adapt_episode(policy_class, instance, c, mu_floor, delta, seed):
    policy = policy_class(c=c, alpha_floor=0.2, mu_floor=mu_floor, delta=delta)
    env, trace = simulate(instance, policy, np.random.default_rng(seed))
    return policy, env, trace


_FIGURE5_LIKE = [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), ParetoCeil(0.3))]
_REWARDS = st.one_of(st.floats(0.0, 1.0).map(Bernoulli), st.sampled_from([0.0, 1.0]).map(PointMass))
_DELAYS = st.one_of(st.sampled_from([0.2, 0.5, 1.0]).map(ParetoCeil), st.integers(0, 4).map(Dirac))


@given(
    arms=st.lists(st.tuples(_REWARDS, _DELAYS), min_size=2, max_size=3),
    T=st.integers(10, 200),
    c=st.floats(0.1, 1.0),
    mu_floor=st.floats(0.5, 60.0),
    delta=st.one_of(st.none(), st.floats(1e-6, 0.9)),
    seed=st.integers(0, 2**32 - 1),
)
# The thresholds of test_adapt_threshold_at_its_extremes: 2, infinite, and 6, where
# the bound turns positive mid-episode.
@example(arms=_FIGURE5_LIKE, T=100, c=1.0, mu_floor=100.0, delta=0.5, seed=1)
@example(arms=_FIGURE5_LIKE, T=100, c=1e-3, mu_floor=1e-160, delta=None, seed=1)
@example(arms=_FIGURE5_LIKE, T=400, c=1.0, mu_floor=8.0, delta=0.5, seed=1)
@settings(max_examples=100, deadline=None)
def test_adapt_threshold_shortcut_equals_the_full_computation(arms, T, c, mu_floor, delta, seed):
    instance = BanditInstance(arms, T)
    fast, fast_env, fast_trace = _adapt_episode(AdaptPatientBandits, instance, c, mu_floor, delta,
                                                seed)
    full, full_env, full_trace = _adapt_episode(_FullAdapt, instance, c, mu_floor, delta, seed)
    assert np.array(fast.alpha_bar_history).tobytes() == np.array(full.alpha_bar_history).tobytes()
    assert fast_env.pull_records() == full_env.pull_records()
    assert fast_trace.regret.tobytes() == full_trace.regret.tobytes()


@pytest.mark.parametrize("c, mu_floor, delta, threshold", [
    (1.0, 100.0, 0.5, 2),  # offset <= 0
    (1e-3, 1e-160, None, math.inf),  # exp(2 * offset) overflows
    (1.0, 8.0, 0.5, 6),  # the pinned adapt(alpha_bar>0)
])
def test_adapt_threshold_at_its_extremes(c, mu_floor, delta, threshold):
    policy = _ready(AdaptPatientBandits(c=c, alpha_floor=0.2, mu_floor=mu_floor, delta=delta),
                    K=2, T=400)
    assert policy._alpha_bar_threshold == threshold


def test_adapt_bound_never_exceeds_its_estimate(monkeypatch):
    # Floors whose correction is negative (offset clamped to 0): every recorded
    # bound is at most the estimate it bounds, and at most 0.5.
    pairs, alpha_bar = [], estimators.alpha_bar

    def recording_alpha_bar(ahat, pulls, offset):
        pairs.append((ahat, alpha_bar(ahat, pulls, offset)))
        return pairs[-1][1]

    monkeypatch.setattr(estimators, "alpha_bar", recording_alpha_bar)
    instance = BanditInstance(_FIGURE5_LIKE, 400)
    policy, _, _ = _adapt_episode(AdaptPatientBandits, instance, 1.0, 100.0, 0.5, seed=1)
    history = policy.alpha_bar_history
    assert len(history) == 400 - 2 * 2  # threshold 2: every round after the sweeps reads
    assert [abar for _, abar in pairs[-len(history):]] == history  # after reset's search
    assert all(abar <= ahat <= 0.5 for ahat, abar in pairs)


class _NoWindows(FakeView):
    def windowed(self, arm, wait):
        raise AssertionError(f"windowed({arm}, {wait}) queried below the threshold")


def test_adapt_makes_no_window_query_below_the_threshold():
    # The figure-5 floors at the default delta, T = 1e5: the bound stays 0 below 36,788 pulls.
    policy = _ready(AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.5), K=2, T=10**5)
    n = policy._alpha_bar_threshold
    assert n == alpha_bar_activation(2, 10**5, policy.tail_params) == 36788
    policy.select(_NoWindows(counts=[n - 1, 500], sums=[300.0, 200.0], t=n + 500), None)
    assert policy.alpha_bar_history == [0.0]


def test_adapt_queries_windows_from_the_threshold_on():
    # The pinned adapt(alpha_bar>0) config: mu_floor 8, delta 0.5, threshold 6.
    policy = _ready(AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=8.0, delta=0.5),
                    K=2, T=400)
    n = policy._alpha_bar_threshold
    assert n == 6
    policy.select(_NoWindows(counts=[n - 1, n - 1], sums=[2.0, 3.0], t=2 * n - 1), None)
    view = FakeView(counts=[n, n - 1], sums=[2.0, 3.0], t=2 * n, windows={(0, 3): (3, 2.0)})
    policy.select(view, None)
    assert [arm for arm, _ in view.queried_windows] == [0, 0]
    assert policy.alpha_bar_history[0] == 0.0


class _OwnExponent(VanillaUcb):
    """An index policy with its own round exponent: none every third round, 0 every fourth."""

    def bias_alpha(self, view):
        return None if view.t % 3 == 0 else (view.t % 4) / 6


def _adapt_oracle_alpha(policy, view):
    """The tail-index bound from its formula, with no threshold shortcut."""
    leader_pulls = max(view.counts)
    leader = view.counts.index(leader_pulls)
    long_wait, short_wait = estimators.window_pair(leader_pulls, policy.tail_params)
    n_long, total_long = view.windows.get((leader, long_wait), (0, 0.0))
    n_short, total_short = view.windows.get((leader, short_wait), (0, 0.0))
    diff = total_long / n_long - total_short / n_short if n_long and n_short else 0.0
    ahat = estimators.alpha_hat(diff, leader_pulls)
    offset = estimators.alpha_bar_offset(policy.tail_params, policy.params.delta)
    return estimators.alpha_bar(ahat, leader_pulls, offset)


_ORACLE_T = 4000
# case -> (policy factory, oracle of the round's bias exponent or None, least leader count)
_ORACLE_CASES = {
    "ucb": (VanillaUcb, lambda policy, view: None, 0),
    **{f"patient-{a:g}": (lambda a=a: PatientBandits(a), lambda policy, view: None, 0)
       for a in (0.1, 0.3, 0.5, 2.0)},
    "loglog": (lambda: PatientBandits("loglog"),
               lambda policy, view: estimators.log_log_schedule(view.t), 0),
    # A callable of the round that is 0 every fifth round.
    "callable": (lambda: PatientBandits(lambda t: (t % 5) / 8),
                 lambda policy, view: (view.t % 5) / 8, 0),
    # The default delta puts the threshold past the horizon: the bound is 0 throughout.
    "adapt-below": (lambda: AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.4),
                    _adapt_oracle_alpha, 0),
    # Threshold 6, and the leader at or above it.
    "adapt-above": (lambda: AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=8.0, delta=0.5),
                    _adapt_oracle_alpha, 6),
    "own-bias-alpha": (_OwnExponent, lambda policy, view: _OwnExponent.bias_alpha(None, view), 0),
}


_FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _arm_states(draw, leader_at_least):
    """Counts and sums of up to 8 arms drawn with replacement from a few states, so ties are common.

    Counts fall on both sides of every ``init_pulls``.
    """
    counts = st.one_of(st.integers(0, 3), st.integers(0, _ORACLE_T - 1000))
    states = draw(st.lists(st.tuples(counts, _FRACTIONS), min_size=1, max_size=8))
    arms = draw(st.lists(st.sampled_from(states), min_size=1, max_size=8))
    return _with_leader(draw, arms, leader_at_least)


@st.composite
def _moved_arm_states(draw, counts, leader_at_least):
    """Counts and sums of the same arms, each count one more, the same, one less or far off."""
    step = st.one_of(st.sampled_from([1, 0, -1]), st.integers(-2000, 2000))
    arms = [(min(max(n + draw(step), 0), _ORACLE_T - 1000), draw(_FRACTIONS)) for n in counts]
    return _with_leader(draw, arms, leader_at_least)


def _with_leader(draw, arms, leader_at_least):
    if max(n for n, _ in arms) < leader_at_least:
        leader = (draw(st.integers(leader_at_least, _ORACLE_T - 1000)), draw(_FRACTIONS))
        arms[draw(st.integers(0, len(arms) - 1))] = leader
    return [n for n, _ in arms], [fraction * n for n, fraction in arms]


def _least_total_reaching(index, n, target):
    """The least arm sum whose index at ``n`` pulls is not below ``target``, by bisection."""
    lo, hi = 0.0, 1.0
    if index(n, lo) >= target:
        return lo
    while index(n, hi) < target:
        hi *= 2.0
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (lo, mid) if index(n, mid) >= target else (mid, hi)
    return hi


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_select_is_the_first_argmax_of_the_scalar_index(case, data):
    make, oracle_alpha, leader_at_least = _ORACLE_CASES[case]
    counts, sums = data.draw(_arm_states(leader_at_least))
    K = len(counts)
    policy = _ready(make(), K=K, T=_ORACLE_T)
    delta = policy.delta if policy.delta is not None else 1.0 / (K * _ORACLE_T**3)
    fixed_alpha = policy.alpha if isinstance(policy.alpha, float) else None
    # One reset policy answers a few states in turn, as it would stored views in
    # any order: from one state to the next, each count rises, repeats or falls.
    alpha_bars = []
    for step in range(data.draw(st.integers(1, 4))):
        if step:
            counts, sums = data.draw(_moved_arm_states(counts, leader_at_least))
        windows = {}
        if isinstance(policy, AdaptPatientBandits) and max(counts) >= 2:
            leader_pulls = max(counts)
            for wait in estimators.window_pair(leader_pulls, policy.tail_params):
                n = data.draw(st.integers(0, leader_pulls))
                windows[(counts.index(leader_pulls), wait)] = (
                    n, n * data.draw(st.floats(0.0, 1.0))
                )
        if min(counts) < policy.init_pulls:
            view = FakeView(counts, sums, t=sum(counts) + 1)
            assert policy.select(view, None) == counts.index(min(counts))
            continue
        # The round's exponent depends on the counts, the round and the windows, not on the sums.
        alpha_t = oracle_alpha(policy, FakeView(counts, sums, t=sum(counts) + 1, windows=windows))
        alpha_bars.append(alpha_t)

        def index(n, total, alpha_t=alpha_t):
            radius = deviation(n, delta)
            if fixed_alpha is not None:
                radius = radius + delay_bias(n, fixed_alpha)
            if alpha_t is not None:
                radius = radius + delay_bias(n, alpha_t)
            return estimators.mu_hat(total, n) + radius

        if K >= 2 and data.draw(st.booleans()):
            # A near tie: one arm's index is the least at or above arm 0's, so a
            # last-bit change in either index can move the argmax.
            j = data.draw(st.integers(1, K - 1))
            sums[j] = _least_total_reaching(index, counts[j], index(counts[0], sums[0]))
        view = FakeView(counts, sums, t=sum(counts) + 1, windows=windows)
        indices = [index(n, total) for n, total in zip(counts, sums)]
        assert policy.select(view, None) == indices.index(max(indices))
    if isinstance(policy, AdaptPatientBandits):
        assert policy.alpha_bar_history == alpha_bars


_HUGE_T_SPECS = {
    "patient(0.3)": {"kind": "patient", "alpha": 0.3},
    "patient(loglog)": {"kind": "patient", "alpha": "loglog"},
    "ucb": {"kind": "ucb"},
    "adapt": {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
}


@pytest.mark.parametrize("spec", list(_HUGE_T_SPECS.values()), ids=list(_HUGE_T_SPECS))
def test_select_allocates_nothing_of_order_T(spec):
    # The policy keeps one radius per arm, set when the arm's count moves; a
    # radius for each of the horizon's 10**6 counts would take tens of MiB.
    T = 10**6
    tracemalloc.start()
    try:
        policy = _ready(make_policy(spec), K=2, T=T)
        assert policy.select(FakeView([700, 900], [300.0, 500.0], t=1601), None) in (0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ducb_warm_up_is_round_robin():
    policy = _ready(DUcb(m=5, cdf=Dirac(0)), K=2, T=100)
    for t in range(1, 7):  # t < m + K = 7
        view = FakeView([3, 3], [1.0, 1.0], t=t)
        assert policy.select(view, np.random.default_rng(0)) == t % 2


def test_ducb_index_hand_value():
    # tau(m) = 0.5, S = 10, N = 40, ln t = 4: 0.5 + sqrt(8 / 20) = 1.1325
    assert ducb_index(10.0, 40, 0.5, t=math.exp(4.0)) == pytest.approx(1.1325, abs=1e-4)


def test_ducb_selects_by_index_and_infinite_on_empty():
    policy = _ready(DUcb(m=2, cdf=Dirac(0)), K=2, T=100)
    view = FakeView(
        counts=[10, 10], sums=[9.0, 1.0], t=50,
        windows={(0, 2): (8, 7.0), (1, 2): (0, 0.0)},
    )
    assert policy.select(view, np.random.default_rng(0)) == 1  # unseen window wins
    view2 = FakeView(
        counts=[10, 10], sums=[9.0, 1.0], t=50,
        windows={(0, 2): (8, 7.0), (1, 2): (8, 1.0)},
    )
    assert policy.select(view2, np.random.default_rng(0)) == 0


def test_ducb_zero_cdf_at_threshold_rejected():
    with pytest.raises(ValueError, match="CDF is 0"):
        DUcb(m=1, cdf=ParetoCeil(1.0))  # cdf(1) = 0 for the unit-scale tail
    with pytest.raises(ValueError):
        DUcb(m=0, cdf=Dirac(0))


def test_ducb_tau_m_is_scalar_libm():
    # numpy's pow, even on a 0-d array, can differ from libm's in the last
    # bit on SIMD hosts; ducb's index scales by tau_m, so its regret would too.
    for alpha in np.linspace(0.05, 1.5, 60).tolist():
        law = ParetoCeil(alpha)
        for m in range(1, 1001):
            assert law.cdf(m) == 1.0 - float(m) ** -alpha
            if m > 1:  # cdf(1) = 0 is refused
                assert DUcb(m, law).tau_m == law.cdf(m)
    for q in np.linspace(0.01, 0.99, 60).tolist():
        law = Geometric(q)
        for m in range(1, 1001):
            assert DUcb(m, law).tau_m == 1.0 - (1.0 - q) ** (m + 1)


def test_uniform_random_uses_one_draw():
    policy = _ready(UniformRandom(), K=3, T=10)
    rng_a = np.random.default_rng(12)
    rng_b = np.random.default_rng(12)
    arm = policy.select(FakeView([1, 1, 1], [0.0] * 3, t=4), rng_a)
    assert arm == int(rng_b.integers(3))
    assert rng_a.random() == rng_b.random()  # streams still aligned


def test_information_hygiene_identical_views_same_arm():
    # A policy given two views answering identically must pick the same arm.
    policies = [
        PatientBandits(alpha=0.3),
        VanillaUcb(),
        DUcb(m=2, cdf=Dirac(1)),
        AdaptPatientBandits(c=1.0, alpha_floor=0.3, mu_floor=8.0, delta=0.5),  # reads windows
    ]
    windows = {(0, 1): (3, 1.0), (1, 1): (2, 2.0), (0, 2): (2, 1.0), (1, 2): (1, 1.0),
               (0, 3): (2, 1.0), (1, 3): (1, 1.0)}
    for policy in policies:
        policy.reset(2, 50)
        a = policy.select(FakeView([7, 6], [3.0, 4.0], t=14, windows=windows),
                          np.random.default_rng(0))
        b = policy.select(FakeView([7, 6], [3.0, 4.0], t=14, windows=windows),
                          np.random.default_rng(0))
        assert a == b


def test_make_policy_tags():
    assert isinstance(make_policy({"kind": "patient", "alpha": 0.3}), PatientBandits)
    assert callable(make_policy({"kind": "patient", "alpha": "loglog"}).alpha)
    assert isinstance(
        make_policy({"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.4}),
        AdaptPatientBandits,
    )
    ducb = make_policy({"kind": "ducb", "m": 50, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}})
    assert isinstance(ducb, DUcb) and ducb.m == 50
    assert isinstance(make_policy({"kind": "ucb"}), VanillaUcb)
    assert isinstance(make_policy({"kind": "uniform"}), UniformRandom)
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy({"kind": "thompson"})
    with pytest.raises(TypeError):
        make_policy({"kind": "ucb", "dleta": 0.1})  # misspelt, not ignored
    for m in (2.5, 50.0, math.inf, True, "50"):
        with pytest.raises(ValueError, match="threshold m"):
            make_policy({"kind": "ducb", "m": m, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}})
