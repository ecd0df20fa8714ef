"""Environment: visibility rules, windowed queries, determinism, audits."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedInstance
from patientbandits import environment
from patientbandits.distributions import (
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
    from_spec,
)
from patientbandits.environment import BanditInstance, DelayedBanditEnv, EpisodeComplete
from patientbandits.policies import POLICIES, UniformRandom, VanillaUcb
from patientbandits.harness import simulate


def _arm(mu=1.0, delay=None):
    return (PointMass(mu), delay if delay is not None else Dirac(0))


def test_instance_validation():
    with pytest.raises(ValueError, match="at least one arm"):
        BanditInstance([], horizon=5)
    with pytest.raises(ValueError, match="horizon"):
        BanditInstance([_arm(), _arm()], horizon=1)
    inst = BanditInstance([(Bernoulli(0.3), Dirac(0)), (Bernoulli(0.7), Dirac(2))], 10)
    assert inst.means == (0.3, 0.7)
    assert inst.gaps == (pytest.approx(0.4), 0.0)
    assert min(inst.gaps) == 0.0


@pytest.mark.parametrize("horizon", [10.7, True, "10", math.inf])
def test_instance_horizon_must_be_an_integer(horizon):
    with pytest.raises(ValueError, match="horizon"):
        BanditInstance([_arm()], horizon=horizon)


def test_zero_delay_reward_visible_one_round_later():
    inst = ScriptedInstance([_arm()], horizon=5, script={0: [(1.0, 0)] * 5})
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    view1 = env.observe()
    assert view1.sums[0] == 0.0
    env.pull(0, rng.random)
    assert env.observe().sums[0] == 1.0  # round 2 sees the round-1 reward


def test_horizon_censoring():
    T = 6
    inst = BanditInstance([(PointMass(1.0), TwoPointMass(p=1.0, d0=0, d1=T))], horizon=T)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    for _ in range(T):
        assert env.observe().sums[0] == 0.0
        env.pull(0, rng.random)
    assert env.censored_count == T
    assert all(rec.censored for rec in env.pull_records())


def test_delay_past_horizon_is_clamped_and_censored():
    # An overflowing heavy-tailed draw arrives as an infinite delay.
    script = {0: [(1.0, math.inf), (1.0, 0), (1.0, 1)]}
    env = DelayedBanditEnv(ScriptedInstance([_arm()], horizon=4, script=script))
    rng = np.random.default_rng(0)
    for _ in range(3):
        env.observe()
        env.pull(0, rng.random)
    assert env.censored_count == 1
    assert env.observe().sums[0] == 2.0
    first = env.pull_records()[0]
    assert first.delay == 5 and first.censored  # reported as T + 1


def test_pull_count_identity_round_robin():
    inst = BanditInstance([_arm(), _arm(), _arm()], horizon=9)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    for t in range(9):
        env.observe()
        env.pull(t % 3, rng.random)
        assert sum(env.pull_counts) == t + 1
    assert env.pull_counts == (3, 3, 3)


def test_windowed_manual_trace():
    # Arm 0 pulled at rounds 1, 2 with (reward, delay) = (1, 0), (1, 5).
    inst = ScriptedInstance(
        [_arm(), _arm()],
        horizon=6,
        script={0: [(1.0, 0), (1.0, 5)], 1: [(0.0, 1)]},
    )
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    for arm in (0, 0, 1):
        env.observe()
        env.pull(arm, rng.random)
    view = env.observe()
    assert view.t == 4
    assert view.windowed(0, 1) == (2, 1.0)  # only the delay-0 pull in-window
    assert view.windowed(0, 0) == (2, 1.0)
    assert view.windowed(1, 3) == (0, 0.0)  # no qualifying pulls
    assert view.windowed(0, 4) == (0, 0.0)  # wait as long as the history
    assert view.windowed(0, 99) == (0, 0.0)


def test_windowed_rejects_negative_wait():
    inst = BanditInstance([_arm()], horizon=3)
    env = DelayedBanditEnv(inst)
    env.pull(0, np.random.default_rng(0).random)
    with pytest.raises(ValueError, match="nonnegative"):
        env.observe().windowed(0, -1)


@pytest.mark.parametrize("wait", [2.5, True, "3", math.inf], ids=repr)
def test_windowed_rejects_a_wait_that_is_not_an_integer(wait):
    env = DelayedBanditEnv(BanditInstance([_arm()], horizon=5))
    env.pull(0, np.random.default_rng(0).random)
    with pytest.raises(ValueError, match="wait must be an integer"):
        env.observe().windowed(0, wait)


def test_windowed_accepts_a_numpy_integer_wait():
    env = DelayedBanditEnv(BanditInstance([_arm()], horizon=6))
    rng = np.random.default_rng(0)
    for _ in range(5):
        env.pull(0, rng.random)
    view = env.observe()
    assert view.windowed(0, np.int64(3)) == view.windowed(0, 3) == (3, 3.0)


def test_view_snapshot_is_stable():
    inst = BanditInstance([(Bernoulli(1.0), Dirac(1)), (Bernoulli(1.0), Dirac(1))], 10)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    env.observe()
    env.pull(0, rng.random)
    view = env.observe()
    before = (view.counts, view.sums, view.windowed(0, 1))
    env.pull(0, rng.random)
    env.pull(1, rng.random)
    env.observe()
    assert (view.counts, view.sums, view.windowed(0, 1)) == before
    with pytest.raises(TypeError):
        view.counts[0] = 5  # a policy cannot edit its snapshot
    with pytest.raises(TypeError):
        view.sums[0] = 5.0


reward_laws = st.one_of(
    st.builds(Bernoulli, st.floats(0.0, 1.0)), st.builds(PointMass, st.floats(0.0, 1.0))
)


def delay_laws(T):
    return st.one_of(
        st.builds(Dirac, st.integers(0, T + 2)),
        st.builds(ParetoCeil, st.floats(0.01, 3.0)),  # small indices overflow to inf
        st.builds(TwoPointMass, st.floats(0.0, 1.0), st.integers(0, T), st.integers(0, 2 * T)),
        st.builds(Geometric, st.floats(0.01, 1.0)),
    )


# Laws whose every reward is a zero, of either sign.
zero_reward_laws = st.sampled_from([Bernoulli(0.0), PointMass(0.0), PointMass(-0.0)])


@st.composite
def instances(draw, rewards=reward_laws):
    """K in 1..4, T <= 60, any reward law and any delay law on each arm."""
    K = draw(st.integers(1, 4))
    T = draw(st.integers(K, 60))
    arms = draw(st.lists(st.tuples(rewards, delay_laws(T)), min_size=K, max_size=K))
    return BanditInstance(arms, horizon=T)


@st.composite
def scripted_instances(draw):
    """K in 1..2, T <= 40, each arm replaying any rewards in [0, 1]: unlike a
    law's, one arm's rewards can need ever finer binary units."""
    K = draw(st.integers(1, 2))
    T = draw(st.integers(K, 40))
    draws = st.tuples(st.floats(0.0, 1.0), st.integers(0, T + 1))
    script = {arm: draw(st.lists(draws, min_size=T, max_size=T)) for arm in range(K)}
    return ScriptedInstance([_arm()] * K, horizon=T, script=script)


def _replay_uniform(instance, seed):
    """Every round's view of a uniform-policy episode, and its pull log."""
    env = DelayedBanditEnv(instance)
    policy = UniformRandom()
    policy.reset(instance.n_arms, instance.horizon)
    rng = np.random.default_rng(seed)
    views = []
    while not env.done:
        view = env.observe()
        views.append(view)
        env.pull(policy.select(view, rng), rng.random)
    return views, env.pull_records()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@given(instance=instances())
@settings(max_examples=20, deadline=None)
def test_arrived_sum_matches_brute_force(seed, instance):
    # Recompute every round's counts and arrived sums from the raw pull log:
    # pulls s < t, each adding reward * 1{delay <= t - s}.
    views, records = _replay_uniform(instance, seed)
    arms = range(instance.n_arms)
    for view in views:
        t = view.t
        past = [r for r in records if r.round < t]
        assert view.counts == tuple(sum(r.arm == arm for r in past) for arm in arms)
        brute = [sum(r.reward for r in past if r.arm == arm and r.delay <= t - r.round)
                 for arm in arms]
        assert view.sums == pytest.approx(brute, abs=1e-12)


@given(instance=instances(rewards=st.one_of(reward_laws, zero_reward_laws)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_arrived_sum_is_the_sequential_sum_of_arrivals(instance, seed):
    # Bit for bit, sign of zero included: each arm's sum adds its arrived
    # rewards one by one, zeros too, in (arrival round, pull round) order.
    views, records = _replay_uniform(instance, seed)
    arrived = sorted((r for r in records if not r.censored),
                     key=lambda r: (r.arrival_round, r.round))
    for view in views:
        for arm in range(instance.n_arms):
            total = 0.0
            for r in arrived:
                if r.arm == arm and r.arrival_round <= view.t:
                    total += r.reward
            assert view.sums[arm].hex() == total.hex()


def _brute_window(records, arm, t, wait):
    """Pulls of ``arm`` at rounds s < t with s <= t - wait, and the exactly
    rounded sum of their rewards whose delay is <= wait."""
    early = [r for r in records if r.arm == arm and r.round < t and r.round <= t - wait]
    return len(early), math.fsum(r.reward for r in early if r.delay <= wait)


@given(instance=instances(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_windowed_matches_brute_force(instance, seed):
    # Every wait from 0 to t + 1, on every arm and round. Waits of t or
    # more leave no pull.
    views, records = _replay_uniform(instance, seed)
    for view in views:
        for arm in range(instance.n_arms):
            for wait in range(view.t + 2):
                assert view.windowed(arm, wait) == _brute_window(records, arm, view.t, wait)


@given(
    instance=st.one_of(instances(), scripted_instances()),
    seed=st.integers(0, 2**32 - 1),
    order=st.randoms(),
)
@settings(max_examples=50, deadline=None)
def test_windowed_in_any_query_order_matches_brute_force(instance, seed, order):
    # Stored views queried after the episode, rounds and waits shuffled: the
    # per-arm sums are reused, advanced and rebuilt, and must not show it.
    views, records = _replay_uniform(instance, seed)
    queries = [(view, arm, wait) for view in views
               for arm in range(instance.n_arms) for wait in range(view.t + 2)]
    order.shuffle(queries)
    for view, arm, wait in queries:
        assert view.windowed(arm, wait) == _brute_window(records, arm, view.t, wait)


def _replay_arms(instance, arms, seed):
    """Every round's view of an episode that pulls ``arms[t - 1]`` at round t, and its log."""
    env = DelayedBanditEnv(instance)
    uniform = np.random.default_rng(seed).random
    views = []
    for arm in arms:
        views.append(env.observe())
        env.pull(arm, uniform)
    return views, env.pull_records()


@st.composite
def episodes(draw):
    """An instance, its arm at every round (an arm may never be pulled), and a seed."""
    instance = draw(st.one_of(instances(), scripted_instances()))
    K, T = instance.n_arms, instance.horizon
    arms = draw(st.lists(st.integers(0, K - 1), min_size=T, max_size=T))
    return instance, arms, draw(st.integers(0, 2**32 - 1))


@given(episode=episodes(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_same_wait_streams_match_brute_force(episode, data):
    # ducb's shape: each arm asked one fixed wait at every view in turn, which
    # its cursor answers without search. Between rounds come the queries that
    # must not take that path: stored older views asked after the episode
    # moved on (also with the stream's own wait), and waits that fall or rise.
    instance, arms, seed = episode
    K, T = instance.n_arms, instance.horizon
    views, records = _replay_arms(instance, arms, seed)
    streams = data.draw(st.lists(st.integers(0, T + 1), min_size=K, max_size=K))
    for i, view in enumerate(views):
        for arm, wait in enumerate(streams):
            assert view.windowed(arm, wait) == _brute_window(records, arm, view.t, wait)
        for _ in range(data.draw(st.integers(0, 2))):
            older = views[data.draw(st.integers(0, i))]
            arm = data.draw(st.integers(0, K - 1))
            wait = data.draw(st.one_of(st.just(streams[arm]), st.integers(0, older.t + 1)))
            assert older.windowed(arm, wait) == _brute_window(records, arm, older.t, wait)


def test_windowed_constant_reward_is_the_sum_rounded_once():
    # k equal rewards total k * 0.45, the exact sum rounded once, whatever k;
    # a running float sum drifts in the last bits. Two identical arms with
    # equal counts therefore tie exactly.
    inst = BanditInstance([(PointMass(0.45), Dirac(0))] * 2, horizon=400)
    views, _ = _replay_uniform(inst, seed=5)
    for view in views:
        for arm in range(2):
            for wait in range(view.t):
                count, total = view.windowed(arm, wait)
                assert total == count * 0.45


def test_a_negative_delay_counts_as_zero():
    # A custom draw may return a negative delay. Like a zero delay, its
    # reward arrives a round later and counts within every wait.
    script = [(1.0, -1)] * 5 + [(0.5, -3), (0.25, 2), (0.75, -2), (1.0, 0), (0.5, 1)]
    inst = ScriptedInstance([_arm()], horizon=10, script={0: script})
    views, records = _replay_uniform(inst, seed=0)
    assert views[5].windowed(0, 0) == (5, 5.0)
    for view in views:
        for wait in range(view.t + 2):
            assert view.windowed(0, wait) == _brute_window(records, 0, view.t, wait)


class _CountedCursor(environment._WaitedCursor):
    """A cursor that records the buckets it sweeps, the pulls it files and its ``total`` calls."""

    __slots__ = ("swept", "filed", "calls")
    built: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.swept = self.filed = self.calls = 0
        self.built.append(self)

    def total(self, count, wait):
        wait_before, covered_before = self.wait, self.covered
        self.calls += 1
        result = super().total(count, wait)
        assert self.wait >= wait_before and self.covered >= covered_before
        self.swept += self.wait - wait_before
        self.filed += self.covered - covered_before
        return result


@pytest.fixture
def counted_cursors(monkeypatch):
    """Every cursor built while the test runs, in order."""
    monkeypatch.setattr(environment, "_WaitedCursor", _CountedCursor)
    monkeypatch.setattr(_CountedCursor, "built", [])
    return _CountedCursor.built


_STREAM_POLICIES = [
    pytest.param({"kind": "ducb", "m": 50, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}, 1,
                 id="ducb"),
    # The pinned adapt(alpha_bar>0) floors: its leader reaches the bound's threshold
    # at 6 pulls, so it queries from then on. At mu_floor 0.5 and the default delta
    # it would query nothing below 26,016 pulls (see the test after the next one).
    pytest.param({"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 8.0, "delta": 0.5}, 2,
                 id="adapt"),
]


def _figure5_episode(spec, T=3000):
    figure5 = BanditInstance(
        [(Bernoulli(0.6), ParetoCeil(1.0)), (Bernoulli(0.8), ParetoCeil(0.3))], horizon=T
    )
    env, _ = simulate(figure5, from_spec(POLICIES, spec, "policy"), np.random.default_rng(7))
    return env


@pytest.mark.parametrize("spec, most", _STREAM_POLICIES)
def test_an_episode_builds_a_cursor_per_query_stream_and_retires_none(counted_cursors, spec, most):
    # ducb asks one wait per arm and adapt two on the leader, each stream
    # with a wait and a count that never drop; a cursor built on every query
    # would still pass the brute-force tests.
    env = _figure5_episode(spec)
    kept = [cursor for cursors in env._arm_cursors for cursor in cursors]
    assert counted_cursors and sorted(map(id, counted_cursors)) == sorted(map(id, kept))
    assert max(len(cursors) for cursors in env._arm_cursors) <= most


@pytest.mark.parametrize("spec, most", _STREAM_POLICIES)
def test_an_episode_files_each_pull_once_per_stream(counted_cursors, spec, most):
    # O(1) amortised per query: over the episode a cursor sweeps each delay
    # bucket at most once and files each of its arm's pulls at most once, so
    # the streams together file at most `most` times T pulls. Rebuilding on
    # every query would file O(T**2).
    T = 3000
    env = _figure5_episode(spec, T)
    for cursors, rounds in zip(env._arm_cursors, env._arm_rounds):
        for cursor in cursors:
            assert cursor.swept <= T + 2
            assert cursor.filed == cursor.covered <= len(rounds)
    assert sum(cursor.filed for cursor in counted_cursors) <= most * T


def test_a_same_wait_stream_calls_total_only_when_a_pull_enters(counted_cursors):
    # ducb asks each arm the same wait every round. The arm's one cursor steps
    # its count forward itself and answers from its stored sum while no pull
    # entered the window, so ``total`` runs at most once per pull it files,
    # not once a query, and each pull is still filed once.
    T, m = 3000, 50
    spec = {"kind": "ducb", "m": m, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}
    env = _figure5_episode(spec, T)
    for cursors, rounds in zip(env._arm_cursors, env._arm_rounds):
        (cursor,) = cursors
        assert (cursor.wait, cursor.at) == (m, T)
        assert cursor.filed == cursor.covered == sum(s <= T - m for s in rounds)
        assert 1 <= cursor.calls <= cursor.filed


def test_adapt_below_its_threshold_builds_no_cursor(counted_cursors):
    # At the figure-5 floors the bound is 0 for the whole episode, so no window is read.
    env = _figure5_episode({"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5})
    assert counted_cursors == [] and env._arm_cursors == [[], []]


@st.composite
def monotone_streams(draw, T):
    """A long and a short wait per round 1..T: neither drops nor rises by more
    than one a round, so neither window's count drops, and the short wait
    stays below the long wait of the round before."""
    steps = st.lists(st.tuples(st.booleans(), st.booleans()), min_size=T - 1, max_size=T - 1)
    long_wait = draw(st.integers(1, 4))
    short_wait = draw(st.integers(0, long_wait - 1))
    waits = [(long_wait, short_wait)]
    for rise_long, rise_short in draw(steps):
        short_wait = min(short_wait + rise_short, long_wait - 1)
        long_wait += rise_long
        waits.append((long_wait, short_wait))
    return waits


@given(instance=instances(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=100, deadline=None)
def test_two_monotone_streams_keep_one_cursor_each(instance, seed, data):
    # adapt's shape: each round a long wait, then a short one, on one arm.
    # The long query must not take the short stream's cursor (nor the other
    # way round), or a stream rebuilds.
    views, records = _replay_uniform(instance, seed)
    arm = data.draw(st.integers(0, instance.n_arms - 1))
    waits = data.draw(monotone_streams(instance.horizon))
    env = views[0]._env
    started = False
    for view, (long_wait, short_wait) in zip(views, waits):
        long_window = _brute_window(records, arm, view.t, long_wait)
        started = started or long_window[0] > 0  # the long stream builds first
        if started:
            assert view.windowed(arm, long_wait) == long_window
            assert view.windowed(arm, short_wait) == _brute_window(
                records, arm, view.t, short_wait
            )
    # Nothing is retired below _CURSORS_PER_ARM, so these are all that were built.
    assert len(env._arm_cursors[arm]) == (2 if started else 0)


def test_determinism_bit_for_bit():
    inst = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(0.3)), (Bernoulli(0.6), Geometric(0.2))],
        horizon=300,
    )
    runs = []
    for _ in range(2):
        env, trace = simulate(inst, UniformRandom(), np.random.default_rng(123))
        runs.append((env.pull_records(), trace.regret.tobytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_reward_delay_independence_audit():
    # Correlation between the reward and 1{delay <= median} over 1e5 pulls.
    n = 10**5
    inst = BanditInstance([(Bernoulli(0.5), ParetoCeil(0.5))], horizon=n)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(77)
    for _ in range(n):
        env.observe()
        env.pull(0, rng.random)
    records = env.pull_records()
    rewards = np.array([r.reward for r in records])
    delays = np.array([r.delay for r in records], dtype=np.float64)
    below_median = (delays <= 4).astype(np.float64)  # cdf(4) = 1 - 4**-0.5 = 0.5
    corr = np.corrcoef(rewards, below_median)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_pull_past_horizon_raises():
    inst = BanditInstance([_arm()], horizon=2)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    env.pull(0, rng.random)
    env.pull(0, rng.random)
    with pytest.raises(EpisodeComplete):
        env.pull(0, rng.random)
    with pytest.raises(EpisodeComplete):
        env.observe()


class _FailingDraw(BanditInstance):
    """Raises ``ArithmeticError`` at the ``k``-th call of :meth:`draw`."""

    def __init__(self, arms, horizon, k):
        super().__init__(arms, horizon)
        self.k, self.calls = k, 0

    def draw(self, arm, u, v):
        self.calls += 1
        if self.calls == self.k:
            raise ArithmeticError(f"draw {self.k}")
        return super().draw(arm, u, v)


@pytest.mark.parametrize("k", [1, 2, 3, 17, 59, 60])
def test_a_draw_that_raises_leaves_the_environment_as_the_rounds_before_it(k):
    # A draw raising at the k-th pull of the select-and-pull loop leaves the
    # episode as k - 1 rounds of the same policy and seed on a draw that never
    # fails, with the raising pull's two uniforms read from the stream.
    arms = [(Bernoulli(0.4), Geometric(0.3)), (PointMass(0.7), ParetoCeil(0.5)),
            (Bernoulli(0.6), Dirac(3))]
    T = 60
    ends = []
    for failing in (True, False):
        policy = VanillaUcb()
        policy.reset(len(arms), T)
        instance = _FailingDraw(arms, T, k) if failing else BanditInstance(arms, T)
        env, rng = DelayedBanditEnv(instance), np.random.default_rng(11)
        if failing:
            with pytest.raises(ArithmeticError, match=f"draw {k}$"):
                for _ in range(T):
                    env.pull(policy.select(env.observe(), None), rng.random)
        else:
            for _ in range(k - 1):
                env.pull(policy.select(env.observe(), None), rng.random)
            rng.random(2)
        ends.append((env.round, env.pull_records(), env.censored_count, env._calendar,
                     env._sums, rng.bit_generator.state))
    assert ends[0] == ends[1]
    assert ends[0][0] == k


@pytest.mark.parametrize("arm", [-1, 2])
def test_pull_rejects_an_arm_out_of_range_before_reading_the_stream(arm):
    env = DelayedBanditEnv(BanditInstance([_arm(), _arm()], horizon=5))
    rng = np.random.default_rng(0)
    env.pull(1, rng.random)
    read = []

    def uniform():
        read.append(None)
        return rng.random()

    before = (env.round, env.pull_counts, env.pull_records(), env.censored_count)
    with pytest.raises(RuntimeError, match=rf"arm {arm} out of range \[0, 2\) at round 2"):
        env.pull(arm, uniform)
    assert not read
    assert (env.round, env.pull_counts, env.pull_records(), env.censored_count) == before


@pytest.mark.parametrize("arm", [-1, 2])
def test_windowed_rejects_an_arm_out_of_range(arm):
    env = DelayedBanditEnv(BanditInstance([_arm(), _arm()], horizon=5))
    rng = np.random.default_rng(0)
    env.pull(0, rng.random)
    env.pull(1, rng.random)
    with pytest.raises(ValueError, match=rf"arm {arm} out of range \[0, 2\)"):
        env.observe().windowed(arm, 1)


def test_true_pseudo_regret():
    inst = BanditInstance([(Bernoulli(0.7), Dirac(0)), (Bernoulli(0.5), Dirac(0))], 20)
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    for _ in range(5):
        env.pull(0, rng.random)  # optimal arm only
    assert env.true_pseudo_regret() == 0.0
    for _ in range(10):
        env.pull(1, rng.random)
    assert env.true_pseudo_regret() == pytest.approx(2.0, abs=1e-12)  # 0.2 * 10
    single = DelayedBanditEnv(BanditInstance([_arm()], horizon=5))
    for _ in range(5):
        single.pull(0, rng.random)
    assert single.true_pseudo_regret() == 0.0


def test_pull_records_shape():
    inst = ScriptedInstance([_arm()], horizon=3, script={0: [(1.0, 0), (0.5, 7), (0.0, 1)]})
    env = DelayedBanditEnv(inst)
    rng = np.random.default_rng(0)
    for _ in range(3):
        env.pull(0, rng.random)
    recs = env.pull_records()
    assert [r.round for r in recs] == [1, 2, 3]
    assert recs[0].arrival_round == 2  # delay 0 still lands next round
    assert recs[1].arrival_round is None and recs[1].censored  # 2 + 7 > 3
    assert recs[2].arrival_round is None  # 3 + 1 = 4 > horizon
