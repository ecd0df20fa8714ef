"""Harness: seeding, checkpoints, aggregation, determinism, parallel equality."""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedInstance
from patientbandits import harness
from patientbandits.distributions import (
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
    from_spec,
)
from patientbandits.environment import BanditInstance, DelayedBanditEnv
from patientbandits.harness import (
    default_checkpoints,
    monte_carlo,
    run_episode,
    simulate,
    split_seed,
)
from patientbandits.policies import (
    POLICIES,
    AdaptPatientBandits,
    Policy,
    UniformRandom,
    VanillaUcb,
)
from patientbandits.theory import make_coupled_pair

GAP_INSTANCE = BanditInstance(
    [(Bernoulli(0.7), Dirac(0)), (Bernoulli(0.5), Dirac(0))], horizon=1000
)


def test_split_seed_is_a_stable_64_bit_mix():
    seeds = [split_seed(12345, i) for i in range(2000)]
    assert len(set(seeds)) == 2000
    assert all(0 <= s < 2**64 for s in seeds)
    assert split_seed(12345, 17) == split_seed(12345, 17)
    assert split_seed(12345, 17) != split_seed(12346, 17)
    with pytest.raises(ValueError):
        split_seed(1, -1)


def test_default_checkpoints_shape():
    cps = default_checkpoints(3000)
    assert cps[-1] == 3000
    assert cps[0] >= 1
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert len(cps) <= 100
    assert default_checkpoints(10) == tuple(range(1, 11))


def test_single_arm_episode_has_zero_regret():
    inst = BanditInstance([(Bernoulli(0.5), ParetoCeil(0.4))], horizon=200)
    trace = run_episode(inst, UniformRandom(), seed=3)
    assert np.all(trace.regret == 0.0)
    assert trace.pull_counts == (200,)


def test_episode_determinism():
    inst = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(0.3)), (Bernoulli(0.6), Geometric(0.1))], 500
    )
    a = run_episode(inst, UniformRandom(), seed=11)
    b = run_episode(inst, UniformRandom(), seed=11)
    assert a.checkpoints == b.checkpoints
    assert np.array_equal(a.regret, b.regret)
    assert a.pull_counts == b.pull_counts


def test_trace_invariants():
    trace = run_episode(GAP_INSTANCE, UniformRandom(), seed=5)
    assert np.all(np.diff(trace.regret) >= 0.0)
    assert trace.regret[-1] <= GAP_INSTANCE.horizon * max(GAP_INSTANCE.gaps)
    assert sum(trace.pull_counts) == GAP_INSTANCE.horizon


def test_conservation_and_regret_recomputation():
    env, trace = simulate(
        GAP_INSTANCE, UniformRandom(), np.random.default_rng(8), checkpoints=[1, 10, 500, 1000]
    )
    records = env.pull_records()
    arms = np.array([r.arm for r in records])
    for cp, regret in zip(trace.checkpoints, trace.regret):
        counts = np.bincount(arms[:cp], minlength=2)
        assert counts.sum() == cp
        assert regret == pytest.approx(float(counts[1]) * 0.2, abs=1e-12)


def test_uniform_random_expected_regret():
    # E[regret] = 0.2 * T / 2 = 100 on the gap-0.2 instance.
    res = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=500, master_seed=21,
                      checkpoints=[1000])
    assert abs(res.final_mean - 100.0) <= 3.0 * res.final_stderr


def test_single_run_aggregation():
    res = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=1, master_seed=4)
    trace = run_episode(GAP_INSTANCE, UniformRandom(), seed=split_seed(4, 0))
    assert np.array_equal(res.mean, trace.regret)
    assert np.all(res.stderr == 0.0)


def test_monte_carlo_rows_match_individual_runs():
    res = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=6, master_seed=9,
                      checkpoints=[100, 1000])
    for i in reversed(range(6)):  # order of execution is immaterial
        trace = run_episode(
            GAP_INSTANCE, UniformRandom(), split_seed(9, i), [100, 1000]
        )
        assert np.array_equal(res.regrets[i], trace.regret)


def test_parallel_matches_serial_bitwise():
    serial = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=12, master_seed=13)
    parallel = monte_carlo(
        GAP_INSTANCE, {"kind": "uniform"}, runs=12, master_seed=13, n_jobs=2
    )
    assert np.array_equal(serial.regrets, parallel.regrets)
    assert serial.mean.tobytes() == parallel.mean.tobytes()
    assert serial.stderr.tobytes() == parallel.stderr.tobytes()


# Configs run one after another in one process, as a preset does.
POOLED_CONFIGS = [
    (GAP_INSTANCE, {"kind": "uniform"}),  # draws its arms from the generator
    (BanditInstance([(Bernoulli(0.4), ParetoCeil(0.5)), (Bernoulli(0.6), Geometric(0.3)),
                     (Bernoulli(0.5), Dirac(2))], 300),
     {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.4}),
    (BanditInstance([(Bernoulli(0.3 + 0.1 * i), TwoPointMass(0.5, 1, 40)) for i in range(4)], 300),
     {"kind": "ducb", "m": 3, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}),
]


@pytest.fixture
def pool_starts(monkeypatch):
    """Shut the process's pools down, then list the worker count of each pool started."""
    harness._shutdown_pools()
    starts = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Counted)
    return starts


def test_one_pool_serves_a_sequence_of_configs(pool_starts):
    for n_jobs in (2, 0):
        for instance, spec in POOLED_CONFIGS:
            serial = monte_carlo(instance, spec, runs=5, master_seed=3)
            pooled = monte_carlo(instance, spec, runs=5, master_seed=3, n_jobs=n_jobs)
            assert pooled.regrets.tobytes() == serial.regrets.tobytes()
    # n_jobs=0 means one worker per CPU, but no more than the 5 runs: the
    # 2-worker pool again on a 2-CPU host.
    assert pool_starts == sorted({2, min(os.cpu_count() or 1, 5)} - {1})


@pytest.mark.parametrize("n_jobs", [64, 0, -1])
def test_no_more_workers_than_runs(monkeypatch, n_jobs):
    """A pool is asked for at most ``runs`` workers; the recording stand-in starts no process."""
    asked = []

    class Recording:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, payloads, chunksize):
            return map(fn, payloads)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(harness, "_pools", {})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    serial = monte_carlo(GAP_INSTANCE, {"kind": "ucb"}, runs=2, master_seed=6)
    capped = monte_carlo(GAP_INSTANCE, {"kind": "ucb"}, runs=2, master_seed=6, n_jobs=n_jobs)
    assert asked == [2] and list(harness._pools) == [2]
    assert capped.regrets.tobytes() == serial.regrets.tobytes()


def test_a_single_run_starts_no_pool(pool_starts):
    res = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=1, master_seed=4, n_jobs=2)
    assert res.regrets.shape[0] == 1
    assert pool_starts == [] and harness._pools == {}


def test_a_broken_pool_is_replaced(pool_starts):
    instance, spec = POOLED_CONFIGS[1]
    serial = monte_carlo(instance, spec, runs=6, master_seed=8)
    monte_carlo(instance, spec, runs=6, master_seed=8, n_jobs=2)
    pool = harness._pools[2]
    pid, worker = next(iter(pool._processes.items()))
    os.kill(pid, signal.SIGKILL)
    assert wait([worker.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        monte_carlo(instance, spec, runs=6, master_seed=8, n_jobs=2)
    assert 2 not in harness._pools
    again = monte_carlo(instance, spec, runs=6, master_seed=8, n_jobs=2)
    assert harness._pools[2] is not pool
    assert again.regrets.tobytes() == serial.regrets.tobytes()
    assert pool_starts == [2, 2]


def test_a_forked_child_starts_its_own_pool():
    instance, spec = POOLED_CONFIGS[2]
    serial = monte_carlo(instance, spec, runs=6, master_seed=5)
    monte_carlo(instance, spec, runs=6, master_seed=5, n_jobs=2)  # the parent's pool exists
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        try:
            child = monte_carlo(instance, spec, runs=6, master_seed=5, n_jobs=2)
            harness._shutdown_pools()
            os._exit(0 if child.regrets.tobytes() == serial.regrets.tobytes() else 2)
        finally:
            os._exit(1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("monte_carlo hung in a child forked after the pool started")
    assert os.waitstatus_to_exitcode(done[1]) == 0


_LEAVES_NOTHING_RUNNING = """
import multiprocessing, threading
import patientbandits
from patientbandits import harness
assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
assert not multiprocessing.active_children() and not harness._pools
instance = patientbandits.BanditInstance(
    [(patientbandits.Bernoulli(0.7), patientbandits.Dirac(0)),
     (patientbandits.Bernoulli(0.5), patientbandits.Dirac(0))], 100)
harness.monte_carlo(instance, {"kind": "ucb"}, runs=4, master_seed=1, n_jobs=2)
print(*harness._pools[2]._processes)
"""


def test_import_is_lazy_and_exit_leaves_no_worker_running():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _LEAVES_NOTHING_RUNNING], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_stderr_shrinks_with_doubled_runs():
    half = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=200, master_seed=31,
                       checkpoints=[1000])
    full = monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=400, master_seed=31,
                       checkpoints=[1000])
    ratio = half.final_stderr / full.final_stderr
    assert 1.2 <= ratio <= 1.7  # around sqrt(2)


def test_out_of_range_policy_aborts():
    class Rogue(Policy):
        label = "rogue"

        def reset(self, n_arms, horizon):
            pass

        def select(self, view, rng):
            return 99

    with pytest.raises(RuntimeError, match="out of range"):
        run_episode(GAP_INSTANCE, Rogue(), seed=0)


def test_checkpoint_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        run_episode(GAP_INSTANCE, UniformRandom(), 0, checkpoints=[10, 10])
    with pytest.raises(ValueError, match="lie in"):
        run_episode(GAP_INSTANCE, UniformRandom(), 0, checkpoints=[0, 10])
    with pytest.raises(ValueError, match="lie in"):
        run_episode(GAP_INSTANCE, UniformRandom(), 0, checkpoints=[10, 2000])
    with pytest.raises(ValueError, match="integer"):
        run_episode(GAP_INSTANCE, UniformRandom(), 0, checkpoints=[2.5, 10])
    with pytest.raises(ValueError, match="runs"):
        monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=0, master_seed=1)


def test_worker_count_below_minus_one_rejected():
    with pytest.raises(ValueError, match="n_jobs"):
        monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, runs=2, master_seed=1, n_jobs=-3)


@pytest.mark.parametrize(
    "name, value",
    [("runs", True), ("runs", 2.0), ("runs", "2"), ("master_seed", 1.5),
     ("master_seed", True), ("n_jobs", 1.0), ("n_jobs", True)],
)
def test_monte_carlo_counts_must_be_integers(name, value):
    kwargs = {"runs": 2, "master_seed": 1, "n_jobs": 1, name: value}
    with pytest.raises(ValueError, match=name):
        monte_carlo(GAP_INSTANCE, {"kind": "uniform"}, **kwargs)


def test_adapt_diagnostics_recorded():
    inst = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(0.5)), (Bernoulli(0.7), ParetoCeil(0.5))], 300
    )
    policy = AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.4)
    run_episode(inst, policy, seed=2)
    bars = np.asarray(policy.alpha_bar_history)
    assert bars.shape == (300 - 4,)
    assert np.all((bars >= 0.0) & (bars <= 0.5))


# One or more specs per config tag; every tag must appear.
SPECS = {
    "patient": [{"kind": "patient", "alpha": 0.3}, {"kind": "patient", "alpha": "loglog"}],
    "adapt": [
        {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
        {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 8.0, "delta": 0.5},
    ],
    "ducb": [{"kind": "ducb", "m": 3, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}],
    "ucb": [{"kind": "ucb"}],
    "uniform": [{"kind": "uniform"}],
}
ALL_SPECS = [spec for specs in SPECS.values() for spec in specs]


def _interleaved(instance, policy, rng, checkpoints):
    """The reference loop: the generator itself goes to ``select`` and ``pull`` each round."""
    policy.reset(instance.n_arms, instance.horizon)
    env = DelayedBanditEnv(instance)
    regret = []
    for t in range(1, instance.horizon + 1):
        env.pull(policy.select(env.observe(), rng), rng.random)
        if t in checkpoints:
            regret.append(env.true_pseudo_regret())
    return env, regret


def _assert_matches_interleaved(make_instance, make_policy, seed, checkpoints=None):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    policy = make_policy()
    env, trace = simulate(make_instance(), policy, rng, checkpoints)
    reference_policy = make_policy()
    reference_env, regret = _interleaved(
        make_instance(), reference_policy, reference_rng, trace.checkpoints
    )
    assert trace.regret.tolist() == regret
    assert env.pull_records() == reference_env.pull_records()
    assert env.censored_count == reference_env.censored_count
    assert env.pull_counts == reference_env.pull_counts
    # Filed alike: no zero reward in the calendar, the rest in pull order.
    assert env._calendar == reference_env._calendar
    history = getattr(reference_policy, "alpha_bar_history", None)
    assert (getattr(policy, "alpha_bar_history", None) is None) == (history is None)
    if history is not None:
        assert np.array(policy.alpha_bar_history).tobytes() == np.array(history).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_specs_cover_every_policy_tag():
    assert set(SPECS) == set(POLICIES)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec["kind"])
def test_simulate_calls_select_on_every_round(spec):
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), ParetoCeil(0.3))], 200
    )
    policy = from_spec(POLICIES, spec, "policy")
    select, calls = policy.select, []

    def counted(view, rng):
        calls.append(view.t)
        return select(view, rng)

    policy.select = counted
    simulate(instance, policy, np.random.default_rng(3))
    assert calls == list(range(1, 201))


_REWARDS = st.one_of(
    st.floats(0.0, 1.0).map(Bernoulli), st.sampled_from([0.0, 0.25, 1.0]).map(PointMass)
)
_DELAYS = st.one_of(
    st.integers(0, 5).map(Dirac),
    st.sampled_from([0.2, 0.5, 1.0]).map(ParetoCeil),
    st.sampled_from([0.1, 0.5]).map(Geometric),
    st.builds(TwoPointMass, p=st.floats(0.0, 1.0), d0=st.integers(0, 3), d1=st.integers(4, 90)),
)


@st.composite
def _episodes(draw):
    arms = draw(st.lists(st.tuples(_REWARDS, _DELAYS), min_size=1, max_size=8))
    T = draw(st.integers(max(2, len(arms)), 60))  # K = T = 1 gives delta = 1, refused
    marks = draw(st.one_of(st.none(), st.sets(st.integers(1, T), min_size=1)))
    return BanditInstance(arms, T), None if marks is None else sorted(marks)


@given(
    episode=_episodes(),
    spec=st.sampled_from(ALL_SPECS),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=150, deadline=None)
def test_simulate_matches_the_interleaved_loop(episode, spec, seed):
    instance, checkpoints = episode
    _assert_matches_interleaved(
        lambda: instance, lambda: from_spec(POLICIES, spec, "policy"), seed, checkpoints
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec["kind"])
def test_coupled_and_scripted_instances_match_the_interleaved_loop(spec):
    make_policy = lambda: from_spec(POLICIES, spec, "policy")  # noqa: E731
    for instance in make_coupled_pair(60, alpha=0.5):
        for k in range(3):
            _assert_matches_interleaved(lambda: instance, make_policy, split_seed(7, k))
    script = {0: [(1.0, 2), (0.0, 0)] * 30, 1: [(0.0, 1), (1.0, 70)] * 30}
    _assert_matches_interleaved(  # each episode consumes its own copy of the script
        lambda: ScriptedInstance([(Bernoulli(0.5), Dirac(0))] * 2, 60, script), make_policy, 5
    )


class _AdaptWithThreshold(AdaptPatientBandits):
    """The pinned adapt(alpha_bar>0) floors, whose bound read at T - 1 pulls can be
    positive, with the pull count where it can turn positive moved to ``T + shift``."""

    def __init__(self, shift):
        super().__init__(c=1.0, alpha_floor=0.2, mu_floor=8.0, delta=0.5)
        self.shift = shift

    def reset(self, n_arms, horizon):
        super().reset(n_arms, horizon)
        self._alpha_bar_threshold = horizon + self.shift


@pytest.mark.parametrize("shift", [-1, 0])
@pytest.mark.parametrize("arms", [1, 2])
def test_adapt_takes_the_table_loop_only_when_its_leader_stays_below_the_threshold(shift, arms):
    # The table loop is the kernel's index loop, which now computes the radius it once
    # read from a table: adapt declares ``radius_index`` for it only below its threshold.
    # The leader has at most T - 1 pulls, which a one-arm episode reaches on its last round.
    instance = BanditInstance([(Bernoulli(0.6), ParetoCeil(0.5))] * arms, 50)
    policy = _AdaptWithThreshold(shift)
    policy.reset(arms, 50)
    assert (policy.radius_index is None) == (shift < 0)
    for seed in range(3):
        _assert_matches_interleaved(lambda: instance, lambda: _AdaptWithThreshold(shift), seed)


class _Coin(Policy):
    """Draws its arm from the generator and declares nothing."""

    label = "coin"

    def reset(self, n_arms, horizon):
        self.n_arms = n_arms

    def select(self, view, rng):
        return int(rng.random() * self.n_arms)


def test_undeclared_policy_keeps_the_interleaved_order():
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(0.5)), (Bernoulli(0.6), Geometric(0.3))], 200
    )
    for seed in range(5):
        _assert_matches_interleaved(lambda: instance, _Coin, seed)


class _Recorded(BanditInstance):
    """A plain instance that records the uniforms each pull reads."""

    def draw(self, arm, u, v):
        self.uniforms += (u, v)
        return super().draw(arm, u, v)


@pytest.mark.parametrize("spec", [
    {"kind": "ucb"},  # a table policy
    {"kind": "ducb", "m": 20, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},  # a window policy
])
def test_uniforms_drawn_in_chunks_equal_one_block_in_bits_and_state(spec):
    # 2T spans three chunks, the last one short.
    T = harness._CHUNK + 1000
    instance = _Recorded([(Bernoulli(0.5), ParetoCeil(1.0)), (PointMass(0.3), Geometric(0.2))], T)
    instance.uniforms = []
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    simulate(instance, from_spec(POLICIES, spec, "policy"), rng, (T,))
    assert instance.uniforms == reference.random(2 * T).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_block_policy_is_handed_no_generator():
    class SecretlyRandom(VanillaUcb):
        def select(self, view, rng):
            return int(rng.random() * len(view.counts))

    with pytest.raises(AttributeError):
        run_episode(GAP_INSTANCE, SecretlyRandom(), seed=0)


# One draw of the stream oracle: None is random(), an int n is integers(n).
# n near 3 * 2**30 has a rejection bound of 2**30, so a quarter of its
# draws are redrawn.
_STREAM_DRAWS = st.lists(
    st.one_of(
        st.none(),
        st.integers(1, 8),
        st.integers(1, 2**32 - 1),
        st.integers(3 * 2**30 - 2**10, 3 * 2**30 + 2**10),
    ),
    max_size=40,
)


@given(
    seed=st.integers(0, 2**64 - 1),
    pre_draws=st.integers(0, 3),
    block=st.integers(1, 3),
    draws=_STREAM_DRAWS,
)
@settings(max_examples=300, deadline=None)
def test_stream_matches_the_generator_bit_for_bit(seed, pre_draws, block, draws):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(pre_draws):  # integers(2) never redraws: odd counts leave a half pending
        rng.integers(2)
        reference.integers(2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_BLOCK", block)  # block boundaries fall mid-episode
        stream = harness._Stream(rng)
        for n in draws:
            if n is None:
                assert stream.random().hex() == reference.random().hex()
            else:
                assert stream.integers(n) == int(reference.integers(n))
        stream.close()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_stream_redraws_where_lemire_rejects():
    rng, reference = np.random.default_rng(4), np.random.default_rng(4)
    stream = harness._Stream(rng)
    n = 3 * 2**30
    assert [stream.integers(n) for _ in range(200)] == reference.integers(n, size=200).tolist()
    stream.close()
    assert rng.bit_generator.state == reference.bit_generator.state
    # 200 draws without a redraw would take 100 raw outputs.
    used = np.random.default_rng(4).bit_generator
    used.advance(100)
    assert rng.bit_generator.state["state"] != used.state["state"]


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_stream_refuses_a_bound_outside_32_bits(n):
    rng = np.random.default_rng(1)
    stream = harness._Stream(rng)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream.integers(n)
    stream.close()
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


@st.composite
def _uniform_instances(draw):
    arms = draw(st.lists(st.tuples(_REWARDS, _DELAYS), min_size=1, max_size=8))
    return BanditInstance(arms, draw(st.integers(len(arms), 300)))


@given(instance=_uniform_instances(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_uniform_episode_matches_the_brute_force_loop(instance, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    T = instance.horizon
    env, trace = simulate(instance, UniformRandom(), rng, range(1, T + 1))
    reference = DelayedBanditEnv(instance)
    regret = []
    for _ in range(T):  # K = 1 draws no arm: integers(1) reads nothing
        reference.pull(int(reference_rng.integers(instance.n_arms)), reference_rng.random)
        regret.append(reference.true_pseudo_regret())
    assert env.pull_records() == reference.pull_records()
    assert trace.regret.tobytes() == np.array(regret).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_policy_that_reads_the_rng_needs_pcg64():
    class Recorded(BanditInstance):
        def draw(self, arm, u, v):
            pulls.append(arm)
            return super().draw(arm, u, v)

    def mersenne():
        return np.random.Generator(np.random.MT19937(5))

    def next_raws(rng):  # MT19937's state holds an array; its next outputs compare plainly
        return rng.bit_generator.random_raw(4).tolist()

    pulls = []
    instance = Recorded(GAP_INSTANCE.arms, 50)
    rng = mersenne()
    with pytest.raises(TypeError, match="PCG64"):
        simulate(instance, UniformRandom(), rng)
    assert pulls == [] and next_raws(rng) == next_raws(mersenne())
    # The block of an index policy is read from any generator.
    rng, reference_rng = mersenne(), mersenne()
    env, trace = simulate(instance, VanillaUcb(), rng)
    reference_env, regret = _interleaved(instance, VanillaUcb(), reference_rng, trace.checkpoints)
    assert trace.regret.tolist() == regret
    assert env.pull_records() == reference_env.pull_records()
    assert next_raws(rng) == next_raws(reference_rng)


def test_episode_that_raises_leaves_the_generator_where_the_scalar_calls_did():
    class RogueAtFive(UniformRandom):
        def select(self, view, rng):
            arm = super().select(view, rng)
            return 99 if view.t == 5 else arm

    rng, reference_rng = np.random.default_rng(6), np.random.default_rng(6)
    with pytest.raises(RuntimeError, match="out of range"):
        simulate(GAP_INSTANCE, RogueAtFive(), rng)
    with pytest.raises(RuntimeError, match="out of range"):
        _interleaved(GAP_INSTANCE, RogueAtFive(), reference_rng, ())
    assert rng.bit_generator.state == reference_rng.bit_generator.state
