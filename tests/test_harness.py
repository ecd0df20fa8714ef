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
    # n_jobs=0 means one worker per CPU: the 2-worker pool again on a 2-CPU host.
    assert pool_starts == sorted({2, os.cpu_count() or 1} - {1})


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
    trace = run_episode(
        inst,
        AdaptPatientBandits(c=1.0, alpha_floor=0.2, mu_floor=0.4),
        seed=2,
    )
    bars = trace.diagnostics["alpha_bar"]
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
        env.pull(policy.select(env.observe(), rng), rng)
        if t in checkpoints:
            regret.append(env.true_pseudo_regret())
    return env, regret


def _assert_matches_interleaved(make_instance, make_policy, seed, checkpoints=None):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    env, trace = simulate(make_instance(), make_policy(), rng, checkpoints)
    reference_env, regret = _interleaved(
        make_instance(), make_policy(), reference_rng, trace.checkpoints
    )
    assert trace.regret.tolist() == regret
    assert env.pull_records() == reference_env.pull_records()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_specs_cover_every_policy_tag():
    assert set(SPECS) == set(POLICIES)


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
    arms = draw(st.lists(st.tuples(_REWARDS, _DELAYS), min_size=1, max_size=3))
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


def test_block_policy_is_handed_no_generator():
    class SecretlyRandom(VanillaUcb):
        def select(self, view, rng):
            return int(rng.random() * len(view.counts))

    with pytest.raises(AttributeError):
        run_episode(GAP_INSTANCE, SecretlyRandom(), seed=0)


class _Greedy(BanditInstance):
    def draw(self, arm, rng):
        rng.random()
        return super().draw(arm, rng)


class _Frugal(BanditInstance):
    def draw(self, arm, rng):
        return 1.0, int(rng.random() * 3)


@pytest.mark.parametrize("kind", [_Greedy, _Frugal])
def test_block_refuses_a_draw_that_reads_other_than_two_uniforms(kind):
    instance = kind([(Bernoulli(0.5), Dirac(1)), (Bernoulli(0.6), Dirac(1))], 100)
    with pytest.raises(RuntimeError, match="exactly two uniforms"):
        run_episode(instance, VanillaUcb(), seed=1)
    run_episode(instance, UniformRandom(), seed=1)  # the generator itself is not policed
