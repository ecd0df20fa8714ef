"""The compiled index loop: equal bit for bit to both Python loops, built once, shipped."""
from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patientbandits import estimators, harness, kernel
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
from patientbandits.policies import POLICIES, DUcb, OptimisticIndex

PACKAGE = Path(kernel.__file__).parent

# Every policy that declares a constant radius exponent, or none: adapt's
# default floors keep its tail-index bound at 0 far beyond these horizons.
RADIUS_SPECS = [
    {"kind": "ucb"},
    {"kind": "patient", "alpha": 0.3},
    {"kind": "patient", "alpha": 2.0, "delta": 0.5},
    {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
]

_REWARDS = st.one_of(
    st.floats(0.0, 1.0).map(Bernoulli),
    # -0.0 is a zero reward; the others are not dyadic, so their sums are
    # inexact.
    st.sampled_from([0.0, -0.0, 0.1, 0.3, 0.7, 1.0]).map(PointMass),
)
_DELAYS = st.one_of(
    st.sampled_from([0, 1, 3, 10**30]).map(Dirac),
    # At alpha 0.005 a few percent of the draws overflow to an infinite delay.
    st.sampled_from([0.005, 0.01, 0.3, 1.0, 5.0]).map(ParetoCeil),
    st.sampled_from([1.0, 0.5, 0.1, 1e-12]).map(Geometric),
    st.builds(TwoPointMass, p=st.floats(0.0, 1.0), d0=st.integers(0, 4),
              d1=st.sampled_from([5, 40, 10**30])),
)


@st.composite
def _episodes(draw):
    arms = draw(st.lists(st.tuples(_REWARDS, _DELAYS), min_size=1, max_size=8))
    T = draw(st.integers(max(2, len(arms)), 200))  # K = T = 1 gives delta = 1, refused
    marks = draw(st.one_of(st.none(), st.sets(st.integers(1, T), min_size=1)))
    return BanditInstance(arms, T), harness._validated_checkpoints(
        None if marks is None else sorted(marks), T
    )


@pytest.fixture(scope="module", autouse=True)
def compiled():
    if kernel.load() is None:
        pytest.skip("no C compiler on this host: the kernel cannot be built")


def _row(instance, spec, seed, checkpoints):
    """``monte_carlo``'s regret row of run ``seed``: the kernel's when it takes the batch."""
    regrets = np.empty((1, len(checkpoints)))
    harness._fill_rows(regrets, instance, spec, [seed], checkpoints, 1)
    return regrets[0]


def _generic(instance, spec, seed, checkpoints):
    """The reference loop, ``pull(select(observe()))`` each round; ``(env, regret)``.

    The pulls read the generator's scalar ``random()``, and a policy that
    reads the rng draws from the same generator between them. It raises what
    ``select`` raises, at the same round.
    """
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    env = DelayedBanditEnv(instance)
    rng = np.random.default_rng(seed)
    handed = rng if policy.reads_rng else None
    regret = []
    for t in range(1, instance.horizon + 1):
        env.pull(policy.select(env.observe(), handed), rng.random)
        if t in checkpoints:
            regret.append(env.true_pseudo_regret())
    return env, regret


@st.composite
def _radius_specs(draw):
    """One of RADIUS_SPECS' kinds, with its own delta (or the default) and alpha:
    above 0.5, tiny down to the least positive float, or ucb's None."""
    spec = dict(draw(st.sampled_from(RADIUS_SPECS)))
    spec.pop("delta", None)
    delta = draw(st.one_of(st.none(), st.floats(1e-300, 1.0, exclude_max=True)))
    if delta is not None:
        spec["delta"] = delta
    if spec["kind"] == "patient":
        spec["alpha"] = draw(st.one_of(
            st.floats(0.0, 1e300, exclude_min=True), st.sampled_from([5e-324, 1e-300, 0.5])
        ))
    return spec


@given(episode=_episodes(), spec=_radius_specs(), seed=st.integers(0, 2**64 - 1))
@example(  # a sweep of 2 * 8 rounds in a horizon of 9: no index round
    episode=(BanditInstance([(Bernoulli(0.5), Dirac(1))] * 8, 9), (9,)),
    spec=RADIUS_SPECS[3], seed=0,
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_play_index_and_the_generic_loop(episode, spec, seed):
    instance, checkpoints = episode
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    (counts,), censored = kernel.index_batch(instance, policy, (instance.horizon,))(seed)
    row = _row(instance, spec, seed, checkpoints)
    python_row = harness.run_episode(
        instance, from_spec(POLICIES, spec, "policy"), seed, checkpoints
    ).regret
    env, regret = _generic(instance, spec, seed, checkpoints)
    assert row.tobytes() == python_row.tobytes() == np.array(regret).tobytes()
    assert tuple(counts.tolist()) == env.pull_counts
    assert censored == env.censored_count


def test_the_library_is_called_without_the_gil():
    # ctypes releases the GIL around a CDLL call, not a PyDLL one; kernel
    # batches on threads rely on it.
    assert type(kernel.load()) is ctypes.CDLL


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_the_prologue_runs_once_per_batch(monkeypatch, n_jobs):
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    monkeypatch.setattr(kernel, "_encode", counted(kernel._encode))
    monkeypatch.setattr(kernel, "load", counted(kernel.load))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the core count caps the workers
    instance = BanditInstance([(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), Dirac(2))], 200)
    runs = -(-harness.THREAD_ROUNDS // instance.horizon)  # on threads when n_jobs is 2
    serial = harness.monte_carlo(instance, {"kind": "ucb"}, runs=runs, master_seed=4,
                                 n_jobs=n_jobs)
    assert sorted(calls) == ["_encode", "load"]
    monkeypatch.undo()
    rows = [_generic(instance, {"kind": "ucb"}, harness.split_seed(4, i), serial.checkpoints)[1]
            for i in range(runs)]
    assert serial.regrets.tobytes() == np.array(rows).tobytes()


# Every policy whose episode has a schedule of bias exponents: loglog at two
# confidence levels, and a callable of the round that is 0 every fifth round,
# where select adds the flat bias.
SCHEDULE_SPECS = [
    {"kind": "patient", "alpha": "loglog"},
    {"kind": "patient", "alpha": "loglog", "delta": 0.5},
    {"kind": "patient", "alpha": lambda t: (t % 5) / 8},
]


@given(episode=_episodes(), spec=st.sampled_from(SCHEDULE_SPECS), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_kernel_plays_schedule_episodes_as_the_generic_loop(episode, spec, seed):
    instance, checkpoints = episode
    _assert_kernel_matches_the_generic_loop(instance, spec, seed, checkpoints)


def test_a_schedule_index_adds_the_radius_up_before_the_mean():
    # At round 3 each arm has one arrived pull, so the indices differ only in
    # the mean: low + (deviation + 2.0) is below high + (deviation + 2.0), and
    # the second arm is pulled. Summed as (mean + deviation) + 2.0 they would
    # tie, and the first arm would be kept.
    low, high = 0.60005, math.nextafter(0.60005, 1.0)
    instance = BanditInstance([(PointMass(low), Dirac(0)), (PointMass(high), Dirac(0))], 3)
    spec = {"kind": "patient", "alpha": "loglog", "delta": 0.5}
    row = _assert_kernel_matches_the_generic_loop(instance, spec, 0, (1, 2, 3))
    assert row.tolist() == [high - low] * 3


# One radius of each kind: no bias, a bias exponent below 0.5, one above it
# (taken as 0.5), and adapt's exponent 0.
_TIE_SPECS = {
    "ucb": st.just({"kind": "ucb"}),
    "patient-below-half": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True).map(
        lambda alpha: {"kind": "patient", "alpha": alpha}
    ),
    "patient-above-half": st.floats(0.5, 1e300, exclude_min=True).map(
        lambda alpha: {"kind": "patient", "alpha": alpha}
    ),
    "adapt": st.just(RADIUS_SPECS[3]),
}


@pytest.mark.parametrize("kind", sorted(_TIE_SPECS))
@given(data=st.data(), delta=st.floats(1e-300, 1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_the_kernel_radius_is_select_s_bit_for_bit(kind, data, delta):
    # Arm a pays 0, so its index at 8 pulls is its radius itself; arm b pays v,
    # chosen so that at 9 pulls its index ties that radius exactly. b leads
    # until the counts are (8, 9), and round 18 then keeps the first of the two
    # arms. A radius an ulp off in the kernel breaks the tie one way in one of
    # the two orders, and the counts differ.
    spec = dict(data.draw(_TIE_SPECS[kind]), delta=delta)
    alpha = 0.0 if kind == "adapt" else spec.get("alpha")

    def radius(n):
        r = estimators.deviation(n, delta)
        return r if alpha is None else r + estimators.delay_bias(n, alpha)

    def index_b(v):
        total = 0.0
        for _ in range(9):
            total += v
        return estimators.mu_hat(total, 9) + radius(9)

    target, lo, hi = radius(8), 0.0, 1.0  # index_b increases with v
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if index_b(mid) < target else (lo, mid)
    assume(index_b(hi) == target)
    a, b = (PointMass(0.0), Dirac(0)), (PointMass(hi), Dirac(0))
    for arms, counts in [([a, b], [[8, 9], [9, 9]]), ([b, a], [[9, 8], [10, 8]])]:
        instance = BanditInstance(arms, 18)
        policy = from_spec(POLICIES, spec, "policy")
        policy.reset(2, 18)
        assert policy.radius_index is not None
        played, _ = kernel.index_batch(instance, policy, (17, 18))(0)
        assert played.tolist() == counts
        env, _ = _generic(instance, spec, 0, (18,))
        assert list(env.pull_counts) == counts[1]


def _raising_at_7(t):
    if t == 7:
        raise RuntimeError("no exponent at round 7")
    return 0.3


# Schedules the kernel declines, so the generic loop plays them as it always has.
_DECLINED_SCHEDULES = {
    "negative": lambda t: -0.25,
    "far-negative": lambda t: -2000.0,  # n ** 2000.0 overflows in select
    "nan": lambda t: math.nan,
    "int": lambda t: t % 2,  # 0 every other round, an int
    "numpy-float": lambda t: np.float64(0.3),
    "raising": _raising_at_7,
}


@pytest.mark.parametrize("name", sorted(_DECLINED_SCHEDULES))
def test_kernel_declines_a_schedule_outside_its_exponents(name):
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(1.0)), (PointMass(0.3), Geometric(0.2)),
         (Bernoulli(0.6), TwoPointMass(p=0.3, d0=2, d1=500))],
        horizon=60,
    )
    spec = {"kind": "patient", "alpha": _DECLINED_SCHEDULES[name]}
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(3, 60)
    assert policy.radius_index is not None
    assert kernel.index_batch(instance, policy, (60,)) is None
    checkpoints = harness._validated_checkpoints(None, 60)
    try:
        _, regret = _generic(instance, spec, 5, checkpoints)
    except Exception as error:  # then monte_carlo's episode must raise the same
        with pytest.raises(type(error), match=re.escape(str(error))):
            _row(instance, spec, 5, checkpoints)
    else:
        assert _row(instance, spec, 5, checkpoints).tobytes() == (
            np.array(regret).tobytes()
        )


# Radius inputs the kernel declines: select computes with their own
# arithmetic (a float32 rounds each step), which a C double would not repeat.
_DECLINED_RADII = {
    "float32-alpha": {"kind": "patient", "alpha": np.float32(0.3)},
    "float32-delta": {"kind": "ucb", "delta": np.float32(0.01)},
    "fraction-delta": {"kind": "patient", "alpha": 0.3, "delta": Fraction(1, 100)},
}


@pytest.mark.parametrize("name", sorted(_DECLINED_RADII))
def test_kernel_declines_a_radius_it_would_not_compute_as_select_does(name):
    # Means 1e-9 apart tie in float32 sums but not in double ones.
    instance = BanditInstance([(PointMass(0.3), Dirac(0)), (PointMass(0.3 + 1e-9), Dirac(1))], 80)
    spec = _DECLINED_RADII[name]
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(2, 80)
    assert policy.radius_index is not None
    assert kernel.index_batch(instance, policy, (80,)) is None
    checkpoints = harness._validated_checkpoints(None, 80)
    _, regret = _generic(instance, spec, 5, checkpoints)
    assert _row(instance, spec, 5, checkpoints).tobytes() == (
        np.array(regret).tobytes()
    )


class _Unswept(POLICIES["ucb"]):
    init_pulls = 0  # select takes the mean of an arm with no pulls


@pytest.mark.parametrize("cls", [_Unswept], ids=lambda cls: cls.__name__)
def test_kernel_declines_a_subclass_whose_select_it_would_not_repeat(cls, monkeypatch):
    monkeypatch.setitem(POLICIES, "subclass", cls)
    spec = {"kind": "subclass"}
    instance = BanditInstance([(Bernoulli(0.4), Dirac(0)), (Bernoulli(0.6), Dirac(0))], 20)
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(2, 20)
    assert policy.radius_index is None
    assert kernel.index_batch(instance, policy, (20,)) is None
    checkpoints = harness._validated_checkpoints(None, 20)
    try:
        _, regret = _generic(instance, spec, 3, checkpoints)
    except Exception as error:  # then monte_carlo's episode must raise the same
        with pytest.raises(type(error), match=re.escape(str(error))):
            _row(instance, spec, 3, checkpoints)
    else:
        assert _row(instance, spec, 3, checkpoints).tobytes() == (
            np.array(regret).tobytes()
        )


class _NoBias(POLICIES["patient"]):
    """A patient policy whose reset drops the bias term from its params."""

    def reset(self, n_arms, horizon):
        super().reset(n_arms, horizon)
        self.params = dataclasses.replace(self.params, alpha=None)


def test_the_kernel_plays_a_subclass_with_the_params_its_reset_sets(monkeypatch):
    # select and radius_index read the same params, so the kernel takes the batch
    # and plays it without the bias term, as the generic loop does.
    monkeypatch.setitem(POLICIES, "subclass", _NoBias)
    spec, T = {"kind": "subclass", "alpha": 1e6}, 300
    instance = BanditInstance([(Bernoulli(0.4), ParetoCeil(1.0)), (Bernoulli(0.6), Dirac(3))], T)
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(2, T)
    assert policy.radius_index == (T, policy.params.delta, None)
    assert kernel.index_batch(instance, policy, (T,)) is not None
    result = harness.monte_carlo(instance, spec, runs=4, master_seed=21)
    generic = [
        harness.run_episode(instance, _NoBias(1e6), harness.split_seed(21, i)).regret
        for i in range(4)
    ]
    assert result.regrets.tobytes() == np.array(generic).tobytes()
    # With the bias term the rows differ, so these rows show that it was dropped.
    biased = harness.monte_carlo(
        instance, {"kind": "patient", "alpha": 1e6}, runs=4, master_seed=21
    )
    assert biased.regrets.tobytes() != result.regrets.tobytes()


def test_a_subclass_with_its_own_exponent_is_not_a_schedule_episode():
    class OwnExponent(POLICIES["patient"]):
        def bias_alpha(self, view):
            return 0.1 if view.t % 2 else 0.4

    policy = OwnExponent("loglog")
    policy.reset(2, 20)
    assert policy.radius_index is None
    instance = BanditInstance([(Bernoulli(0.5), Dirac(0)), (Bernoulli(0.6), Dirac(2))], 20)
    assert kernel.index_batch(instance, policy, (20,)) is None


def test_the_exponents_are_computed_once_per_schedule_and_horizon():
    calls = []

    def schedule(t):
        calls.append(t)
        return 0.25

    for K in (2, 3, 2):
        policy = POLICIES["patient"](schedule)
        policy.reset(K, 50)
        instance = BanditInstance([(Bernoulli(0.5), Dirac(1))] * K, 50)
        assert kernel.index_batch(instance, policy, (50,)) is not None
    assert calls == list(range(2, 51))


# Assumed delay CDFs for ducb. Some are 0 at small waits, which the policy
# refuses; the rest include tiny values of tau_m, down to the least positive
# float, at which every index overflows to infinity.
_DUCB_CDFS = [
    {"kind": "dirac", "d": 0},
    {"kind": "dirac", "d": 3},
    {"kind": "pareto_ceil", "alpha": 0.7},
    {"kind": "pareto_ceil", "alpha": 1e-9},
    {"kind": "geometric", "q": 1e-12},
    {"kind": "two_point", "p": 0.3, "d0": 5, "d1": 40},
    {"kind": "two_point", "p": 5e-324, "d0": 10**30, "d1": 0},
]


@st.composite
def _ducb_episodes(draw):
    instance, checkpoints = draw(_episodes())
    spec = {"kind": "ducb", "m": draw(st.integers(1, instance.horizon + 5)),
            "cdf": draw(st.sampled_from(_DUCB_CDFS))}
    try:
        from_spec(POLICIES, spec, "policy")
    except ValueError:  # the assumed CDF is 0 at m
        assume(False)
    return instance, checkpoints, spec


def _assert_kernel_matches_the_generic_loop(instance, spec, seed, checkpoints):
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    (counts,), censored = kernel.index_batch(instance, policy, (instance.horizon,))(seed)
    row = _row(instance, spec, seed, checkpoints)
    env, regret = _generic(instance, spec, seed, checkpoints)
    assert row.tobytes() == np.array(regret).tobytes()
    assert tuple(counts.tolist()) == env.pull_counts
    assert censored == env.censored_count
    return row


@given(episode=_ducb_episodes(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_kernel_plays_ducb_as_the_generic_loop(episode, seed):
    instance, checkpoints, spec = episode
    _assert_kernel_matches_the_generic_loop(instance, spec, seed, checkpoints)


def test_ducb_divides_each_window_total_as_the_python_index_does():
    # At round 3 each arm's window holds its one round-robin pull, so the two
    # indices differ only in total / (tau_m * 1). 0.685 and the next float up
    # tie there, and the first arm is kept; as (1 / (tau_m * 1)) * total they
    # would not, and the second arm would be pulled.
    low, high = 0.685, math.nextafter(0.685, 1.0)
    instance = BanditInstance([(PointMass(low), Dirac(0)), (PointMass(high), Dirac(0))], 3)
    spec = {"kind": "ducb", "m": 1, "cdf": {"kind": "two_point", "p": 0.3, "d0": 0, "d1": 10**6}}
    row = _assert_kernel_matches_the_generic_loop(instance, spec, 0, (1, 2, 3))
    assert row.tolist() == [0.0, high - low, 2 * (high - low)]


def test_a_ducb_wait_past_the_int64_range_is_round_robin_all_episode():
    # ctypes would pass 2**64 + 5 to C as 5 without a word.
    instance = BanditInstance(
        [(Bernoulli(0.3), Dirac(1)), (Bernoulli(0.9), ParetoCeil(0.5)), (PointMass(0.7), Dirac(2))],
        horizon=300,
    )
    checkpoints = harness._validated_checkpoints(None, 300)
    spec = {"kind": "ducb", "m": 2**64 + 5, "cdf": {"kind": "dirac", "d": 3}}
    row = _assert_kernel_matches_the_generic_loop(instance, spec, 9, checkpoints)
    wrapped = _row(instance, {**spec, "m": 5}, 9, checkpoints)
    assert row.tobytes() != wrapped.tobytes()
    policy = from_spec(POLICIES, spec, "policy")
    policy.reset(3, 300)
    assert kernel.index_batch(instance, policy, (300,))(9)[0].tolist() == [[100, 100, 100]]


def test_a_ducb_horizon_past_numpys_array_size_is_a_memory_error():
    # default_rng().random(2 * T) raises ValueError there, not MemoryError.
    policy = DUcb(10, Dirac(0))
    instance = BanditInstance([(Bernoulli(0.5), Dirac(0))] * 2, 2**61)
    with pytest.raises(MemoryError):
        kernel.index_batch(instance, policy, (2**61,))(0)


@given(episode=_episodes(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_kernel_plays_uniform_as_the_generic_loop(episode, seed):
    instance, checkpoints = episode
    _assert_kernel_matches_the_generic_loop(instance, {"kind": "uniform"}, seed, checkpoints)


def _uniform_oracle(instance, raws):
    """``(env, rejected, used)`` of a uniform episode read from ``raws`` by the definitions.

    The arm is the high word of ``x * K`` for the first 32-bit half ``x``
    whose product has a low word of at least ``2**32 % K``; the halves are
    taken low word first, one raw output for two. The reward and delay
    uniforms are the next two raw outputs, each ``(raw >> 11) * 2**-53``, and
    the environment files the pull. ``rejected`` counts the halves redrawn
    and ``used`` the raw outputs read; ``IndexError`` when ``raws`` run out.
    """
    K = instance.n_arms
    env = DelayedBanditEnv(instance)
    position, pending, rejected = 0, None, 0

    def raw():
        nonlocal position
        position += 1
        return raws[position - 1]

    def half():
        nonlocal pending
        if pending is None:
            value = raw()
            pending = value >> 32
            return value & 0xFFFFFFFF
        value, pending = pending, None
        return value

    for _ in range(instance.horizon):
        arm = 0
        if K > 1:
            x = half()
            while x * K % 2**32 < 2**32 % K:
                rejected += 1
                x = half()
            arm = x * K >> 32
        env.pull(arm, lambda: (raw() >> 11) * 2.0**-53)
    return env, rejected, position


def _play_uniform(instance, raws, marks):
    """``(counts, censored)`` of the library's ``play_uniform`` on exactly ``raws``."""
    laws = kernel._encode(instance)
    raws = np.array(raws, dtype=np.uint64)
    marks = np.array(marks, dtype=np.int64)
    counts = np.zeros((len(marks), instance.n_arms), dtype=np.int64)
    censored = kernel.load().play_uniform(
        instance.n_arms, instance.horizon, *[a.ctypes.data for a in laws],
        raws.ctypes.data, len(raws), len(marks), marks.ctypes.data, counts.ctypes.data,
    )
    return counts, censored


@pytest.mark.parametrize("K", [3, 5, 6, 7])
def test_play_uniform_redraws_where_lemire_rejects(K):
    # No seed reaches the redraw in practice: each draw is rejected with
    # probability (2**32 % K) / 2**32, and never for a power of 2. Here every
    # third raw output has a low word of 0, which rejects, a few are 0, which
    # rejects both halves, and every fifth has both halves at the least
    # product low word that is kept, 2**32 % K.
    instance = BanditInstance(
        [(Bernoulli(0.3 + 0.05 * i), [Dirac(1), ParetoCeil(0.3), Geometric(0.1),
                                      TwoPointMass(p=0.4, d0=2, d1=150)][i % 4])
         for i in range(K)],
        horizon=200,
    )
    raws = np.random.default_rng(K).integers(0, 2**64, size=600, dtype=np.uint64)
    edge = ((K - 1) * 2**32 + 2**32 % K) // K  # edge * K % 2**32 == 2**32 % K
    raws[2::5] = np.uint64(edge << 32 | edge)
    raws[::3] &= np.uint64(0xFFFFFFFF00000000)
    raws[1::50] = 0
    raws = raws.tolist()
    env, rejected, used = _uniform_oracle(instance, raws)
    assert rejected > 20
    counts, censored = _play_uniform(instance, raws, (50, 200))
    assert counts[-1].tolist() == list(env.pull_counts)
    assert censored == env.censored_count > 0
    with pytest.raises(IndexError):
        _uniform_oracle(instance, raws[:used - 1])
    # Exactly the raw outputs the episode reads suffice; one fewer gives the sentinel.
    assert _play_uniform(instance, raws[:used], (200,))[1] == censored
    assert _play_uniform(instance, raws[:used - 1], (200,))[1] == kernel._SHORT


def test_a_short_raw_buffer_replays_the_episode_with_the_same_bits(monkeypatch):
    # 2 * 300 uniforms and 150 raw outputs of halves: a buffer of 350 is short,
    # then one of 700, and one of 1400 is not.
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(0.3)), (PointMass(0.3), Geometric(0.2)),
         (Bernoulli(0.6), TwoPointMass(p=0.3, d0=2, d1=500))],
        horizon=300,
    )
    checkpoints = harness._validated_checkpoints(None, 300)
    expected = [_row(instance, {"kind": "uniform"}, seed, checkpoints) for seed in range(4)]
    played, play = [], kernel._played

    def counted(*args):
        played.append(args[0])
        return play(*args)

    monkeypatch.setattr(kernel, "_SLACK", -400)
    monkeypatch.setattr(kernel, "_played", counted)
    for seed in range(4):
        row = _row(instance, {"kind": "uniform"}, seed, checkpoints)
        assert row.tobytes() == expected[seed].tobytes()
    assert len(played) == 3 * 4


def test_a_uniform_horizon_past_numpys_array_size_is_a_memory_error():
    # random_raw(n) raises ValueError there, not MemoryError.
    policy = POLICIES["uniform"]()
    policy.reset(2, 2**61)
    instance = BanditInstance([(Bernoulli(0.5), Dirac(0))] * 2, 2**61)
    with pytest.raises(MemoryError):
        kernel.index_batch(instance, policy, (2**61,))(0)


def test_kernel_plays_only_plain_instances_and_table_policies():
    class Overridden(BanditInstance):
        def draw(self, arm, u, v):
            return super().draw(arm, u, v)

    class Subclassed(Bernoulli):
        pass

    class Reselecting(DUcb):
        def select(self, view, rng):
            return super().select(view, rng)

    class Redrawing(POLICIES["uniform"]):
        def select(self, view, rng):
            return super().select(view, rng)

    arms = [(Bernoulli(0.5), Dirac(0)), (Bernoulli(0.6), Dirac(2))]
    ducb = {"kind": "ducb", "m": 2, "cdf": {"kind": "dirac", "d": 0}}
    for instance, policy in [
        (BanditInstance(arms, 20), Reselecting(2, Dirac(0))),
        (BanditInstance(arms, 20), Redrawing()),
        (Overridden(arms, 20), POLICIES["ucb"]()),
        (Overridden(arms, 20), from_spec(POLICIES, ducb, "policy")),
        (Overridden(arms, 20), POLICIES["uniform"]()),
        (BanditInstance([(Subclassed(0.5), Dirac(0))] + arms, 20), POLICIES["ucb"]()),
    ]:
        policy.reset(instance.n_arms, instance.horizon)
        assert kernel.index_batch(instance, policy, (20,)) is None
    plain = [{"kind": "ucb"}, {"kind": "patient", "alpha": "loglog"}, ducb, {"kind": "uniform"}]
    for spec in plain:
        policy = from_spec(POLICIES, spec, "policy")
        policy.reset(2, 20)
        assert kernel.index_batch(BanditInstance(arms, 20), policy, (20,)) is not None


@pytest.mark.parametrize("horizon, checkpoints", [
    (30, (20,)),  # the policy was reset for another horizon
    (20, (0, 5)), (20, (5, 21)), (20, (5, 5)), (20, ()),
])
def test_kernel_refuses_a_table_or_checkpoints_that_do_not_fit(horizon, checkpoints):
    policy = POLICIES["ucb"]()
    policy.reset(2, horizon)
    instance = BanditInstance([(Bernoulli(0.5), Dirac(0))] * 2, 20)
    with pytest.raises(ValueError, match="checkpoints"):
        kernel.index_batch(instance, policy, checkpoints)


@pytest.mark.parametrize("spec", RADIUS_SPECS[:2], ids=lambda spec: spec["kind"])
def test_a_kernel_episode_builds_no_radius_table(spec):
    # The episode's 2 T uniforms are the one allocation that scales with T on
    # the Python side: a radius for every count would add T floats.
    T = 10**6
    instance = BanditInstance([(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), Dirac(2))], T)
    kernel.load()
    tracemalloc.start()
    try:
        _row(instance, spec, 3, harness._validated_checkpoints(None, T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * T + (1 << 20)


DUCB_SPECS = [
    {"kind": "ducb", "m": 50, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},
    {"kind": "ducb", "m": 3, "cdf": {"kind": "two_point", "p": 0.3, "d0": 2, "d1": 500}},
]


def _regret_bytes(instance, spec):
    return harness.monte_carlo(instance, spec, runs=3, master_seed=11).regrets.tobytes()


def test_without_a_compiler_monte_carlo_gives_the_same_bits(monkeypatch):
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(1.0)), (PointMass(0.3), Geometric(0.2)),
         (Bernoulli(0.6), TwoPointMass(p=0.3, d0=2, d1=500))],
        horizon=400,
    )
    compiled = [_regret_bytes(instance, spec) for spec in RADIUS_SPECS]
    monkeypatch.setattr(kernel, "load", lambda: None)
    in_python = []
    run_episode = harness.run_episode

    def counted(*args):
        in_python.append(args)
        return run_episode(*args)

    monkeypatch.setattr(harness, "run_episode", counted)
    assert [_regret_bytes(instance, spec) for spec in RADIUS_SPECS] == compiled
    assert len(in_python) == 3 * len(RADIUS_SPECS)


_BUILD_AND_RUN = """
import json, sys
from patientbandits import harness, kernel
from patientbandits.distributions import Bernoulli, ParetoCeil
from patientbandits.environment import BanditInstance
arms = [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), ParetoCeil(0.3))]
regrets = harness.monte_carlo(BanditInstance(arms, 300), {"kind": "ucb"}, 4, 3).regrets
print(json.dumps([kernel.load() is not None, regrets.tobytes().hex(), kernel.__file__]))
"""


def test_two_processes_building_a_cold_cache_at_once_both_load_it(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "patientbandits",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    procs = [
        subprocess.Popen([sys.executable, "-c", _BUILD_AND_RUN], env=env, cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outputs]
    arms = [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), ParetoCeil(0.3))]
    expected = harness.monte_carlo(BanditInstance(arms, 300), {"kind": "ucb"}, 4, 3).regrets
    for out, _ in outputs:
        loaded, regrets, where = json.loads(out)
        assert loaded and Path(where).parent == tmp_path / "patientbandits"
        assert regrets == expected.tobytes().hex()
    cache = sorted(p.name for p in (tmp_path / "patientbandits" / "__pycache__").iterdir())
    assert len(cache) == 1 and cache[0].startswith("index_kernel-") and cache[0].endswith(".so")


def test_the_kernel_source_ships_in_the_built_package(tmp_path):
    project = Path(__file__).resolve().parent.parent
    copy = tmp_path / "project"
    copy.mkdir()
    shutil.copy(project / "pyproject.toml", copy)
    shutil.copytree(project / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "build_py", "--build-lib", str(tmp_path / "lib")],
        cwd=copy, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lib" / "patientbandits" / kernel.SOURCE.name).read_bytes() == (
        kernel.SOURCE.read_bytes()
    )


def test_the_kernel_source_compiles_without_warnings():
    # Stricter than kernel.FLAGS, which key the build cache and set how the
    # kernel is built. The module's fixture has found a compiler.
    compiler = shutil.which("cc") or shutil.which("gcc")
    done = subprocess.run(
        [compiler, "-fsyntax-only", "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
         "-Wconversion", "-Werror", str(kernel.SOURCE)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def _assert_the_generic_loop_gives_the_same_bits_without_a_compiler(monkeypatch, specs, cls):
    """Without the library, every round of every run calls ``cls.select``, and no bit moves."""
    instance = BanditInstance(
        [(Bernoulli(0.5), ParetoCeil(1.0)), (PointMass(0.3), Geometric(0.2)),
         (Bernoulli(0.6), TwoPointMass(p=0.3, d0=2, d1=500))],
        horizon=400,
    )
    compiled = [_regret_bytes(instance, spec) for spec in specs]
    monkeypatch.setattr(kernel, "load", lambda: None)
    selected = []
    select = cls.select

    def counted(policy, view, rng):
        selected.append(view.t)
        return select(policy, view, rng)

    monkeypatch.setattr(cls, "select", counted)
    assert [_regret_bytes(instance, spec) for spec in specs] == compiled
    assert len(selected) == 3 * 400 * len(specs)


def test_without_a_compiler_ducb_gives_the_same_bits_in_the_generic_loop(monkeypatch):
    _assert_the_generic_loop_gives_the_same_bits_without_a_compiler(monkeypatch, DUCB_SPECS, DUcb)


def test_without_a_compiler_uniform_gives_the_same_bits_in_the_generic_loop(monkeypatch):
    _assert_the_generic_loop_gives_the_same_bits_without_a_compiler(
        monkeypatch, [{"kind": "uniform"}], POLICIES["uniform"]
    )


def test_without_a_compiler_loglog_gives_the_same_bits_in_the_generic_loop(monkeypatch):
    # Patched where it is defined, so that no policy overrides it.
    _assert_the_generic_loop_gives_the_same_bits_without_a_compiler(
        monkeypatch, SCHEDULE_SPECS[:2], OptimisticIndex
    )
