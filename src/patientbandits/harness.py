"""Episode execution and Monte Carlo replication with deterministic seeding.

Reproducibility contract: run ``i`` of a batch uses the generator seeded
with ``split_seed(master_seed, i)`` (a splitmix64 counter hash), and within
a run the draw order is fixed — any policy randomness first, then one
reward and one delay per pull. Replications are independent, so they can
run in worker processes; results are reduced in run-index order and are
bitwise identical to a serial pass.

A policy whose ``select`` never draws (``Policy.reads_rng`` false: every
index policy) leaves the pulls as the stream's only reader, so the episode's
``2 T`` uniforms are drawn ``_CHUNK`` at a time (the last block shorter),
``rng.random(n)`` when the pulls reach a block, and each pull reads its two
from the blocks' chained iterator. The blocks hold the same values in the
same order as ``2 T`` scalar calls and leave the generator in the same
state, so no regret bit changes; the episode holds one block as a list,
about 2 MB, whatever its horizon. A policy that reads the rng (``uniform``)
draws its arm between pulls, so ``select`` and the pulls share one
``_Stream``: it reads the generator's PCG64 raw outputs in blocks of a
fixed size and returns what the generator's scalar ``random()`` and
``integers(n)`` calls would, in the same order, and it leaves the generator
in the same state at the end. Such a policy needs a Generator over PCG64
(``default_rng``); ``simulate`` refuses any other with ``TypeError``.

An episode runs on one of two engines, which give the same bits. Two
kinds of policy declare the shape of their whole episode. An optimistic
index whose radius is ``deviation + delay_bias`` at an exponent that is
none, fixed or a schedule of the round declares the radius's horizon,
``delta`` and ``alpha`` as ``Policy.radius_index`` (``ucb``, ``patient``
with a float α or ``loglog``, and ``adapt`` when its tail-index bound is
provably 0 all episode). ``ducb`` declares its fixed wait and de-biasing
factor as ``Policy.window_index``.

- ``monte_carlo`` plays an episode of either kind in the compiled kernel
  (:mod:`.kernel`) when the instance does not override ``draw``, every law
  is one of the six built-in ones, the kernel's library can be had, ``delta``
  is a float, and the exponent, at every round for a schedule, is a float
  in [0, 0.5]. It
  returns pull counts per checkpoint, and the regret row is computed from
  them by :func:`.environment.pseudo_regret`. Any other episode goes to
  ``run_episode``.
- ``simulate``, and so ``run_episode``, plays every episode in the generic
  loop, ``env.pull(policy.select(env.observe(), rng), uniform)``, since its
  caller gets the environment the episode filled.

The kernel is compiled with the host's ``cc`` on the first episode that
could use it, never at import, and cached in the package's ``__pycache__``
(see :mod:`.kernel`). Without a compiler, or when the build fails, every
episode runs the generic loop. The generic loop is the reference: the
tests hold the kernel to it bit for bit. Because both engines give the same
numbers, there is no option to choose one; only the speed would change.

Worker pools live as long as the process. ``monte_carlo`` starts a pool of
``n`` workers the first time it is asked for ``n`` (0 and -1 resolve to
``os.cpu_count()``, and no count exceeds the batch's ``runs``), and every
later call with that count reuses it, so a loop over many small configs pays
the start-up once. Importing the package starts nothing. The workers are
forked (the default start method on Linux) when the pool is first used, and
keep the parent's module state as it was at that moment: a module attribute
patched afterwards is not seen by them.
The pools are shut down, and their workers joined, when the interpreter
exits normally; ``os._exit`` skips that. A pool that breaks, for example
because a worker was killed, raises ``BrokenProcessPool`` once and is
dropped, so the next call starts a fresh one. A forked child forgets the
pools it inherited (their manager threads do not exist in it) and starts
its own on first use. A batch of one run, or a count of one worker, runs in
the calling process.
"""
from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import kernel
from .distributions import check_int, from_spec
from .environment import BanditInstance, DelayedBanditEnv, pseudo_regret
from .policies import POLICIES, Policy

_MASK64 = (1 << 64) - 1


def split_seed(master_seed: int, run_index: int) -> int:
    """Derive the seed of run ``run_index`` from the master seed (splitmix64)."""
    if run_index < 0:
        raise ValueError(f"run_index must be nonnegative, got {run_index}")
    z = (master_seed + (run_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def default_checkpoints(horizon: int, n: int = 100) -> Tuple[int, ...]:
    """Geometrically spaced recording rounds, densest early, always ending at T."""
    points = np.unique(np.geomspace(1, horizon, num=n).round().astype(int))
    return tuple(int(p) for p in points)


@dataclass
class RegretTrace:
    """One episode's pseudo-regret curve sampled at fixed checkpoints."""

    checkpoints: Tuple[int, ...]
    regret: np.ndarray
    pull_counts: Tuple[int, ...]


@dataclass
class MonteCarloResult:
    """Replicated regret curves: per-checkpoint mean and standard error.

    ``regrets`` keeps the full run-by-checkpoint matrix (row = run index)
    so downstream statistics never need a re-simulation.
    """

    checkpoints: Tuple[int, ...]
    mean: np.ndarray
    stderr: np.ndarray
    runs: int
    master_seed: int
    regrets: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])


def _validated_checkpoints(checkpoints, horizon) -> Tuple[int, ...]:
    if checkpoints is None:
        return default_checkpoints(horizon)
    cps = tuple(int(check_int("checkpoint", c)) for c in checkpoints)
    if not cps:
        raise ValueError("checkpoints must be nonempty")
    if any(c < 1 or c > horizon for c in cps):
        raise ValueError(f"checkpoints must lie in [1, {horizon}]")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return cps


# Raw outputs a ``_Stream`` draws from its generator at a time.
_BLOCK = 1024
# Uniforms ``simulate`` draws at a time for a policy that does not read the rng.
_CHUNK = 65536


class _Stream:
    """The episode's PCG64 generator, for a policy that reads it, read in raw blocks.

    ``random()`` and ``integers(n)`` return what the generator's own
    ``random()`` and ``integers(n)`` would, bit for bit and in the same
    order. A double is ``(raw >> 11) * 2**-53``. An integer below ``n`` is
    Lemire's bounded multiply on a 32-bit half: ``m = u * n``, redrawn while
    ``m``'s low word is below ``(2**32 - n) % n`` (a bound computed only when
    that word is below ``n``), and its high word returned; ``n == 1`` draws
    nothing. The halves come as numpy deals them: the low word of a fresh raw
    output, its high word kept for the next call (PCG64's
    ``has_uint32``/``uinteger``, read from the generator's state at the start).

    Raw outputs are drawn ``_BLOCK`` at a time with ``random_raw``, so an
    episode holds one block whatever its horizon. :meth:`close` sets the
    generator to its start state advanced by the raw outputs used, with the
    stream's buffer, which is where the scalar calls would have left it.
    """

    def __init__(self, rng):
        bit_generator = getattr(rng, "bit_generator", None)
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "a policy that reads the rng needs a Generator over PCG64 "
                f"(such as numpy.random.default_rng), got {rng!r}"
            )
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._has_uint32 = self._start["has_uint32"]
        self._uinteger = self._start["uinteger"]
        self._drawn = 0
        self._raws = iter(())
        self._next = self._raws.__next__

    def _refill(self) -> int:
        self._raws = iter(self._bit_generator.random_raw(_BLOCK).tolist())
        self._next = self._raws.__next__
        self._drawn += _BLOCK
        return self._next()

    def _uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        try:
            raw = self._next()
        except StopIteration:
            raw = self._refill()
        self._has_uint32 = 1
        self._uinteger = raw >> 32
        return raw & 0xFFFFFFFF

    def random(self) -> float:
        try:
            raw = self._next()
        except StopIteration:
            raw = self._refill()
        return (raw >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        if not 1 < n < 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs an integer n in [1, 2**32), got {n!r}")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def close(self) -> None:
        """Leave the generator where the scalar calls would have left it."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._drawn - self._raws.__length_hint__())
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = self._has_uint32, self._uinteger
        bit_generator.state = state


def simulate(
    instance: BanditInstance,
    policy: Policy,
    rng: np.random.Generator,
    checkpoints: Optional[Sequence[int]] = None,
) -> tuple[DelayedBanditEnv, RegretTrace]:
    """Play one full episode; returns the environment alongside the trace.

    Each round is ``env.pull(policy.select(env.observe(), rng), uniform)``,
    the reference loop (see the module docstring).

    A policy that reads the rng needs ``rng`` to be a Generator over PCG64
    (``np.random.default_rng``); any other raises ``TypeError`` before the
    episode starts.
    """
    cps = _validated_checkpoints(checkpoints, instance.horizon)
    stream = _Stream(rng) if policy.reads_rng else None
    K, T = instance.n_arms, instance.horizon
    policy.reset(K, T)
    env = DelayedBanditEnv(instance)
    if stream is None:
        uniform = chain.from_iterable(
            rng.random(min(_CHUNK, 2 * T - start)).tolist() for start in range(0, 2 * T, _CHUNK)
        ).__next__
        regret = _play(env, policy, None, uniform, cps)
    else:
        regret = _closing(stream, _play, env, policy, stream, stream.random, cps)
    trace = RegretTrace(
        checkpoints=cps,
        regret=np.array(regret, dtype=np.float64),
        pull_counts=env.pull_counts,
    )
    return env, trace


def _play(env, policy, rng, uniform, checkpoints) -> list:
    """The episode's regret at ``checkpoints``, played in the generic loop."""
    marks = iter(checkpoints)
    mark = next(marks)
    regret = []
    for t in range(1, env.horizon + 1):
        env.pull(policy.select(env.observe(), rng), uniform)
        if t == mark:
            regret.append(env.true_pseudo_regret())
            mark = next(marks, 0)
    return regret


def _closing(stream: _Stream, play, *args):
    """``play(*args)``, then ``stream.close()``, also when ``play`` raises.

    A function of its own so that its ``finally`` stays among the first
    bytecode offsets. Entering a ``finally``, CPython 3.11 boxes the offset
    of the raising instruction as an int; past the cached small ints that
    allocates, and when memory is exhausted the failed allocation re-enters
    the same handler, so an episode that ran out of memory spun there at
    full CPU instead of raising ``MemoryError``.
    """
    try:
        return play(*args)
    finally:
        stream.close()


def run_episode(
    instance: BanditInstance,
    policy: Policy,
    seed: int,
    checkpoints: Optional[Sequence[int]] = None,
) -> RegretTrace:
    """One episode under the seed-derived stream; deterministic end to end."""
    rng = np.random.default_rng(seed)
    _, trace = simulate(instance, policy, rng, checkpoints)
    return trace


def _replicate(args) -> np.ndarray:
    """One run's regret row: from the compiled kernel when it takes the episode, else Python."""
    instance, policy_spec, seed, checkpoints = args
    policy = from_spec(POLICIES, policy_spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    played = kernel.play_index(instance, policy, seed, checkpoints)
    if played is None:
        # simulate resets the policy again, as it does at the start of every episode.
        return run_episode(instance, policy, seed, checkpoints).regret
    gaps = instance.gaps
    return np.array([pseudo_regret(gaps, counts) for counts in played[0].tolist()])


# Worker pools by worker count; see the module docstring for their lifetime.
_pools: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    while _pools:
        _pools.popitem()[1].shutdown()


atexit.register(_shutdown_pools)
os.register_at_fork(after_in_child=_pools.clear)


def _pooled_rows(workers: int, payloads, out: np.ndarray) -> None:
    """``_replicate`` over ``payloads`` in the pool of ``workers``; row ``i`` into ``out[i]``."""
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools.setdefault(workers, ProcessPoolExecutor(max_workers=workers))
    chunk = max(1, len(out) // (8 * workers))
    try:
        for i, row in enumerate(pool.map(_replicate, payloads, chunksize=chunk)):
            out[i] = row
    except BrokenProcessPool:
        _pools.pop(workers, None)
        raise


def monte_carlo(
    instance: BanditInstance,
    policy_spec: Mapping,
    runs: int,
    master_seed: int,
    checkpoints: Optional[Sequence[int]] = None,
    n_jobs: int = 1,
) -> MonteCarloResult:
    """Replicate an experiment ``runs`` times and aggregate the regret curves.

    ``policy_spec`` is a config-style mapping (a fresh policy is built per
    run, which keeps replications independent across worker processes).
    ``n_jobs`` is the number of worker processes; 0 or -1 means one per CPU.
    No more workers than ``runs`` are asked for. The pool is kept for later
    calls (see the module docstring).
    """
    check_int("runs", runs, 1)
    check_int("master_seed", master_seed)
    check_int("n_jobs", n_jobs, -1)
    cps = _validated_checkpoints(checkpoints, instance.horizon)
    # Allocated first, so that a batch too large for memory fails before any work.
    try:
        regrets = np.empty((runs, len(cps)))
    except ValueError:  # more bytes than an address can span
        raise MemoryError(f"{runs} rows of {len(cps)} checkpoints do not fit in memory") from None
    payloads = ((instance, policy_spec, split_seed(master_seed, i), cps) for i in range(runs))
    workers = min(n_jobs if n_jobs > 0 else (os.cpu_count() or 1), runs)
    if workers == 1:
        for i, payload in enumerate(payloads):
            regrets[i] = _replicate(payload)
    else:
        _pooled_rows(workers, payloads, regrets)
    mean = regrets.mean(axis=0)
    if runs > 1:
        stderr = regrets.std(axis=0, ddof=1) / np.sqrt(runs)
    else:
        stderr = np.zeros_like(mean)
    return MonteCarloResult(
        checkpoints=cps,
        mean=mean,
        stderr=stderr,
        runs=runs,
        master_seed=master_seed,
        regrets=regrets,
    )
