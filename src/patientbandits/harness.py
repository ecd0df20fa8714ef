"""Episode execution and Monte Carlo replication with deterministic seeding.

Reproducibility contract: run ``i`` of a batch uses the generator seeded
with ``split_seed(master_seed, i)`` (a splitmix64 counter hash), and within
a run the draw order is fixed — any policy randomness first, then one
reward and one delay per pull. Replications are independent, so they can
run on worker threads or in worker processes; results are reduced in
run-index order and are bitwise identical to a serial pass.

A policy whose ``select`` never draws (``Policy.reads_rng`` false: every
index policy) leaves the pulls as the stream's only reader, so the episode's
``2 T`` uniforms are drawn ``_CHUNK`` at a time (the last block shorter),
``rng.random(n)`` when the pulls reach a block, and each pull reads its two
from the blocks' chained iterator. The blocks hold the same values in the
same order as ``2 T`` scalar calls and leave the generator in the same
state, so no regret bit changes; the episode holds one block as a list,
about 2 MB, whatever its horizon. A policy that reads the rng (``uniform``)
draws its arm between pulls, so ``select`` is handed the episode's
Generator itself and the pulls read its scalar ``random()``: the reference
for ``uniform`` is numpy's own ``integers(K)`` and ``random()`` calls, on
any bit generator.

An episode runs on one of two engines, which give the same bits. Three
kinds of policy declare the shape of their whole episode. An optimistic
index whose radius is ``deviation + delay_bias`` at an exponent that is
none, fixed or a schedule of the round declares the radius's horizon,
``delta`` and ``alpha`` as ``Policy.radius_index`` (``ucb``, ``patient``
with a float α or ``loglog``, and ``adapt`` when its tail-index bound is
provably 0 all episode). ``ducb`` declares its fixed wait and de-biasing
factor as ``Policy.window_index``. ``uniform``, whose arm is the
Generator's ``integers(K)`` each round, declares ``Policy.uniform_index``.

- ``monte_carlo`` plays a batch of any of these kinds in the compiled
  kernel (:mod:`.kernel`) when the instance does not override ``draw``,
  every law is one of the six built-in ones, the kernel's library can be
  had, and, for a radius, ``delta`` is a float and the exponent, at every
  round for a schedule, is a float in [0, 0.5]. The batch's prologue
  (building and resetting the policy, encoding the laws, loading the
  library, checking the checkpoints and a schedule's exponents) runs once,
  in the calling process. Each episode returns pull counts per checkpoint,
  and the regret row is computed from them by
  :func:`.environment.pseudo_regret`. Any other batch runs each episode
  through ``run_episode``.
- ``simulate``, and so ``run_episode``, plays every episode in the generic
  loop, ``env.pull(policy.select(env.observe(), rng), uniform)``, since its
  caller gets the environment the episode filled.

The kernel is compiled with the host's ``cc`` on the first episode that
could use it, never at import, and cached in the package's ``__pycache__``
(see :mod:`.kernel`). Without a compiler, or when the build fails, every
episode runs the generic loop. The generic loop is the reference: the
tests hold the kernel to it bit for bit. Because both engines give the same
numbers, there is no option to choose one; only the speed would change.

``monte_carlo``'s ``n_jobs`` resolves to a worker count: 0 and -1 to
``os.cpu_count()``, and no count exceeds that core count or the batch's
``runs``, so a large request starts no more threads or processes than the
host has cores. With one worker the runs play in series in the calling
process. With ``n``, where they play follows from the engine, with no
option to choose it:

- A kernel batch, ``uniform`` included, of at least ``THREAD_ROUNDS``
  rounds (``runs * T``) plays on a pool of ``n`` threads. The C loop and
  numpy's fill of the uniforms or raw outputs run without the GIL, and
  nothing is pickled or sent to another process. A smaller kernel batch
  plays in series in the calling thread. It takes at most a few
  milliseconds there, starting and joining the threads costs 0.1-1 ms on
  a 2-core host, and how long it takes depends on when the host schedules
  the threads: on threads such a batch ran no faster, and its time varied
  from one run of a program to the next.
- Any other batch (``adapt`` above its threshold, a policy that overrides
  ``select``, an instance that overrides ``draw``, or any batch on a host
  without a compiler) plays in a pool of ``n`` worker processes, where
  each run builds its own policy.

Each pool lives for the one ``monte_carlo`` call that starts it: the call
takes the runs in chunks, fills the rows as they arrive, and shuts the pool
down before it returns. A run that raises cancels the chunks not yet
started, and the exception leaves the call once every worker is joined. So
importing the package starts nothing, and no thread or process outlives
the call that started it. On a 2-core host, starting and joining 2 worker
processes costs a call about 7-9 ms, and 2 threads 0.1-1 ms (README).
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
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


# Uniforms ``simulate`` draws at a time for a policy that does not read the rng.
_CHUNK = 65536


def simulate(
    instance: BanditInstance,
    policy: Policy,
    rng: np.random.Generator,
    checkpoints: Optional[Sequence[int]] = None,
) -> tuple[DelayedBanditEnv, RegretTrace]:
    """Play one full episode; returns the environment alongside the trace.

    Each round is ``env.pull(policy.select(env.observe(), rng), uniform)``,
    the reference loop (see the module docstring).

    A policy that reads the rng is handed ``rng`` itself, and its pulls
    read ``rng.random``.
    """
    cps = _validated_checkpoints(checkpoints, instance.horizon)
    K, T = instance.n_arms, instance.horizon
    policy.reset(K, T)
    env = DelayedBanditEnv(instance)
    if policy.reads_rng:
        regret = _play(env, policy, rng, rng.random, cps)
    else:
        uniform = chain.from_iterable(
            rng.random(min(_CHUNK, 2 * T - start)).tolist() for start in range(0, 2 * T, _CHUNK)
        ).__next__
        regret = _play(env, policy, None, uniform, cps)
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


def _generic_rows(instance, policy_spec, checkpoints, seeds) -> list:
    """The regret rows of the runs ``seeds`` in the generic loop; a process-pool task."""
    return [
        run_episode(instance, from_spec(POLICIES, policy_spec, "policy"), seed, checkpoints).regret
        for seed in seeds
    ]


def _kernel_rows(episode, gaps, seeds) -> list:
    """The regret rows of the runs ``seeds`` from the kernel's ``episode``."""
    return [[pseudo_regret(gaps, row) for row in counts.tolist()]
            for counts, _ in map(episode, seeds)]


# Fewest rounds (runs * T) of a kernel batch that plays on threads; see the
# module docstring. At 2**15 rounds two threads about halved an index batch
# on a 2-vCPU host and broke even on a uniform one.
THREAD_ROUNDS = 2**15


def _fill_rows(regrets, instance, policy_spec, seeds: Sequence[int], checkpoints, workers: int):
    """Fill ``regrets`` with the rows of the runs ``seeds``, in order, on ``workers`` workers.

    The policy is built and reset here, once. When the kernel takes the batch,
    its prologue runs here too, and the episodes play in series, or on
    threads when the batch holds ``THREAD_ROUNDS`` rounds; otherwise each
    run builds its own policy and plays the generic loop, in series or in
    worker processes. A pool takes the runs in chunks of about an eighth of
    each worker's share and is shut down before this returns.
    """
    policy = from_spec(POLICIES, policy_spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    episode = kernel.index_batch(instance, policy, checkpoints)
    if episode is None:
        Pool = ProcessPoolExecutor
        task = partial(_generic_rows, instance, policy_spec, checkpoints)
    else:
        Pool = ThreadPoolExecutor
        task = partial(_kernel_rows, episode, instance.gaps)
    if workers == 1 or (episode is not None and len(seeds) * instance.horizon < THREAD_ROUNDS):
        regrets[:] = task(seeds)
        return
    chunk = max(1, len(seeds) // (8 * workers))
    with Pool(workers) as pool:
        try:
            parts = pool.map(task, [seeds[i:i + chunk] for i in range(0, len(seeds), chunk)])
            for i, row in enumerate(chain.from_iterable(parts)):
                regrets[i] = row
        except BaseException:  # the with's exit would wait for every queued chunk
            pool.shutdown(cancel_futures=True)
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

    ``policy_spec`` is a config-style mapping. ``n_jobs`` is the number of
    workers, 0 or -1 meaning one per CPU: threads for a batch the kernel
    plays (in series below ``THREAD_ROUNDS`` rounds), processes otherwise.
    No more workers are asked for than ``os.cpu_count()`` or ``runs``, and
    the pool is shut down before the call returns (see the module docstring).
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
    seeds = [split_seed(master_seed, i) for i in range(runs)]
    cores = os.cpu_count() or 1
    workers = min(n_jobs if n_jobs > 0 else cores, cores, runs)
    _fill_rows(regrets, instance, policy_spec, seeds, cps, workers)
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
