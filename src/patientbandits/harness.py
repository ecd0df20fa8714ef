"""Episode execution and Monte Carlo replication with deterministic seeding.

Reproducibility contract: run ``i`` of a batch uses the generator seeded
with ``split_seed(master_seed, i)`` (a splitmix64 counter hash), and within
a run the draw order is fixed — any policy randomness first, then one
reward and one delay per pull. Replications are independent, so they can
run in worker processes; results are reduced in run-index order and are
bitwise identical to a serial pass.

A policy whose ``select`` never draws (``Policy.reads_rng`` false: every
index policy) leaves the pulls as the stream's only reader, so the episode's
``2 T`` uniforms are drawn as one block, ``rng.random(2 * T)``. The block
holds the same values in the same order as ``2 T`` scalar calls and leaves
the generator in the same state, so no regret bit changes; it costs about
64 B per round while the episode runs (6.4 MB at T = 1e5). ``uniform``
draws its arm between pulls and keeps the interleaved scalar calls.

Worker pools live as long as the process. ``monte_carlo`` starts a pool of
``n`` workers the first time it is asked for ``n`` (0 and -1 resolve to
``os.cpu_count()``), and every later call with that count reuses it, so a
loop over many small configs pays the start-up once. Importing the package
starts nothing. The workers are forked (the default start method on Linux)
when the pool is first used, and keep the parent's module state as it was
at that moment: a module attribute patched afterwards is not seen by them.
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
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .distributions import check_int, from_spec
from .environment import BanditInstance, DelayedBanditEnv
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
    diagnostics: dict = field(default_factory=dict)


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


_BLOCK_MISUSE = "{}.draw must read exactly two uniforms per pull"


class _UniformBlock:
    """The episode's pre-drawn uniforms, read in order by ``random()``."""

    __slots__ = ("values", "random")

    def __init__(self, values: list):
        self.values = iter(values)
        self.random = self.values.__next__


def simulate(
    instance: BanditInstance,
    policy: Policy,
    rng,
    checkpoints: Optional[Sequence[int]] = None,
) -> tuple[DelayedBanditEnv, RegretTrace]:
    """Play one full episode; returns the environment alongside the trace."""
    cps = _validated_checkpoints(checkpoints, instance.horizon)
    K, T = instance.n_arms, instance.horizon
    policy.reset(K, T)
    env = DelayedBanditEnv(instance)
    if policy.reads_rng:
        stream, select_rng = rng, rng
    else:
        stream, select_rng = _UniformBlock(rng.random(2 * T).tolist()), None
    marks = iter(cps)
    mark = next(marks)
    regret = []
    try:
        for t in range(1, T + 1):
            view = env.observe()
            arm = policy.select(view, select_rng)
            if not 0 <= arm < K:
                raise RuntimeError(
                    f"policy {policy.label!r} selected arm {arm} out of range "
                    f"[0, {K}) at round {t}"
                )
            env.pull(arm, stream)
            if t == mark:
                regret.append(env.true_pseudo_regret())
                mark = next(marks, 0)
    except StopIteration:
        if stream is rng:
            raise
        raise RuntimeError(_BLOCK_MISUSE.format(type(instance).__name__)) from None
    if stream is not rng and operator.length_hint(stream.values):
        raise RuntimeError(_BLOCK_MISUSE.format(type(instance).__name__))
    diagnostics = {}
    history = getattr(policy, "alpha_bar_history", None)
    if history:
        diagnostics["alpha_bar"] = np.asarray(history)
    trace = RegretTrace(
        checkpoints=cps,
        regret=np.array(regret, dtype=np.float64),
        pull_counts=env.pull_counts,
        diagnostics=diagnostics,
    )
    return env, trace


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
    instance, policy_spec, seed, checkpoints = args
    trace = run_episode(instance, from_spec(POLICIES, policy_spec, "policy"), seed, checkpoints)
    return trace.regret


# Worker pools by worker count; see the module docstring for their lifetime.
_pools: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    while _pools:
        _pools.popitem()[1].shutdown()


atexit.register(_shutdown_pools)
os.register_at_fork(after_in_child=_pools.clear)


def _pooled_rows(workers: int, payloads: list) -> list:
    """``_replicate`` over ``payloads`` in the process's pool of ``workers``, in order."""
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools.setdefault(workers, ProcessPoolExecutor(max_workers=workers))
    chunk = max(1, len(payloads) // (8 * workers))
    try:
        return list(pool.map(_replicate, payloads, chunksize=chunk))
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
    The pool is kept for later calls (see the module docstring).
    """
    check_int("runs", runs, 1)
    check_int("master_seed", master_seed)
    check_int("n_jobs", n_jobs, -1)
    cps = _validated_checkpoints(checkpoints, instance.horizon)
    payloads = [
        (instance, policy_spec, split_seed(master_seed, i), cps) for i in range(runs)
    ]
    workers = n_jobs if n_jobs > 0 else (os.cpu_count() or 1)
    if workers == 1 or runs == 1:
        rows = [_replicate(p) for p in payloads]
    else:
        rows = _pooled_rows(workers, payloads)
    regrets = np.vstack(rows)
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
