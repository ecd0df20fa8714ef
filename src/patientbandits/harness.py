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
draws its arm between pulls, so ``select`` and the pulls share one
``_Stream``: it reads the generator's PCG64 raw outputs in blocks of a
fixed size and returns what the generator's scalar ``random()`` and
``integers(n)`` calls would, in the same order, and it leaves the generator
in the same state at the end. Such a policy needs a Generator over PCG64
(``default_rng``); ``simulate`` refuses any other with ``TypeError``.

An episode runs on one of two engines, which give the same bits. Three
kinds of policy declare the shape of their whole episode. An optimistic
index whose radius is ``deviation + delay_bias`` at an exponent that is
none, fixed or a schedule of the round declares the radius's horizon,
``delta`` and ``alpha`` as ``Policy.radius_index`` (``ucb``, ``patient``
with a float α or ``loglog``, and ``adapt`` when its tail-index bound is
provably 0 all episode). ``ducb`` declares its fixed wait and de-biasing
factor as ``Policy.window_index``. ``uniform``, whose arm is the stream's
``integers(K)`` each round, declares ``Policy.uniform_index``.

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

``monte_carlo``'s ``n_jobs`` resolves to a worker count (0 and -1 to
``os.cpu_count()``, and no count exceeds the batch's ``runs``). With one
worker the runs play in series in the calling process. With ``n``, where
they play follows from the engine, with no option to choose it:

- A kernel batch, ``uniform`` included, of at least ``THREAD_ROUNDS``
  rounds (``runs * T``) plays on the process's thread pool of ``n``
  threads. The C loop and numpy's fill of the uniforms or raw outputs run
  without the GIL, and nothing is pickled or sent to another process. A
  smaller kernel batch plays in series in the calling thread. It takes
  at most a few milliseconds there, a hand-off to the threads costs about
  0.1 ms on an idle host, and how long it takes depends on when the host
  schedules the threads: on threads such a batch ran no faster, and its
  time varied from one run of a program to the next.
- Any other batch (``adapt`` above its threshold, a policy that overrides
  ``select``, an instance that overrides ``draw``, or any batch on a host
  without a compiler) plays in the process's pool of ``n`` worker
  processes, where each run builds its own policy.

Both kinds of pool are started the first time a count is asked for and
serve every later call with that count, so a loop over many small configs
pays the start-up once. Importing the package starts nothing. The worker
processes are forked (the default start method on Linux) when the pool is
first used, and keep the parent's module state as it was at that moment: a
module attribute patched afterwards is not seen by them. At a normal exit
the interpreter joins the threads and the process pools are shut down, and
their workers joined; ``os._exit`` skips that. A process pool that breaks,
for example because a worker was killed, raises ``BrokenProcessPool`` once
and is dropped, so the next call starts a fresh one. A forked child forgets
the pools of both kinds it inherited (their threads do not exist in it) and
starts its own on first use.
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
    """One run's regret row from the generic loop; a process-pool task."""
    instance, policy_spec, seed, checkpoints = args
    return run_episode(instance, from_spec(POLICIES, policy_spec, "policy"), seed, checkpoints).regret


# Fewest rounds (runs * T) of a kernel batch that plays on threads; see the
# module docstring. At 2**15 rounds two threads about halved an index batch
# on a 2-vCPU host and broke even on a uniform one.
THREAD_ROUNDS = 2**15

# Process pools, and the thread pools of kernel batches, by worker count;
# see the module docstring for their lifetime.
_pools: dict[int, ProcessPoolExecutor] = {}
_threads: dict = {}  # ThreadPoolExecutors; that class is imported on first use


def _shutdown_pools() -> None:
    while _pools:
        _pools.popitem()[1].shutdown()


atexit.register(_shutdown_pools)
os.register_at_fork(after_in_child=_pools.clear)
os.register_at_fork(after_in_child=_threads.clear)


def _pooled(workers: int, payloads, chunk: int):
    """``_replicate`` over ``payloads`` in the process pool of ``workers``, rows in order."""
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools.setdefault(workers, ProcessPoolExecutor(max_workers=workers))
    try:
        yield from pool.map(_replicate, payloads, chunksize=chunk)
    except BrokenProcessPool:
        _pools.pop(workers, None)
        raise


def _threaded(workers: int):
    """The process's thread pool of ``workers``, started on first use."""
    threads = _threads.get(workers)
    if threads is None:
        from concurrent.futures import ThreadPoolExecutor  # only a kernel batch on threads needs it

        threads = _threads.setdefault(workers, ThreadPoolExecutor(max_workers=workers))
    return threads


def _rows(instance, policy_spec, seeds: Sequence[int], checkpoints, workers: int):
    """The regret rows of the runs ``seeds``, in order, on ``workers`` workers.

    The policy is built and reset here, once. When the kernel takes the batch,
    its prologue runs here too, and the episodes play in series, or on the
    thread pool when the batch holds ``THREAD_ROUNDS`` rounds; otherwise each run builds its own policy and plays the
    generic loop, in series or in the process pool. Either pool takes the
    runs in chunks of about an eighth of each worker's share.
    """
    policy = from_spec(POLICIES, policy_spec, "policy")
    policy.reset(instance.n_arms, instance.horizon)
    episode = kernel.index_batch(instance, policy, checkpoints)
    chunk = max(1, len(seeds) // (8 * workers))
    if episode is not None:
        if workers == 1 or len(seeds) * instance.horizon < THREAD_ROUNDS:
            played = map(episode, seeds)
        else:
            chunks = (seeds[i:i + chunk] for i in range(0, len(seeds), chunk))
            played = chain.from_iterable(
                _threaded(workers).map(lambda part: [*map(episode, part)], chunks)
            )
        gaps = instance.gaps
        return (np.array([pseudo_regret(gaps, row) for row in counts.tolist()])
                for counts, _ in played)
    payloads = ((instance, policy_spec, seed, checkpoints) for seed in seeds)
    return map(_replicate, payloads) if workers == 1 else _pooled(workers, payloads, chunk)


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
    plays (in series below ``THREAD_ROUNDS`` rounds), processes otherwise. No more workers than ``runs`` are asked for,
    and the pool is kept for later calls (see the module docstring).
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
    workers = min(n_jobs if n_jobs > 0 else (os.cpu_count() or 1), runs)
    for i, row in enumerate(_rows(instance, policy_spec, seeds, cps, workers)):
        regrets[i] = row
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
