"""Machine-speed calibration: a frozen kernel timed next to every program call.

On a shared machine, the CPU speed one process gets can swing by 2x within
seconds, and a slow phase can last longer than a whole run. A fixed
pure-Python loop tracks these swings only roughly, because the simulator
also suffers from cache contention. This kernel is a frozen miniature of the
simulator's inner loop instead: scalar numpy draws, Python control flow over
arms, an arrival calendar, and masked numpy sums over growing arrays. It
belongs to the benchmark, not to the program, so a change to the program
never changes it.

On the reference machine (2 cores, Python 3.11, numpy 2.4), the ratio of a
program call's time to the kernel's time varied by 2-3% between 15-second
windows. Over the same windows, raw call times varied by up to 40%.
Benchmark times are reported *at reference speed*: the measured seconds
multiplied by ``REFERENCE_SECONDS / kernel_seconds``, where the kernel is
timed just before and just after the call.
"""
from __future__ import annotations

import math
import multiprocessing
import statistics
import time

# Kernel time on the reference machine in its fast state; it only sets the scale.
REFERENCE_SECONDS = 0.004


def kernel() -> float:
    """Run the frozen kernel once; returns a checksum so no work can be skipped."""
    import numpy as np

    rng = np.random.default_rng(12345)
    horizon = 800
    rounds = np.empty(horizon, dtype=np.int64)
    delays = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon, dtype=np.float64)
    counts, sums = [0, 0], [0.0, 0.0]
    calendar = [[] for _ in range(horizon + 2)]
    means, tails = (0.6, 0.8), (1.0, 0.3)
    checksum = 0.0
    for t in range(1, horizon + 1):
        for arm, reward in calendar[t]:
            sums[arm] += reward
        best, best_index = 0, -math.inf
        for i in range(2):
            n = counts[i]
            index = math.inf if n == 0 else sums[i] / n + math.sqrt(2.0 * math.log(t + 1) / n)
            if index > best_index:
                best, best_index = i, index
        reward = 1.0 if rng.random() < means[best] else 0.0
        delay = math.ceil((1.0 - rng.random()) ** (-1.0 / tails[best]))
        arrival = t + max(delay, 1)
        if arrival <= horizon:
            calendar[arrival].append((best, reward))
        rounds[t - 1], delays[t - 1], rewards[t - 1] = t, min(delay, horizon + 1), reward
        counts[best] += 1
        if t % 4 == 0:
            count = int(np.searchsorted(rounds[:t], t - 50, side="right"))
            checksum += float(rewards[:count][delays[:count] <= 50].sum())
    return checksum


def kernel_seconds() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Kernel:
    """Times the kernel in ``jobs`` processes at once; a time is the slowest one's.

    A call that runs in a pool of ``jobs`` workers waits for its slowest
    worker, and on a shared machine each core can be slowed by a different
    amount. One kernel in one process sees one core only, so a pooled call
    is scaled by kernels run side by side on ``jobs`` cores. ``jobs - 1``
    helper processes are forked on entry and joined on exit.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._pipes = []
        self._helpers = []

    def __enter__(self) -> "Kernel":
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.jobs - 1):
            ours, theirs = ctx.Pipe()
            helper = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            helper.start()
            theirs.close()
            self._pipes.append(ours)
            self._helpers.append(helper)
        return self

    def __exit__(self, *exc) -> None:
        for pipe in self._pipes:
            pipe.send(False)
            pipe.close()
        for helper in self._helpers:
            helper.join()

    def seconds(self) -> float:
        """Wall seconds of the slowest of ``jobs`` kernel runs started together."""
        for pipe in self._pipes:
            pipe.send(True)
        own = kernel_seconds()
        return max([own] + [pipe.recv() for pipe in self._pipes])


def _helper(conn) -> None:
    kernel()  # warm-up
    while conn.recv():
        conn.send(kernel_seconds())


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, scaled to reference speed."""
    return seconds * REFERENCE_SECONDS / kernel_s


def median_at_reference(passes) -> dict:
    """Each key's median time at reference speed.

    A pass maps each key to ``(seconds, kernel_seconds)``.
    """
    return {
        key: statistics.median(at_reference(*p[key]) for p in passes) for key in passes[0]
    }


def speed(passes) -> float:
    """Factor that brings raw totals measured during ``passes`` to reference speed."""
    return REFERENCE_SECONDS / statistics.median(k for p in passes for _, k in p.values())
