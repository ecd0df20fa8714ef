"""Interaction protocol for bandits whose rewards arrive after random delays.

One round works like this: arrivals scheduled for the round are delivered,
the policy inspects an :class:`ObservationView`, picks an arm, and the
environment draws a (reward, delay) pair and schedules the reward's future
arrival (a zero reward needs none: it would add nothing to a sum). A reward pulled at round ``s`` with delay ``d`` becomes visible at
round ``s + max(d, 1)``: observations only cover strictly past pulls, so
even a zero-delay conversion is first seen one round later. Arrivals past
the horizon are generated but censored.

A policy sees the round only through the view: its ``counts`` and ``sums``
snapshots and its ``windowed`` query. None of them lets a policy
distinguish "reward was 0" from "reward has not arrived yet" — both
contribute 0 to every sum it can ask for.
"""
from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .distributions import DelayLaw, RewardLaw, check_int


class EpisodeComplete(RuntimeError):
    """Raised when interacting with an environment past its horizon."""


@dataclass(frozen=True)
class PullRecord:
    """One pull of one arm: what happened and when it becomes visible.

    ``delay`` is exact up to the horizon ``T``; a longer one is ``T + 1``.
    ``arrival_round`` is ``round + max(delay, 1)``, or ``None`` when that
    lands past the horizon (the reward is censored and never observed).
    """

    arm: int
    round: int
    reward: float
    delay: int
    arrival_round: Optional[int]

    @property
    def censored(self) -> bool:
        return self.arrival_round is None


class BanditInstance:
    """A bandit problem: per-arm (reward law, delay law) pairs and a horizon.

    Each arm's two ``from_uniform`` samplers are bound once, here, for
    :meth:`draw`; the laws are frozen, so the bound pair stays theirs.
    """

    def __init__(self, arms: Sequence[Tuple[RewardLaw, DelayLaw]], horizon: int):
        arms = tuple((r, d) for r, d in arms)
        if len(arms) < 1:
            raise ValueError("instance needs at least one arm")
        self.arms = arms
        self.horizon = int(check_int("horizon", horizon, len(arms)))
        self._samplers = tuple((r.from_uniform, d.from_uniform) for r, d in arms)
        self.means = tuple(r.mean() for r, _ in arms)
        self.best_mean = max(self.means)
        self.gaps = tuple(self.best_mean - mu for mu in self.means)

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def delay_law(self, arm: int) -> DelayLaw:
        return self.arms[arm][1]

    def draw(self, arm: int, u: float, v: float) -> Tuple[float, int]:
        """The (reward, delay) pair of ``arm`` at the uniforms ``u`` and ``v``.

        ``u`` sets the reward and ``v`` the delay, through the arm's samplers
        bound at construction; :meth:`DelayedBanditEnv.pull` supplies them
        from the stream.
        """
        reward_from, delay_from = self._samplers[arm]
        return reward_from(u), delay_from(v)


class ObservationView:
    """Read-only snapshot of everything legally visible at round ``t``.

    ``counts[i]`` is the number of pulls of arm ``i`` over rounds 1..t-1 and
    ``sums[i]`` the sum of its rewards whose arrival round is <= t. Both are
    tuples taken at creation, so a stored view keeps answering for its own
    round after the episode moves on; :meth:`windowed` answers waited sums.
    """

    __slots__ = ("_env", "t", "counts", "sums")

    def __init__(self, env, t, counts, sums):
        self._env = env
        self.t = t
        self.counts = counts
        self.sums = sums

    def windowed(self, arm: int, wait: int) -> Tuple[int, float]:
        """``(count, total)`` for the pulls old enough to have waited ``wait`` rounds.

        ``count`` is the number of pulls before round t at rounds
        s <= t - wait; ``total`` sums those of their rewards whose delay is
        <= wait. Every contributing reward arrived by round s + wait <= t, so
        nothing unobserved leaks out. A wait of t or more includes no pull
        and gives ``(0, 0.0)``. ``arm`` must lie in [0, K) and ``wait`` must
        be an integer; anything else raises ``ValueError``.

        A cursor with exactly this ``wait`` that last answered for a round
        <= t answers at once: for a fixed wait the count never falls as t
        rises, so it covers no more pulls than the query, and it steps its
        count forward over the pulls that entered the window since. Any
        other query (a first one, a rising or falling wait, a stored older
        view) takes the arm's cursor with the largest ``(wait, covered)``
        that neither waits longer nor covers more pulls than the query.
        Without one a cursor is built, retiring the arm's oldest when it
        already has ``_CURSORS_PER_ARM``.
        """
        if type(wait) is not int:
            wait = int(check_int("wait", wait))
        if wait < 0:
            raise ValueError(f"wait must be nonnegative, got {wait}")
        if not 0 <= arm < len(self.counts):
            raise ValueError(f"arm {arm} out of range [0, {len(self.counts)})")
        env = self._env
        t = self.t
        cursors = env._arm_cursors[arm]
        for cursor in cursors:
            if cursor.wait == wait and cursor.at <= t:
                rounds, last = env._arm_rounds[arm], t - wait
                count, stop = cursor.covered, self.counts[arm]
                while count < stop and rounds[count] <= last:
                    count += 1
                cursor.at = t
                if count == cursor.covered:
                    return count, cursor.inside / cursor.scale
                return count, cursor.total(count, wait)
        count = bisect_right(env._arm_rounds[arm], t - wait, 0, self.counts[arm])
        if count == 0:
            return 0, 0.0
        cursor = None
        for candidate in cursors:
            if candidate.wait <= wait and candidate.covered <= count and (
                cursor is None
                or (candidate.wait, candidate.covered) > (cursor.wait, cursor.covered)
            ):
                cursor = candidate
        if cursor is None:
            if len(cursors) == _CURSORS_PER_ARM:
                del cursors[0]
            cursor = _WaitedCursor(
                env._arm_rewards[arm], env._arm_delays[arm], wait, env.instance.horizon
            )
            cursors.append(cursor)
        cursor.at = t
        return count, cursor.total(count, wait)


# Waited-sum cursors kept per arm. A cursor only moves forward, in wait and in
# pulls covered, so a stream of queries whose wait and count never drop costs
# O(1) amortised on one cursor: a ducb episode builds one per arm and answers
# each round's query on it with no search, an adapt episode builds one for each
# of the leader's two waits, and none while its leader is below the pull count
# where its tail-index bound can turn positive. Any other query builds a
# cursor, at O(count + T).
_CURSORS_PER_ARM = 4


class _WaitedCursor:
    """Exact sum of one arm's rewards of delay <= ``wait`` over its first ``covered`` pulls.

    Holds the arm's ``rewards`` and ``delays`` logs, which only grow.
    ``inside`` is the sum of the covered rewards that count at ``wait``;
    ``late[d]`` holds the covered rewards of delay ``d > wait`` (a delay is
    at most T + 1, and a negative one counts as 0), so raising the wait adds
    the buckets it passes. Sums are ints in units of ``1 / scale``, ``scale``
    being the largest ``as_integer_ratio`` denominator added so far; a total
    is thus the exact sum, rounded once by the final division. ``at`` is the
    round of the view it last answered for: ``covered`` is that view's count
    at ``wait``.
    """

    __slots__ = ("rewards", "delays", "covered", "wait", "inside", "late", "scale", "at")

    def __init__(self, rewards: list, delays: list, wait: int, horizon: int):
        self.rewards = rewards
        self.delays = delays
        self.covered = 0
        self.wait = wait
        self.inside = 0
        self.late = [0] * (horizon + 2)
        self.scale = 1
        self.at = 0

    def total(self, count: int, wait: int) -> float:
        """Sum of ``rewards[i]`` over ``i < count`` with ``delays[i] <= wait``.

        ``count`` is at least ``covered`` and ``wait`` at least ``self.wait``;
        both become the cursor's.
        """
        late = self.late
        inside = self.inside
        if wait > self.wait:
            inside += sum(late[self.wait + 1 : wait + 1])
            self.wait = wait
        rewards, delays = self.rewards, self.delays
        for position in range(self.covered, count):
            reward = rewards[position]
            if not reward:
                continue  # adds nothing at any wait
            num, den = reward.as_integer_ratio()
            if den > self.scale:  # denominators are powers of two: rescaling is exact
                factor = den // self.scale
                late[:] = [v * factor for v in late]
                inside *= factor
                self.scale = den
            num *= self.scale // den
            delay = delays[position]
            if delay <= wait:
                inside += num
            else:
                late[delay] += num
        self.covered = count
        self.inside = inside
        return inside / self.scale


def pseudo_regret(gaps: Sequence[float], counts: Sequence[int]) -> float:
    """``sum_i gaps[i] * counts[i]``, summed in arm order; the one regret formula."""
    return float(sum(map(operator.mul, gaps, counts)))


class DelayedBanditEnv:
    """Single-episode simulator enforcing the delayed-visibility rules."""

    def __init__(self, instance: BanditInstance):
        self.instance = instance
        self._K = K = instance.n_arms
        self._T = T = instance.horizon
        self._round = 1
        self._counts = [0] * K
        self._sums = [0.0] * K
        # Arrivals by round, a list made on the first one. One allocation of
        # T + 2 slots, so an impossible horizon fails here at once.
        self._calendar = [None] * (T + 2)
        self._censored = 0
        # Per-arm chronological logs: the one record of every pull.
        self._arm_rounds = [[] for _ in range(K)]
        self._arm_delays = [[] for _ in range(K)]
        self._arm_rewards = [[] for _ in range(K)]
        self._arm_cursors = [[] for _ in range(K)]

    @property
    def round(self) -> int:
        return self._round

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    @property
    def done(self) -> bool:
        return self._round > self.instance.horizon

    @property
    def pull_counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    @property
    def censored_count(self) -> int:
        return self._censored

    def observe(self) -> ObservationView:
        """The view of the current round, whose arrivals were delivered as it began."""
        t = self._round
        if t > self._T:
            raise EpisodeComplete(f"episode over: round {t} > horizon")
        return ObservationView(self, t, tuple(self._counts), tuple(self._sums))

    def pull(self, arm: int, uniform) -> None:
        """Pull ``arm`` at the current round, schedule its reward, and start the next round.

        ``uniform`` is the stream: a callable returning the next uniform in
        [0, 1). This is the stream contract, and the only place that reads
        the stream: two uniforms per pull, the reward's first (arguments are
        evaluated left to right), whatever the laws. Reproducibility of whole
        episodes, and coupled runs, hang on this. An ``arm`` outside [0, K)
        raises ``RuntimeError`` before the stream is read, leaving the
        episode as it was.

        The pull is logged, and counted as censored when its arrival lands
        past the horizon. A nonzero reward arriving in time is filed in the
        calendar under its arrival round; a zero (of either sign) is not, as
        adding it to a sum that starts at +0.0 and never falls changes no bit.
        Every Python episode pulls through this method; the compiled loop of
        :mod:`.kernel` files its pulls by these same rules.
        """
        s = self._round
        T = self._T
        if s > T:
            raise EpisodeComplete(f"episode over: cannot pull at round {s} > horizon {T}")
        if not 0 <= arm < self._K:
            raise RuntimeError(f"arm {arm} out of range [0, {self._K}) at round {s}")
        reward, delay = self.instance.draw(arm, uniform(), uniform())
        # Clamp: any delay past the horizon (even an infinite one) behaves
        # identically within the episode.
        delay = int(delay) if delay <= T else T + 1
        arrival = s + (delay if delay >= 1 else 1)
        if arrival > T:
            self._censored += 1
        elif reward:  # a zero would leave the arm's sum as it is
            arrivals = self._calendar[arrival]
            if arrivals is None:
                self._calendar[arrival] = [(arm, reward)]
            else:
                arrivals.append((arm, reward))
        self._arm_rounds[arm].append(s)
        self._arm_delays[arm].append(delay)
        self._arm_rewards[arm].append(reward)
        self._counts[arm] += 1
        self._round = s + 1
        due = self._calendar[s + 1]
        if due is not None:
            sums = self._sums
            for due_arm, due_reward in due:
                sums[due_arm] += due_reward

    def true_pseudo_regret(self) -> float:
        """Gap-weighted suboptimal pull count over the rounds played so far.

        Environment-side accounting only; uses the true gaps, which no
        policy ever sees.
        """
        return pseudo_regret(self.instance.gaps, self._counts)

    def pull_records(self) -> list[PullRecord]:
        """Every pull made so far, merged by round from the per-arm logs.

        A delay past the horizon ``T`` is reported as ``T + 1``.
        """
        T = self.instance.horizon
        records = []
        logs = zip(self._arm_rounds, self._arm_rewards, self._arm_delays)
        for arm, (rounds, rewards, delays) in enumerate(logs):
            for s, reward, delay in zip(rounds, rewards, delays):
                arrival = s + max(delay, 1)
                records.append(PullRecord(arm, s, reward, delay, arrival if arrival <= T else None))
        return sorted(records, key=lambda r: r.round)
