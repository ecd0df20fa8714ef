"""Hard-instance constructions behind the minimax lower bounds.

The pair built here makes the cost of heavy-tailed censoring concrete: two
two-arm problems that differ only in their second arm, one genuinely worse
(problem A), one better but with a ``p = T ** -alpha`` slice of its
conversions delayed past the horizon (problem B). Within the horizon the
second arm's observable conversions are Bernoulli of the same effective
mean in both problems, so no learner can tell them apart, yet the optimal
arm differs. The gap ``q = p / (4 - 2p)`` is tuned to make the effective
means match exactly. ``make_coupled_pair`` goes further: it maps each pull's
two uniforms so that, under one seed, both problems show a policy the same
observations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .distributions import Bernoulli, Dirac, TwoPointMass, check_int, check_real
from .environment import BanditInstance


@dataclass(frozen=True)
class LowerBoundPair:
    p: float
    q: float
    problem_a: BanditInstance
    problem_b: BanditInstance


def make_lower_bound_pair(T: int, alpha: float) -> LowerBoundPair:
    """Build the indistinguishable two-arm pair for horizon ``T`` at index ``alpha``.

    Arm 1 is Bernoulli(1/2) with no delay in both problems. Problem A's arm 2
    is Bernoulli(1/2 - q), undelayed; problem B's arm 2 is Bernoulli(1/2 + q)
    with a fraction ``p`` of delays pushed to ``T``. The identity
    ``(1/2 + q) * (1 - p) = 1/2 - q`` holds by construction.
    """
    check_int("T", T, 2)
    check_real("alpha", alpha, positive=True)
    try:
        p = float(T) ** -alpha
    except OverflowError:
        raise ValueError("T is too large: it has no float value") from None
    q = p / (4.0 - 2.0 * p)
    arm1 = (Bernoulli(0.5), Dirac(0))
    problem_a = BanditInstance([arm1, (Bernoulli(0.5 - q), Dirac(0))], horizon=T)
    problem_b = BanditInstance(
        [arm1, (Bernoulli(0.5 + q), TwoPointMass(p=p, d0=0, d1=T))], horizon=T
    )
    return LowerBoundPair(p=p, q=q, problem_a=problem_a, problem_b=problem_b)


def observable_mean(problem: BanditInstance, arm: int, window: int) -> float:
    """Expected observable payoff of ``arm`` after waiting ``window`` rounds.

    Censoring rescales the mean multiplicatively: ``cdf(window) * mean``.
    """
    check_int("window", window, 1)
    return problem.delay_law(arm).cdf(window) * problem.means[arm]


class _CoupledInstance(BanditInstance):
    """Problem B with arm 2's draws coupled to problem A's plain draws.

    Problem A's arm 2 converts on the event ``u1 < 1/2 - q`` of its first
    uniform; here the same event is arm 2's within-horizon observable
    conversion. The pull's two uniforms map to the pair here, and arm 1
    draws as in :meth:`BanditInstance.draw`. Marginals are exact; only the
    joint across the two problems is constructed.
    """

    def __init__(self, arms, horizon, p, q):
        super().__init__(arms, horizon)
        self._p = p
        self._q = q

    def draw(self, arm, u1, u2):
        if arm == 0:
            return super().draw(arm, u1, u2)
        q, p, T = self._q, self._p, self.horizon
        if u1 < 0.5 - q:
            return (1.0, 0)
        # Residual mass 1/2 + q split to keep reward Bernoulli(1/2 + q),
        # delay mass p at T, and the two independent.
        residual = 0.5 + q
        t1 = (0.5 + q) * p / residual
        t2 = t1 + (0.5 - q) * (1.0 - p) / residual
        if u2 < t1:
            return (1.0, T)
        if u2 < t2:
            return (0.0, 0)
        return (0.0, T)


def make_coupled_pair(T: int, alpha: float) -> tuple[BanditInstance, BanditInstance]:
    """The lower-bound pair with draw streams coupled across problems.

    Running any policy with the same seed on both returned instances feeds
    it identical observations round for round, so pull sequences match
    exactly; distributional indistinguishability becomes a trace equality.
    """
    pair = make_lower_bound_pair(T, alpha)
    coupled_b = _CoupledInstance(pair.problem_b.arms, T, pair.p, pair.q)
    return pair.problem_a, coupled_b
