"""Statistical machinery: censored means, confidence radii, tail-index estimates.

All logarithms are natural. The confidence radius on an arm pulled ``n``
times is::

    sqrt(2 * log(2 / delta) / n)  +  2 * n ** -(min(alpha, 0.5))

The first term is the usual sampling deviation; the second compensates for
conversions that have not arrived yet, assuming delay tails decay at least
as fast as ``m ** -alpha``. The default confidence level is
``delta = 1 / (K * T**3)``, which folds the union bound over arms, rounds
and sample sizes into the radius. Both terms are scalar C-library math on
Python numbers, so :func:`radius_table` holds the bits a round computes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .distributions import DelayLaw, check_int, check_real


class UndefinedEstimatorError(ValueError):
    """Mean estimate requested for an arm with zero pulls."""


class InsufficientDataError(ValueError):
    """Tail-index estimate requested before the leader has two pulls."""


AlphaInput = Union[float, Callable[[int], float]]


def log_log_schedule(t: int) -> float:
    """Round-dependent tail-index input ``log(log t) / log t``.

    Lets the index-aware policy run without a tail bound at the price of a
    constant factor, asymptotically. Clamped below so early rounds (where
    ``log log t`` is negative or undefined) still produce a positive value.
    """
    log_t = math.log(t)
    return max(math.log(log_t) if log_t > 0 else 0.0, 1e-6) / log_t


@dataclass(frozen=True)
class UcbParams:
    """Inputs of the delay-corrected confidence radius.

    ``alpha`` may be a positive float, a per-round schedule ``t -> alpha_t``
    (e.g. :func:`log_log_schedule`), or ``None`` for a radius without the
    bias term. ``delta`` defaults to ``1 / (K * T**3)``, which needs
    ``K * T > 1`` to lie below 1.
    """

    alpha: Optional[AlphaInput]
    K: int
    T: int
    delta: Optional[float] = None

    def __post_init__(self):
        check_int("K", self.K, 1)
        check_int("T", self.T, 1)
        if self.alpha is not None and not callable(self.alpha):
            check_real("alpha", self.alpha, positive=True)
        if self.delta is None:
            if self.K == self.T == 1:  # the default below would be exactly 1
                raise ValueError(
                    "horizon too short: the default delta = 1/(K*T**3) is 1 at K=1, T=1; "
                    "a one-arm config needs T >= 2"
                )
            object.__setattr__(self, "delta", 1.0 / (self.K * self.T**3))
        if not 0.0 < check_real("delta", self.delta) < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class AdaptParams:
    """Global tail-shape knowledge the self-tuning policy is allowed to use.

    ``c`` lower-bounds the tail relative to ``m ** -alpha``, ``alpha_floor``
    lower-bounds the unknown index, and ``mu_floor`` lower-bounds every
    arm mean.
    """

    c: float
    alpha_floor: float
    mu_floor: float
    K: int
    T: int

    def __post_init__(self):
        if not 0.0 < check_real("c", self.c) <= 1.0:
            raise ValueError(f"c must be in (0, 1], got {self.c}")
        check_real("alpha_floor", self.alpha_floor, positive=True)
        check_real("mu_floor", self.mu_floor, positive=True)
        if self.c * self.mu_floor == 0.0:  # alpha_bar divides by it
            raise ValueError(
                f"c * mu_floor underflows to 0 (c={self.c}, mu_floor={self.mu_floor})"
            )
        check_int("K", self.K, 1)
        check_int("T", self.T, 1)


def mu_hat(sum_arrived: float, pulls: int) -> float:
    """Arrived-reward mean: total arrived reward over total pulls.

    Biased low while conversions are still in flight; the radius's bias
    term is sized to cover exactly that.
    """
    if pulls < 1:
        raise UndefinedEstimatorError("mean estimator undefined with zero pulls")
    return sum_arrived / pulls


def deviation(pulls: int, delta: float) -> float:
    """Sampling deviation ``sqrt(2 * log(2 / delta) / pulls)``."""
    return math.sqrt(2.0 * math.log(2.0 / delta) / pulls)


def delay_bias(pulls: int, alpha: float) -> float:
    """Cover ``2 * pulls ** -(min(alpha, 0.5))`` for in-flight conversions."""
    return 2.0 * pulls ** -(0.5 if 0.5 < alpha else alpha)  # min(), without its call


def confidence_radius(pulls: int, params: UcbParams, round_: Optional[int] = None) -> float:
    """Deviation plus delay-bias radius for an arm pulled ``pulls`` times."""
    if pulls < 1:
        raise UndefinedEstimatorError("confidence radius undefined with zero pulls")
    alpha = params.alpha
    if callable(alpha):
        if round_ is None:
            raise ValueError("alpha is a schedule; the current round is required")
        alpha = alpha(round_)
    dev = deviation(pulls, params.delta)
    return dev if alpha is None else dev + delay_bias(pulls, alpha)


@functools.lru_cache(maxsize=8)  # paper-sweep uses 4 keys a pass; T = 1e5 takes ~3 MB
def radius_table(T: int, delta: float, alpha: Optional[float]) -> tuple[float, ...]:
    """Entry ``n - 1`` is ``deviation(n, delta)``, plus ``delay_bias(n, alpha)``
    unless ``alpha`` is None; a tuple, as every episode with the key shares it."""
    if alpha is not None:  # the bias on top of the cached deviation-only table
        deviations = radius_table(T, delta, None)
        return tuple([dev + delay_bias(n, alpha) for n, dev in enumerate(deviations, 1)])
    table = [0.0] * T  # an impossible T fails here, not after the loop
    for n in range(1, T + 1):
        table[n - 1] = deviation(n, delta)
    return tuple(table)


class BiasBound(NamedTuple):
    exact: float
    bound: float


def bias_bound_oracle(
    pull_rounds: Sequence[int],
    t: int,
    law: DelayLaw,
    mu: float,
    alpha: Optional[float] = None,
) -> BiasBound:
    """Exact censoring bias of the arrived mean next to its closed-form bound.

    For pulls at the given rounds evaluated at round ``t``, the arrived
    mean under-shoots ``mu`` by ``(mu / n) * sum_s (1 - cdf(t - s))``. The
    claimed cover is ``2 * n ** -(min(alpha, 0.5))``. Both sides are
    returned so tests can assert the inequality directly. ``alpha``
    defaults to the law's own tail index when it has one.
    """
    rounds = list(pull_rounds)
    if not rounds:
        raise ValueError("pull_rounds must be nonempty")
    if min(rounds) < 1 or max(rounds) > t:
        raise ValueError(f"pull rounds must lie in [1, {t}]")
    if alpha is None:
        alpha = getattr(law, "alpha", None)
        if alpha is None:
            raise ValueError("law has no tail index attribute; pass alpha explicitly")
    n = len(rounds)
    exact = mu * (math.fsum([law.tail(t - s) for s in rounds]) / n)
    bound = delay_bias(n, alpha)
    return BiasBound(exact, bound)


def alpha_hat(diff: float, pulls_of_leader: int) -> float:
    """Tail-index estimate from a waited-mean difference on the leader arm.

    ``diff`` is the gap between the long-wait and short-wait sample means;
    under a polynomial tail it scales like ``pulls ** -alpha``, so its log
    against ``log(pulls)`` recovers the index, capped at 1/2 (beyond which
    the index stops mattering to the radius). A nonpositive ``diff`` means
    noise swamped the signal; the estimate returns its cap, matching the
    ``diff -> 0+`` limit, and the confidence correction discounts it.
    """
    if pulls_of_leader < 2:
        raise InsufficientDataError(
            f"need at least 2 pulls of the leader, got {pulls_of_leader}"
        )
    if diff <= 0.0:
        return 0.5
    return min(-math.log(diff) / math.log(pulls_of_leader), 0.5)


def alpha_bar(
    ahat: float, pulls_of_leader: int, params: AdaptParams, delta: float
) -> float:
    """High-probability lower confidence bound on the tail index.

    Shifts the point estimate down by the estimation-noise allowance and
    clips at zero; feeding the radius a too-small index is safe (more
    patience), a too-large one is not.
    """
    if pulls_of_leader < 2:
        raise InsufficientDataError(
            f"need at least 2 pulls of the leader, got {pulls_of_leader}"
        )
    b = deviation(1, delta)
    correction = math.log(2.0**3.5 * b / (params.c * params.mu_floor)) / math.log(
        pulls_of_leader
    )
    return max(ahat - correction, 0.0)


def window_pair(pulls_of_leader: int, params: AdaptParams) -> tuple[int, int]:
    """Long and short waits (D, d) used to probe the leader's delay tail.

    D is half the leader's pull count; d shrinks it by the factor
    ``(c / 2) ** (1 / alpha_floor)`` that makes the waited-mean difference
    provably positive in expectation. Both are clamped to at least 1: a
    zero wait would only cover conversions that are never visible under
    the one-round observation lag.
    """
    if pulls_of_leader < 2:
        raise InsufficientDataError(
            f"need at least 2 pulls of the leader, got {pulls_of_leader}"
        )
    long_wait = pulls_of_leader // 2
    factor = (params.c / 2.0) ** (1.0 / params.alpha_floor)
    short_wait = max(1, math.floor(factor * long_wait))
    return long_wait, short_wait
