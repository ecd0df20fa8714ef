"""Statistical machinery: censored means, confidence radii, tail-index estimates.

All logarithms are natural. The confidence radius on an arm pulled ``n``
times is::

    sqrt(2 * log(2 / delta) / n)  +  2 * n ** -(min(alpha, 0.5))

The first term is the usual sampling deviation; the second compensates for
conversions that have not arrived yet, assuming delay tails decay at least
as fast as ``m ** -alpha``. The default confidence level is
``delta = 1 / (K * T**3)``, which folds the union bound over arms, rounds
and sample sizes into the radius. Both terms are scalar C-library math on
Python numbers. An index policy's ``select`` computes an arm's radius from
them when the arm's pull count moves, and the compiled kernel
(:mod:`.kernel`) repeats the same operations in C when the arm is pulled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    constant factor, asymptotically. Defined for ``t >= 2``, which every
    round after a sweep of at least one arm is; ``ValueError`` below that.
    Clamped below so early rounds (where ``log log t`` is negative) still
    produce a positive value.
    """
    if not t >= 2:
        raise ValueError(f"log_log_schedule is defined for rounds t >= 2, got {t!r}")
    log_t = math.log(t)
    return max(math.log(log_t), 1e-6) / log_t


@dataclass(frozen=True)
class UcbParams:
    """Inputs of the delay-corrected confidence radius.

    ``alpha`` may be a positive float, a per-round schedule ``t -> alpha_t``
    (e.g. :func:`log_log_schedule`), or ``None`` for a radius without the
    bias term. ``delta`` defaults to ``1 / (K * T**3)``, which needs
    ``K * T > 1`` to lie below 1. It must also be large enough, about
    1.1e-308 and up, that ``log(2 / delta)`` is finite.
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
        if 2.0 / self.delta == math.inf:  # every radius would be +inf
            raise ValueError(
                f"delta must be at least about 1.1e-308, got {self.delta}: "
                "log(2/delta) overflows"
            )


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
    # (c / 2) ** (1 / alpha_floor), the short wait's share of the long one;
    # computed once here, as window_pair needs it every round.
    window_factor: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "window_factor", (self.c / 2.0) ** (1.0 / self.alpha_floor))


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


def alpha_bar_offset(params: AdaptParams, delta: float) -> float:
    """Numerator of :func:`alpha_bar`'s correction, constant over an episode:
    ``log(2**3.5 * b / (c * mu_floor))`` with ``b = deviation(1, delta)``,
    clamped at 0. A negative correction would lift the lower bound above the
    point estimate, and above the 0.5 cap; at 0 the bound is the estimate."""
    return max(math.log(2.0**3.5 * deviation(1, delta) / (params.c * params.mu_floor)), 0.0)


def alpha_bar(ahat: float, pulls_of_leader: int, offset: float) -> float:
    """High-probability lower confidence bound on the tail index.

    Shifts the point estimate down by the estimation-noise allowance
    ``offset / log(pulls_of_leader)`` and clips at zero; feeding the radius
    a too-small index is safe (more patience), a too-large one is not.
    ``offset`` is ``alpha_bar_offset(params, delta)``, constant over an episode.
    """
    if pulls_of_leader < 2:
        raise InsufficientDataError(
            f"need at least 2 pulls of the leader, got {pulls_of_leader}"
        )
    return max(ahat - offset / math.log(pulls_of_leader), 0.0)


def alpha_bar_threshold(offset: float) -> Union[int, float]:
    """Smallest leader pull count ``n`` with ``alpha_bar(0.5, n, offset) > 0``.

    As ``alpha_hat`` is at most 0.5 and ``0.5 - offset / log(n)`` rises with
    ``n``, the bound is 0 at every count below this one, whatever the waited
    means. That needs ``n > exp(2 * offset)``; the float rounding at the
    threshold is settled by ``alpha_bar`` itself, in a bisection, as
    ``log(n)`` stops changing with each unit step of a large ``n``. 2 when
    ``offset <= 0``, ``math.inf`` when the threshold is beyond the float range.
    """

    def active(n: int) -> bool:
        return alpha_bar(0.5, n, offset) > 0.0

    try:
        hi = max(2, math.floor(math.exp(2.0 * offset)) + 1)
    except OverflowError:
        return math.inf
    lo = 1  # below every count alpha_bar accepts, so inactive by definition
    while not active(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if active(mid) else (mid, hi)
    return hi


def alpha_bar_activation(K: int, T: int, params: AdaptParams) -> Union[int, float]:
    """:func:`alpha_bar_threshold` at the policies' default ``delta = 1 / (K * T**3)``:
    below this leader pull count the adaptive policy runs as UCB plus a constant bias."""
    return alpha_bar_threshold(alpha_bar_offset(params, UcbParams(alpha=None, K=K, T=T).delta))


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
    short_wait = max(1, math.floor(params.window_factor * long_wait))
    return long_wait, short_wait
