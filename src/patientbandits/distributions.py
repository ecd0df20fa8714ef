"""Reward and delay laws with exact sampling and closed-form delay CDFs.

Reward laws take values in [0, 1]; delay laws take values in the
nonnegative integers. The delay CDF ``tau(m) = P(D <= m)`` is the quantity
everything else in this package is built on: confidence bonuses, bias
audits, and tail-decay checks all reduce to how fast ``1 - tau(m)`` falls.

Every law draws by inverse transform: ``from_uniform(u)`` maps one uniform
``u`` in [0, 1) to one value, with no randomness of its own. Which uniform
feeds which law is pinned in one place, ``BanditInstance.draw``.

A delay law's ``tail(m)`` and ``cdf(m)`` take one real ``m`` and return a
Python float, computed with Python float arithmetic and the C library's
``pow``. No array path exists: a vectorised ``pow`` may round the last bit
differently on different CPUs, and D-UCB's index scales by ``cdf(m)``.
Delays are integers, so both are step functions of ``floor(m)``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union


def check_int(name: str, value, least: Optional[int] = None) -> int:
    """Return ``value`` if it is an integer, and at least ``least`` if given.

    Bools, floats (whole or infinite) and strings are refused, not
    truncated: a count or a delay written as 2.7 is a mistake.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_real(name: str, value, positive: bool = False):
    """Return ``value`` if it is a real number other than NaN.

    Bools and strings are refused, not converted: ``true`` is not 1. With
    ``positive`` the value must also be above 0 and finite; any other range
    is the caller's to check.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or math.isnan(value)
        or (positive and not 0.0 < value < math.inf)
    ):
        what = "a positive finite number" if positive else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Reward laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli:
    """Binary conversion: 1 with probability ``mu``, else 0."""

    mu: float

    def __post_init__(self):
        if not 0.0 <= check_real("mu", self.mu) <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")

    def mean(self) -> float:
        return self.mu

    def from_uniform(self, u: float) -> float:
        return 1.0 if u < self.mu else 0.0


@dataclass(frozen=True)
class PointMass:
    """Deterministic reward of fixed ``value``."""

    value: float

    def __post_init__(self):
        if not 0.0 <= check_real("value", self.value) <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {self.value}")

    def mean(self) -> float:
        return self.value

    def from_uniform(self, u: float) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Delay laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dirac:
    """All conversions arrive exactly ``d`` rounds after the pull."""

    d: int

    def __post_init__(self):
        check_int("d", self.d, 0)

    def tail(self, m: float) -> float:
        """``P(D > m)``."""
        return 0.0 if m >= self.d else 1.0

    def cdf(self, m: float) -> float:
        return 1.0 if m >= self.d else 0.0

    def from_uniform(self, u: float) -> int:
        return self.d


@dataclass(frozen=True)
class ParetoCeil:
    """Heavy-tailed integer delay: the ceiling of a unit-scale Pareto draw.

    The ceiling of a Pareto Type I variable with scale 1 and index
    ``alpha`` gives ``1 - cdf(m) = m ** -alpha`` exactly for every integer
    m >= 1, so the polynomial tail bound at index ``alpha`` holds with
    equality and nothing is hidden behind a discretization tolerance.
    """

    alpha: float
    # -1 / alpha, the exponent of every draw; computed once here.
    _exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_real("alpha", self.alpha, positive=True)
        object.__setattr__(self, "_exponent", -1.0 / self.alpha)

    def tail(self, m: float) -> float:
        """``P(D > m) = floor(m) ** -alpha``, and 1 below m = 1."""
        # No 1 - (1 - x) cancellation: libm's pow of the integer part.
        return float(math.floor(m)) ** -self.alpha if m >= 1 else 1.0

    def cdf(self, m: float) -> float:
        return 1.0 - self.tail(m)

    def from_uniform(self, u: float):
        try:
            return math.ceil((1.0 - u) ** self._exponent)  # 1 - u is in (0, 1]
        except OverflowError:  # past any horizon
            return math.inf


@dataclass(frozen=True)
class TwoPointMass:
    """Delay ``d0`` with probability ``1 - p`` and ``d1`` with probability ``p``.

    With ``d1`` set to the horizon this models conversions that are lost to
    censoring; the law itself is an honest distribution on the integers and
    the environment, not the law, decides what falls off the end.
    """

    p: float
    d0: int
    d1: int

    def __post_init__(self):
        if not 0.0 <= check_real("p", self.p) <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        check_int("d0", self.d0, 0)
        check_int("d1", self.d1, 0)

    def tail(self, m: float) -> float:
        """``P(D > m)``: the masses not yet arrived by ``m``."""
        # Each of tail and cdf sums its own two terms: 1 - (1 - p) is not
        # p bit for bit.
        return (0.0 if m >= self.d0 else 1.0 - self.p) + (0.0 if m >= self.d1 else self.p)

    def cdf(self, m: float) -> float:
        return (1.0 - self.p if m >= self.d0 else 0.0) + (self.p if m >= self.d1 else 0.0)

    def from_uniform(self, u: float) -> int:
        return self.d1 if u < self.p else self.d0


@dataclass(frozen=True)
class Geometric:
    """Light-tailed delay: P(D = k) = q * (1 - q)**k on k = 0, 1, 2, ..."""

    q: float

    def __post_init__(self):
        if not 0.0 < check_real("q", self.q) <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if 1.0 - self.q == 1.0:
            raise ValueError(f"q={self.q} is too small: 1 - q rounds to 1")

    def tail(self, m: float) -> float:
        """``P(D > m) = (1 - q) ** (floor(m) + 1)``, and 1 below m = 0."""
        return (1.0 - self.q) ** (math.floor(m) + 1) if m >= 0 else 1.0

    def cdf(self, m: float) -> float:
        return 1.0 - self.tail(m)

    def from_uniform(self, u: float) -> int:
        if self.q >= 1.0:
            return 0
        return int(math.log(1.0 - u) / math.log(1.0 - self.q))


RewardLaw = Union[Bernoulli, PointMass]
DelayLaw = Union[Dirac, ParetoCeil, TwoPointMass, Geometric]


def assumption1_margin(law: DelayLaw, alpha: float, m_max: int) -> float:
    """Worst slack of the polynomial tail bound over m in [1, m_max].

    Returns ``min_m (m**-alpha - (1 - cdf(m)))``; nonnegative iff the law's
    tail is dominated by ``m**-alpha`` on that range. ParetoCeil at its own
    index gives exactly 0.

    A Dirac or TwoPointMass tail is constant between its jump points, and
    ``m**-alpha`` falls as m grows, so each constant stretch is smallest at
    its right end: only ``d - 1`` for each jump ``d`` in [2, m_max], and
    ``m_max``, are evaluated. The other laws are evaluated at every m.
    """
    check_int("m_max", m_max, 1)
    check_real("alpha", alpha, positive=True)
    if type(law) in (Dirac, TwoPointMass):
        jumps = (law.d,) if type(law) is Dirac else (law.d0, law.d1)
        ms = sorted({d - 1 for d in jumps if 2 <= d <= m_max} | {m_max})
    else:
        ms = range(1, m_max + 1)
    return min(float(m) ** -alpha - law.tail(m) for m in ms)


# ---------------------------------------------------------------------------
# Construction from config tags
# ---------------------------------------------------------------------------

REWARD_LAWS = {"bernoulli": Bernoulli, "point_mass": PointMass}
DELAY_LAWS = {
    "dirac": Dirac,
    "pareto_ceil": ParetoCeil,
    "two_point": TwoPointMass,
    "geometric": Geometric,
}


def from_spec(kinds: Mapping, spec: Mapping, what: str):
    """Build ``kinds[tag]`` from a ``{"kind": tag, ...params}`` mapping.

    The parameters are passed on as they are, so the class's own checks
    are the only ones; a missing or unknown parameter raises ``TypeError``.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"{what} spec must be an object, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](**params)
