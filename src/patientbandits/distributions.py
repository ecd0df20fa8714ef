"""Reward and delay laws with exact sampling and closed-form delay CDFs.

Reward laws take values in [0, 1]; delay laws take values in the
nonnegative integers. The delay CDF ``tau(m) = P(D <= m)`` is the quantity
everything else in this package is built on: confidence bonuses, bias
audits, and tail-decay checks all reduce to how fast ``1 - tau(m)`` falls.

Stream contract: every scalar ``sample`` call consumes exactly one value
from the supplied random generator, whatever the law. Coupled-run tests
rely on this to keep two environments' draw streams aligned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np


def _scalar_or_array(x):
    # np.where produces 0-d arrays for scalar queries; unwrap those.
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# Reward laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli:
    """Binary conversion: 1 with probability ``mu``, else 0."""

    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")

    def mean(self) -> float:
        return self.mu

    def sample(self, rng, size=None):
        if size is None:
            return 1.0 if rng.random() < self.mu else 0.0
        return (rng.random(size) < self.mu).astype(np.float64)


@dataclass(frozen=True)
class PointMass:
    """Deterministic reward of fixed ``value``."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {self.value}")

    def mean(self) -> float:
        return self.value

    def sample(self, rng, size=None):
        if size is None:
            rng.random()  # consumed so every pull costs one draw per law
            return self.value
        rng.random(size)
        return np.full(size, self.value)


# ---------------------------------------------------------------------------
# Delay laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dirac:
    """All conversions arrive exactly ``d`` rounds after the pull."""

    d: int

    def __post_init__(self):
        if self.d < 0 or int(self.d) != self.d:
            raise ValueError(f"d must be a nonnegative integer, got {self.d}")

    def tail(self, m):
        return _scalar_or_array(np.where(np.asarray(m) >= self.d, 0.0, 1.0))

    def cdf(self, m):
        return _scalar_or_array(np.where(np.asarray(m) >= self.d, 1.0, 0.0))

    def sample(self, rng, size=None):
        if size is None:
            rng.random()
            return self.d
        rng.random(size)
        return np.full(size, float(self.d))


@dataclass(frozen=True)
class ParetoCeil:
    """Heavy-tailed integer delay: the ceiling of a unit-scale Pareto draw.

    The ceiling of a Pareto Type I variable with scale 1 and index
    ``alpha`` gives ``1 - cdf(m) = m ** -alpha`` exactly for every integer
    m >= 1, so the polynomial tail bound at index ``alpha`` holds with
    equality and nothing is hidden behind a discretization tolerance.
    """

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    def tail(self, m):
        # m ** -alpha exactly (no 1 - (1 - x) cancellation) for m >= 1.
        m = np.asarray(m, dtype=np.float64)
        return _scalar_or_array(np.where(m >= 1.0, m, 1.0) ** -self.alpha)

    def cdf(self, m):
        m = np.asarray(m, dtype=np.float64)
        return _scalar_or_array(np.where(m >= 1.0, 1.0 - self.tail(m), 0.0))

    def sample(self, rng, size=None):
        if size is None:
            u = 1.0 - rng.random()  # uniform on (0, 1]
            try:
                return math.ceil(u ** (-1.0 / self.alpha))
            except OverflowError:  # past any horizon; the array path gives inf too
                return math.inf
        u = 1.0 - rng.random(size)
        return np.ceil(u ** (-1.0 / self.alpha))


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
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        for name in ("d0", "d1"):
            v = getattr(self, name)
            if v < 0 or int(v) != v:
                raise ValueError(f"{name} must be a nonnegative integer, got {v}")

    def tail(self, m):
        m = np.asarray(m)
        out = np.where(m >= self.d0, 0.0, 1.0 - self.p) + np.where(
            m >= self.d1, 0.0, self.p
        )
        return _scalar_or_array(out)

    def cdf(self, m):
        m = np.asarray(m)
        out = np.where(m >= self.d0, 1.0 - self.p, 0.0) + np.where(
            m >= self.d1, self.p, 0.0
        )
        return _scalar_or_array(out)

    def sample(self, rng, size=None):
        if size is None:
            return self.d1 if rng.random() < self.p else self.d0
        return np.where(rng.random(size) < self.p, float(self.d1), float(self.d0))


@dataclass(frozen=True)
class Geometric:
    """Light-tailed delay: P(D = k) = q * (1 - q)**k on k = 0, 1, 2, ..."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if 1.0 - self.q == 1.0:
            raise ValueError(f"q={self.q} is too small: 1 - q rounds to 1")

    def tail(self, m):
        m = np.asarray(m, dtype=np.float64)
        out = np.where(m >= 0.0, (1.0 - self.q) ** (np.floor(m) + 1.0), 1.0)
        return _scalar_or_array(out)

    def cdf(self, m):
        m = np.asarray(m, dtype=np.float64)
        out = np.where(m >= 0.0, 1.0 - (1.0 - self.q) ** (np.floor(m) + 1.0), 0.0)
        return _scalar_or_array(out)

    def sample(self, rng, size=None):
        if size is None:
            u = 1.0 - rng.random()
            if self.q >= 1.0:
                return 0
            return int(math.log(u) / math.log(1.0 - self.q))
        u = 1.0 - rng.random(size)
        if self.q >= 1.0:
            return np.zeros(size)
        return np.floor(np.log(u) / math.log(1.0 - self.q))


RewardLaw = Union[Bernoulli, PointMass]
DelayLaw = Union[Dirac, ParetoCeil, TwoPointMass, Geometric]


def assumption1_margin(law: DelayLaw, alpha: float, m_max: int) -> float:
    """Worst slack of the polynomial tail bound over m in [1, m_max].

    Returns ``min_m (m**-alpha - (1 - cdf(m)))``; nonnegative iff the law's
    tail is dominated by ``m**-alpha`` on that range. ParetoCeil at its own
    index gives exactly 0.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    m = np.arange(1, m_max + 1, dtype=np.float64)
    return float(np.min(m**-alpha - law.tail(m)))


# ---------------------------------------------------------------------------
# Construction from config tags
# ---------------------------------------------------------------------------

_REWARD_TAGS = {"bernoulli", "point_mass"}
_DELAY_TAGS = {"dirac", "pareto_ceil", "two_point", "geometric"}


def reward_law_from_spec(spec: Mapping) -> RewardLaw:
    """Build a reward law from a ``{"kind": tag, ...params}`` mapping."""
    kind = spec.get("kind")
    if kind == "bernoulli":
        return Bernoulli(mu=float(spec["mu"]))
    if kind == "point_mass":
        return PointMass(value=float(spec["value"]))
    raise ValueError(f"unknown reward law kind {kind!r}; expected one of {sorted(_REWARD_TAGS)}")


def delay_law_from_spec(spec: Mapping) -> DelayLaw:
    """Build a delay law from a ``{"kind": tag, ...params}`` mapping."""
    kind = spec.get("kind")
    if kind == "dirac":
        return Dirac(d=int(spec["d"]))
    if kind == "pareto_ceil":
        return ParetoCeil(alpha=float(spec["alpha"]))
    if kind == "two_point":
        return TwoPointMass(p=float(spec["p"]), d0=int(spec["d0"]), d1=int(spec["d1"]))
    if kind == "geometric":
        return Geometric(q=float(spec["q"]))
    raise ValueError(f"unknown delay law kind {kind!r}; expected one of {sorted(_DELAY_TAGS)}")
