"""Decision rules: the delay-patient index policies and reference baselines.

Every policy sees the world only through an :class:`ObservationView`; true
means, raw delays, and unarrived rewards are structurally out of reach.
Ties in any argmax break toward the lowest arm index so that episodes are
bit-for-bit reproducible.

Config tags: ``patient``, ``adapt``, ``ducb``, ``ucb``, ``uniform``
(see :data:`POLICIES`).
"""
from __future__ import annotations

import functools
import math
from typing import Mapping, Optional

from . import estimators
from .distributions import DELAY_LAWS, DelayLaw, check_int, check_real, from_spec
from .environment import ObservationView
from .estimators import AdaptParams, AlphaInput, UcbParams, mu_hat


class Policy:
    """Contract: ``reset(n_arms, horizon)`` once, then ``select`` each round.

    ``reads_rng`` says whether ``select`` may draw from its ``rng``. If so,
    it is handed the episode's stream, which offers ``random()`` and
    ``integers(n)`` with the values of the generator's own calls, and its
    draws interleave with the pulls' on that stream. A policy that sets it
    false is handed ``rng=None``, and the pulls read the episode's reward and
    delay uniforms from blocks drawn ahead (see :mod:`.harness`).

    ``radius_index``, read after ``reset``, is None unless, for the whole
    episode, the policy's choice is: the arm with fewest pulls while some arm
    has fewer than ``init_pulls``, then the first argmax at round ``t`` of
    ``sums[i] / n + (deviation(n, delta) + delay_bias(n, alpha))``, with no
    bias when ``alpha`` is None and ``alpha(t)`` for a schedule. It is then
    ``(T, delta, alpha)``, and the policy also has ``init_pulls``.
    ``monte_carlo`` plays the episode in the compiled kernel (:mod:`.kernel`)
    when the instance's laws allow and a C compiler is available, with no
    ``select`` call; otherwise, and always in ``simulate``, the generic loop
    calls ``select`` every round.

    ``window_index``, read after ``reset``, is likewise None unless the
    policy's choice is ``ducb``'s for the whole episode: ``t % K`` at round
    ``t < m + K``, then the first argmax of :func:`ducb_index` over each
    arm's ``windowed(i, m)``, infinite for an empty window. It is then
    ``(m, tau_m)``, and ``monte_carlo`` plays the episode in the compiled
    kernel when it can, and otherwise in the generic loop.

    ``uniform_index`` is likewise None unless the policy's choice is
    ``uniform``'s for the whole episode: ``rng.integers(K)`` each round,
    drawn before the round's pull. It is then True, and ``monte_carlo``
    plays the episode in the compiled kernel, on the generator's raw
    outputs, when it can. Only ``adapt`` above its threshold, a policy that
    overrides ``select``, an instance that overrides ``draw`` and a host
    without a compiler still leave ``monte_carlo`` to the generic loop, and
    so, with several workers, to worker processes. Every engine gives the
    generic loop's bits (see :mod:`.harness`).
    """

    label = "policy"
    reads_rng = True
    radius_index = None
    window_index = None
    uniform_index = None

    def reset(self, n_arms: int, horizon: int) -> None:
        raise NotImplementedError

    def select(self, view: ObservationView, rng) -> int:
        raise NotImplementedError


class OptimisticIndex(Policy):
    """Pick the arm maximising ``arrived mean + deviation + delay bias``.

    Every arm is first swept ``init_pulls`` times, fewest pulls first and
    the lowest index on ties; afterwards the argmax of the index is taken,
    again breaking ties toward the lowest index. ``alpha`` is the bias
    exponent: ``None`` for no bias term, a float folded into the shared
    radius table, or a schedule of the round. Subclasses whose
    exponent depends on the round override :meth:`bias_alpha`. Unless a
    subclass overrides :meth:`select` or :meth:`bias_alpha`, sweeps no pull
    or sets its own radius table, the policy declares its
    :attr:`radius_index`, and ``monte_carlo`` plays the episode
    in the compiled kernel when it can, which computes :meth:`select`'s
    index bit for bit; ``simulate`` runs the generic loop.
    """

    init_pulls = 1
    alpha: Optional[AlphaInput] = None
    reads_rng = False

    def reset(self, n_arms: int, horizon: int) -> None:
        self.params = UcbParams(alpha=self.alpha, K=n_arms, T=horizon, delta=self.delta)
        self.__dict__.pop("_radius_table", None)  # the next episode's is built when read
        # delay_bias(n, 0.0) is 2 * n ** -0.0, the same at every n (and at -0.0).
        self._flat_bias = estimators.delay_bias(1, 0.0)

    @functools.cached_property
    def _radius_table(self) -> tuple[float, ...]:
        """Entry ``n - 1`` is the radius at ``n`` pulls, bias included for a float alpha.

        Built on first read after :meth:`reset`, not in it: parsing a config
        resets its policy, and must not cost O(T).
        """
        params = self.params
        alpha = params.alpha
        return estimators.radius_table(params.T, params.delta, None if callable(alpha) else alpha)

    @property
    def radius_index(self):
        """``(T, delta, alpha)`` of the radius, or None (see :meth:`_radius_index`);
        read right after :meth:`reset`."""
        return self._radius_index(OptimisticIndex.bias_alpha, self.params.alpha)

    def _radius_index(self, bias_alpha, alpha):
        """``(T, delta, alpha)``, or None unless ``select`` is this class's,
        ``bias_alpha`` is the one given, every arm is swept at least once (a
        radius at 0 pulls is undefined), and no table was set in place of
        the one :attr:`_radius_table` builds when read."""
        cls = type(self)
        if (
            cls.select is not OptimisticIndex.select
            or cls.bias_alpha is not bias_alpha
            or self.init_pulls < 1
            or "_radius_table" in vars(self)
        ):
            return None
        return self.params.T, self.params.delta, alpha

    def bias_alpha(self, view: ObservationView) -> Optional[float]:
        """This round's bias exponent, or None when the table holds the whole radius."""
        return self.alpha(view.t) if callable(self.alpha) else None

    def select(self, view: ObservationView, rng) -> int:
        counts = view.counts
        fewest = min(counts)
        if fewest < self.init_pulls:
            return counts.index(fewest)
        sums = view.sums
        table = self._radius_table
        best, best_index, i = 0, -math.inf, 0
        alpha = self.bias_alpha(view)
        flat = self._flat_bias if alpha == 0.0 else None
        for n in counts:
            radius = table[n - 1]
            if alpha is not None:
                radius = radius + (flat if flat is not None else estimators.delay_bias(n, alpha))
            index = mu_hat(sums[i], n) + radius
            if index > best_index:
                best, best_index = i, index
            i += 1
        return best


class PatientBandits(OptimisticIndex):
    """Optimistic index policy with a bias bonus for in-flight conversions.

    Pulls every arm once, then maximizes ``arrived mean + radius`` where
    the radius carries the extra ``2 * n ** -(min(alpha, 0.5))`` term that
    keeps underestimated, slow-converting arms in the running. ``alpha``
    is the assumed tail-decay exponent: a float, the string ``"loglog"``
    for the horizon-free schedule, or any callable of the round.
    """

    def __init__(self, alpha, delta: Optional[float] = None):
        if alpha == "loglog":
            alpha = estimators.log_log_schedule
        self.alpha = alpha
        self.delta = delta
        shown = "loglog" if callable(alpha) else f"{check_real('alpha', alpha, positive=True):g}"
        self.label = f"patient(alpha={shown})"


class AdaptPatientBandits(OptimisticIndex):
    """Patient index policy that estimates the tail exponent as it goes.

    Pulls every arm twice, then each round probes the most-pulled arm with
    a long and a short wait, turns the waited-mean difference into a
    tail-index estimate, lower-bounds it for confidence, and plugs that
    bound into the patient radius. Until the most-pulled arm has enough
    pulls for the bound to be positive, it skips the probe: the bound is 0.
    When that count is at least T, the bound is 0 all episode and the policy
    is ``ucb`` with two sweeps and a constant bias: its :attr:`radius_index`
    then declares exponent 0, and the compiled kernel plays it;
    :attr:`alpha_bar_history` is only filled by :meth:`select`, so by
    ``simulate``.
    Needs only coarse structural floors (``c``, ``alpha_floor``,
    ``mu_floor``), not the index itself.
    """

    init_pulls = 2

    def __init__(
        self,
        c: float,
        alpha_floor: float,
        mu_floor: float,
        delta: Optional[float] = None,
    ):
        self.delta = delta
        # Checked before the label formats them. No commas: labels end up in CSV cells.
        self.c = check_real("c", c)
        self.alpha_floor = check_real("alpha_floor", alpha_floor)
        self.mu_floor = check_real("mu_floor", mu_floor)
        self.label = f"adapt(c={c:g};alpha_floor={alpha_floor:g};mu_floor={mu_floor:g})"
        self.alpha_bar_history: list[float] = []

    def reset(self, n_arms: int, horizon: int) -> None:
        super().reset(n_arms, horizon)
        self.tail_params = AdaptParams(
            c=self.c,
            alpha_floor=self.alpha_floor,
            mu_floor=self.mu_floor,
            K=n_arms,
            T=horizon,
        )
        self._alpha_bar_offset = estimators.alpha_bar_offset(self.tail_params, self.params.delta)
        self._alpha_bar_threshold = estimators.alpha_bar_threshold(self._alpha_bar_offset)
        self.alpha_bar_history = []

    @property
    def radius_index(self):
        """``(T, delta, 0.0)`` when the bound is 0 all episode, else None.

        So it is when the threshold is at least T: the leader has at most
        T - 1 pulls. None also as :meth:`~OptimisticIndex._radius_index` says.
        """
        if self._alpha_bar_threshold < self.params.T:
            return None
        return self._radius_index(AdaptPatientBandits.bias_alpha, 0.0)

    def bias_alpha(self, view: ObservationView) -> float:
        """The tail-index lower bound computable from this round's view, recorded.

        Exactly 0, with no window query, while the leader has fewer pulls than
        :func:`~.estimators.alpha_bar_threshold`: rewards lie in [0, 1], so the
        waited-mean difference is finite and ``alpha_hat`` at most 0.5.
        """
        leader_pulls = max(view.counts)
        if leader_pulls < self._alpha_bar_threshold:
            self.alpha_bar_history.append(0.0)
            return 0.0
        leader = view.counts.index(leader_pulls)  # the lowest index on ties
        long_wait, short_wait = estimators.window_pair(leader_pulls, self.tail_params)
        n_long, total_long = view.windowed(leader, long_wait)
        n_short, total_short = view.windowed(leader, short_wait)
        if n_long > 0 and n_short > 0:
            diff = total_long / n_long - total_short / n_short
        else:
            diff = 0.0  # no usable window yet; same discounting as a null signal
        ahat = estimators.alpha_hat(diff, leader_pulls)
        abar = estimators.alpha_bar(ahat, leader_pulls, self._alpha_bar_offset)
        self.alpha_bar_history.append(abar)
        return abar


def ducb_index(windowed_total: float, windowed_count: int, tau_m: float, t: int) -> float:
    """Threshold-window index: de-censored mean plus its deviation term."""
    scale = tau_m * windowed_count
    return windowed_total / scale + math.sqrt(2.0 * math.log(t) / scale)


class DUcb(Policy):
    """Delay-thresholded UCB baseline.

    Waits ``m`` rounds before counting any pull's feedback, de-biases the
    windowed mean by the supplied delay CDF evaluated at ``m``, and plays
    round-robin until round ``m + K``. The CDF is a modelling input, not
    ground truth: handing it a wrong one is exactly the failure mode worth
    studying. Its wait is fixed, so it declares :attr:`window_index`, and
    ``monte_carlo`` plays its episodes in the compiled kernel without calling
    :meth:`select`, which computes the same index bit for bit.
    """

    reads_rng = False

    def __init__(self, m: int, cdf: DelayLaw):
        self.m = check_int("threshold m", m, 1)
        self.cdf = cdf
        try:
            self.tau_m = cdf.cdf(self.m)
        except OverflowError:  # a law whose cdf takes float(m), or a power of it
            raise ValueError(
                "threshold m is too large: the assumed delay CDF cannot be evaluated there"
            ) from None
        if self.tau_m <= 0.0:
            raise ValueError(
                f"assumed delay CDF is 0 at the threshold m={m}; the index is undefined"
            )
        self.label = f"ducb(m={m})"

    def reset(self, n_arms: int, horizon: int) -> None:
        pass

    @property
    def window_index(self):
        """``(m, tau_m)``, or None when a subclass overrides :meth:`select`."""
        return None if type(self).select is not DUcb.select else (self.m, self.tau_m)

    def select(self, view: ObservationView, rng) -> int:
        t = view.t
        K = len(view.counts)
        if t < self.m + K:
            return t % K
        best, best_index = 0, -math.inf
        for i in range(K):
            count, total = view.windowed(i, self.m)
            index = math.inf if count == 0 else ducb_index(total, count, self.tau_m, t)
            if index > best_index:
                best, best_index = i, index
        return best


class VanillaUcb(OptimisticIndex):
    """Classical UCB, blind to delays: arrived mean plus deviation term only."""

    label = "ucb"

    def __init__(self, delta: Optional[float] = None):
        self.delta = delta


class UniformRandom(Policy):
    """Pulls a uniformly random arm every round; the no-learning floor.

    The arm is ``rng.integers(K)`` on the episode's stream, drawn before the
    round's pull reads its two uniforms; at K = 1 it draws nothing. Unless a
    subclass overrides :meth:`select`, the policy declares its
    :attr:`uniform_index`, and ``monte_carlo`` plays its episodes in the
    compiled kernel, on threads when there are several workers and enough
    rounds (``harness.THREAD_ROUNDS``), reading the generator's raw outputs
    as the stream does; ``simulate`` runs the generic loop.
    """

    label = "uniform"

    def reset(self, n_arms: int, horizon: int) -> None:
        pass

    @property
    def uniform_index(self):
        """True, or None when a subclass overrides :meth:`select`."""
        return None if type(self).select is not UniformRandom.select else True

    def select(self, view: ObservationView, rng) -> int:
        return int(rng.integers(len(view.counts)))


def _ducb_from_spec(m, cdf: Mapping) -> DUcb:
    return DUcb(m, from_spec(DELAY_LAWS, cdf, "delay law"))


POLICIES = {
    "patient": PatientBandits,
    "adapt": AdaptPatientBandits,
    "ducb": _ducb_from_spec,  # its assumed delay CDF is itself a law spec
    "ucb": VanillaUcb,
    "uniform": UniformRandom,
}
