"""Where the tracer wraps the program, and the per-layer metrics it derives.

The layers are the modules of ``src/patientbandits``: distributions,
environment, estimators, policies, harness and cli. Each boundary wraps a
public call at the place the program looks it up:

- ``BanditInstance`` caches its laws' bound samplers when it is built, so the
  distributions layer is timed at ``BanditInstance.draw``, the one call that
  reaches them.
- ``policies`` imports ``mu_hat`` by name, so that name is wrapped in
  ``policies`` as well as in ``estimators``.
- ``cli`` imports ``monte_carlo`` by name and ``harness`` imports
  ``ProcessPoolExecutor`` by name; both are wrapped in the importing module.

Forked pool workers keep their own copies of these counters, which never
return to the parent, so per-call boundaries are only installed for serial
passes. Parallel passes see the parent side alone: configs validated and
written, ``monte_carlo`` wall time and pool start-ups.
"""
from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field

from patientbandits import cli, environment, estimators, harness, policies
from simbench import calibrate
from simbench.tracer import Tracer, WrapperCost

ESTIMATOR_FUNCTIONS = (
    "mu_hat", "confidence_radius", "window_pair", "alpha_hat", "alpha_bar", "log_log_schedule",
)

# Self-time metrics in microseconds per simulated round, by the boundaries they add up.
SELF_US_PER_ROUND = {
    "distributions.draw_us": ("distributions.draw",),
    "environment.pull_us": ("environment.pull",),
    "environment.observe_us": ("environment.observe",),
    "environment.regret_us": ("environment.regret",),
    "environment.windowed_us": ("environment.windowed",),
    "policies.select_us": ("policies.select",),
    "estimators.self_us_per_round": tuple(f"estimators.{f}" for f in ESTIMATOR_FUNCTIONS),
    "harness.loop_us": ("harness.simulate",),
}


def _count_bytes(tracer, args, result) -> None:
    path = args[0]
    tracer.counters["bytes_written"] += os.path.getsize(path) + os.path.getsize(path + ".meta.json")


def _count_censoring(tracer, args, result) -> None:
    env, _ = result
    tracer.counters["censored"] += env.censored_count
    tracer.counters["pulls"] += sum(env.pull_counts)


def _count_zero_alpha_bar(tracer, args, result) -> None:
    tracer.counters["alpha_bar_zero"] += result == 0.0


def install_parent(tracer) -> None:
    """Boundaries crossed once per config, all in the parent process."""
    tracer.install(cli.ExperimentConfig, "from_dict", "cli.validate")
    tracer.install(cli, "write_results", "cli.write", after=_count_bytes)
    tracer.install(cli, "monte_carlo", "harness.monte_carlo", span=True)
    tracer.install(harness, "ProcessPoolExecutor", "harness.pool_start")


def install_episodes(tracer) -> None:
    """One span per simulated episode; only meaningful on a serial pass."""
    tracer.install(harness, "simulate", "harness.simulate", span=True, after=_count_censoring)


def _policy_classes():
    return [
        cls for cls in vars(policies).values()
        if isinstance(cls, type) and issubclass(cls, policies.Policy)
        and cls is not policies.Policy and "select" in vars(cls)
    ]


def install_calls(tracer) -> None:
    """Per-call boundaries of the inner loop; they cost 1.2x to 1.8x wall time."""
    tracer.install(environment.BanditInstance, "draw", "distributions.draw")
    tracer.install(environment.DelayedBanditEnv, "pull", "environment.pull")
    tracer.install(environment.DelayedBanditEnv, "observe", "environment.observe")
    tracer.install(environment.DelayedBanditEnv, "true_pseudo_regret", "environment.regret")
    tracer.install(environment.ObservationView, "windowed", "environment.windowed")
    for cls in _policy_classes():
        tracer.install(cls, "select", "policies.select")
    for fn in ESTIMATOR_FUNCTIONS:
        after = _count_zero_alpha_bar if fn == "alpha_bar" else None
        tracer.install(estimators, fn, f"estimators.{fn}", after=after)
    tracer.install(policies, "mu_hat", "estimators.mu_hat")


@dataclass
class Phase:
    """One phase of the traced run: its tracer and its passes.

    A pass maps each config key to ``(seconds, kernel_seconds)``; see
    ``calibrate``. ``wrapper`` is the cost of one wrapped call at the
    phase's speed, taken out of self times; it is only measured for the
    phase with per-call boundaries.
    """

    tracer: Tracer
    passes: list = field(default_factory=list)
    wrapper: WrapperCost = field(default_factory=WrapperCost)

    @property
    def speed(self) -> float:
        return calibrate.speed(self.passes)

    def wrapper_at_speed(self, costs) -> WrapperCost:
        """Median of ``(WrapperCost, kernel_seconds)`` measurements, each at this phase's speed.

        The machine's speed drifts during a phase; each measurement is
        scaled like the phase's totals, so the two can be subtracted.
        """
        kernel_s = calibrate.REFERENCE_SECONDS / self.speed
        return WrapperCost(
            statistics.median(c.outside_ns * kernel_s / k for c, k in costs),
            statistics.median(c.inside_ns * kernel_s / k for c, k in costs),
        )

    def calls(self, name: str) -> int:
        b = self.tracer.boundaries.get(name)
        return 0 if b is None else b.calls

    def self_us(self, names) -> float:
        """Self time of the named boundaries less the wrappers' cost, µs at reference speed."""
        b = self.tracer.boundaries
        return sum(self.wrapper.self_ns(b[n]) for n in names if n in b) / 1e3 * self.speed

    def mean_ms(self, name: str) -> float:
        """Mean total time per call, milliseconds at reference speed."""
        b = self.tracer.boundaries.get(name)
        return 0.0 if b is None or b.calls == 0 else b.total_ns / b.calls / 1e6 * self.speed

    def config_spans(self) -> dict:
        return {i: a["key"] for i, a in self.tracer.span_attrs.items() if "key" in a}


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pool_overhead_ms(untraced: Phase, native: Phase, jobs: int) -> float:
    """Mean over configs of the pooled ``monte_carlo`` wall minus serial episode time / jobs."""
    serial_configs = untraced.config_spans()
    episode_ns = dict.fromkeys(serial_configs, 0)
    for span_id, ns in untraced.tracer.spans_beneath(set(serial_configs), "harness.simulate"):
        episode_ns[span_id] += ns
    by_key = {}
    for span_id, key in serial_configs.items():
        by_key.setdefault(key, []).append(episode_ns[span_id])
    pooled_configs = native.config_spans()
    overheads = [
        ns * native.speed - statistics.median(by_key[pooled_configs[span_id]]) * untraced.speed / jobs
        for span_id, ns in native.tracer.spans_beneath(set(pooled_configs), "harness.monte_carlo")
    ]
    return statistics.fmean(overheads) / 1e6


def per_layer_metrics(*, setup: Phase, untraced: Phase, native: Phase | None, traced: Phase,
                      rounds_per_pass: int, jobs: int | None) -> dict:
    """Per-layer metrics from the phases of one traced run.

    ``setup`` validated the inputs; ``untraced`` ran serial passes with
    episode spans only; ``native`` (pooled workloads only) ran one pass with
    the workload's own ``--jobs``; ``traced`` ran serial passes with every
    per-call boundary. Counts are per pass, ``*_us`` metrics are self
    microseconds per simulated round with the wrappers' own cost taken out,
    and every time is at reference speed.
    """
    traced_passes = len(traced.passes)
    traced_rounds = rounds_per_pass * traced_passes
    metrics = {m: traced.self_us(names) / traced_rounds for m, names in SELF_US_PER_ROUND.items()}
    alpha_bar_calls = traced.calls("estimators.alpha_bar")
    episodes_ms = [
        (end - start) / 1e6 * untraced.speed
        for _, _, n, start, end in untraced.tracer.spans if n == "harness.simulate"
    ]
    pulls = traced.tracer.counters["pulls"]
    pooled = native if native is not None else untraced
    metrics.update({
        "distributions.draw_calls": traced.calls("distributions.draw") / traced_passes,
        "environment.windowed_calls": traced.calls("environment.windowed") / traced_passes,
        "environment.censored_frac": traced.tracer.counters["censored"] / pulls if pulls else 0.0,
        "policies.select_calls": traced.calls("policies.select") / traced_passes,
        "estimators.calls": sum(
            traced.calls(f"estimators.{f}") for f in ESTIMATOR_FUNCTIONS) / traced_passes,
        "estimators.alpha_bar_zero_frac": (
            traced.tracer.counters["alpha_bar_zero"] / alpha_bar_calls if alpha_bar_calls else 0.0
        ),
        "harness.episode_ms_p50": _percentile(episodes_ms, 50),
        "harness.episode_ms_p95": _percentile(episodes_ms, 95),
        "harness.pool_starts": pooled.calls("harness.pool_start") / len(pooled.passes),
        "harness.pool_overhead_ms": (
            0.0 if native is None else pool_overhead_ms(untraced, native, jobs)),
        "cli.validate_ms": setup.mean_ms("cli.validate"),
        "cli.write_ms": untraced.mean_ms("cli.write"),
        "cli.bytes_written": untraced.tracer.counters["bytes_written"] / len(untraced.passes),
        "trace.overhead": (
            sum(calibrate.median_at_reference(traced.passes).values())
            / sum(calibrate.median_at_reference(untraced.passes).values())
        ),
    })
    return metrics
