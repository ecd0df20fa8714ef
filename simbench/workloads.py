"""Workload inputs, generated from the benchmark seed.

A workload is a fixed list of experiment configs, the JSON objects that
``patientbandits run`` accepts. One *pass* runs every config once. The timed
part repeats whole passes, so every pass does the same work and pass times
compare directly. The seed only chooses master seeds and law parameters; the
shape of each workload (policies, horizons, run counts) is fixed, which keeps
the amount of work per pass the same from seed to seed.

This module imports neither numpy nor the program, so the set-up timer of
``run.py`` sees the program's import cost in full.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

WORKLOAD_NAMES = ("paper-sweep", "windowed-long", "config-grid")

# The paper's delay pair: the better arm converts with the heavier tail.
_PAPER_TAILS = (1.0, 0.3)
_PAPER_MEANS = ((0.5, 0.55), (0.6, 0.8))  # figure 2/3 and figure 4/5 arm means

GRID_T = 1000
GRID_RUNS = 2
GRID_JOBS = 2
GRID_ARM_COUNTS = (2, 4, 8)
GRID_DELAY_KINDS = ("dirac", "pareto_ceil", "two_point", "geometric")
GRID_POLICIES = ("patient", "loglog", "ucb", "uniform")
GRID_SIZE = 144  # three full cycles of 3 arm counts x 4 delay laws x 4 policies
GRID_CHECKPOINTS = tuple(sorted({round(GRID_T ** (i / 19)) for i in range(20)}))


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload.

    ``jobs`` is the ``--jobs`` value passed to ``patientbandits run``; it is
    ``None`` for workloads that call ``monte_carlo`` serially in process.
    """

    name: str
    seed: int
    configs: Tuple[dict, ...]
    jobs: int | None = None

    @property
    def rounds_per_pass(self) -> int:
        return sum(c["runs"] * c["T"] for c in self.configs)


def _pareto_arm(mu: float, alpha: float) -> dict:
    return {
        "reward": {"kind": "bernoulli", "mu": mu},
        "delay": {"kind": "pareto_ceil", "alpha": alpha},
    }


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}")


def paper_sweep(seed: int) -> Workload:
    """The paper's K=2 instances under every per-round policy path."""
    rng = _rng("paper-sweep", seed)
    policies = [
        {"kind": "patient", "alpha": 0.1},
        {"kind": "patient", "alpha": 0.3},
        {"kind": "patient", "alpha": 0.5},
        {"kind": "patient", "alpha": "loglog"},
        {"kind": "ucb"},
        {"kind": "uniform"},
    ]
    configs = []
    for means in _PAPER_MEANS:
        arms = [_pareto_arm(mu, a) for mu, a in zip(means, _PAPER_TAILS)]
        for policy in policies:
            configs.append({
                "name": f"ps{len(configs):02d}",
                "arms": arms,
                "T": 3000,
                "policy": policy,
                "runs": 2,
                "master_seed": rng.randrange(2**32),
            })
    return Workload("paper-sweep", seed, tuple(configs))


def windowed_long(seed: int) -> Workload:
    """The two window-querying policies on the figure-5 instance at T=10 000."""
    rng = _rng("windowed-long", seed)
    arms = [_pareto_arm(mu, a) for mu, a in zip(_PAPER_MEANS[1], _PAPER_TAILS)]
    policies = [
        {"kind": "ducb", "m": 50, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},
        {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
    ]
    # One run per config keeps each call short next to the calibration kernel.
    configs = tuple(
        {
            "name": f"wl{i}",
            "arms": arms,
            "T": 10_000,
            "policy": policies[i % 2],
            "runs": 1,
            "master_seed": rng.randrange(2**32),
        }
        for i in range(4)
    )
    return Workload("windowed-long", seed, configs)


def _grid_delay(kind: str, rng: random.Random) -> dict:
    if kind == "dirac":
        return {"kind": "dirac", "d": rng.randrange(0, 50)}
    if kind == "pareto_ceil":
        return {"kind": "pareto_ceil", "alpha": round(rng.uniform(0.2, 1.5), 4)}
    if kind == "two_point":
        # d1 is often past the horizon, so that share of conversions is censored.
        return {
            "kind": "two_point",
            "p": round(rng.uniform(0.05, 0.5), 4),
            "d0": rng.randrange(0, 20),
            "d1": rng.randrange(500, 3000),
        }
    return {"kind": "geometric", "q": round(rng.uniform(0.02, 0.5), 4)}


def _grid_reward(rng: random.Random) -> dict:
    if rng.random() < 0.25:
        return {"kind": "point_mass", "value": round(rng.uniform(0.1, 0.9), 4)}
    return {"kind": "bernoulli", "mu": round(rng.uniform(0.1, 0.9), 4)}


def _grid_policy(kind: str, rng: random.Random) -> dict:
    if kind == "patient":
        return {"kind": "patient", "alpha": round(rng.uniform(0.05, 0.5), 4)}
    if kind == "loglog":
        return {"kind": "patient", "alpha": "loglog"}
    return {"kind": kind}


def config_grid(seed: int) -> Workload:
    """Many small configs over arm counts, delay laws, reward laws and policies."""
    rng = _rng("config-grid", seed)
    configs = []
    for i in range(GRID_SIZE):
        K = GRID_ARM_COUNTS[i % 3]
        delay_kind = GRID_DELAY_KINDS[(i // 3) % 4]
        policy_kind = GRID_POLICIES[(i // 12) % 4]
        name = f"grid{i:03d}-K{K}-{delay_kind}-{policy_kind}"
        configs.append({
            "name": name,
            "arms": [
                {"reward": _grid_reward(rng), "delay": _grid_delay(delay_kind, rng)}
                for _ in range(K)
            ],
            "T": GRID_T,
            "policy": _grid_policy(policy_kind, rng),
            "runs": GRID_RUNS,
            "master_seed": rng.randrange(2**32),
            "checkpoints": list(GRID_CHECKPOINTS),
            "output": f"{name}.csv",
        })
    return Workload("config-grid", seed, tuple(configs), jobs=GRID_JOBS)


_BUILDERS = {
    "paper-sweep": paper_sweep,
    "windowed-long": windowed_long,
    "config-grid": config_grid,
}


def make(name: str, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {list(WORKLOAD_NAMES)}")
    return _BUILDERS[name](seed)


def max_gap(config: dict) -> float:
    """Largest arm gap of a config, read from its reward specs alone.

    Pseudo-regret after ``t`` rounds can never exceed ``max_gap * t``.
    """
    means = [
        arm["reward"]["mu"] if arm["reward"]["kind"] == "bernoulli" else arm["reward"]["value"]
        for arm in config["arms"]
    ]
    return max(means) - min(means)
