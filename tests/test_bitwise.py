"""Cross-version bit-equality: pinned digests of every policy's regret curves.

The seeding and draw-order contract promises that a given config produces
the same regret values bit for bit on every version of the package. These
digests were recorded once; a refactor that changes any of them changes the
simulator, not just its code.
"""
from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patientbandits
from patientbandits import kernel
from patientbandits.distributions import (
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
)
from patientbandits.environment import BanditInstance
from patientbandits.harness import monte_carlo

T = 400
INSTANCE = BanditInstance(
    [(Bernoulli(0.5), ParetoCeil(1.0)), (Bernoulli(0.6), ParetoCeil(0.3))], horizon=T
)

PINNED = {
    "patient(0.3)": (
        {"kind": "patient", "alpha": 0.3},
        "1d1fde93c56061d9536a66791ad1784a61ed018e08cfe7cc1df6d812d2465a23",
    ),
    "patient(loglog)": (
        {"kind": "patient", "alpha": "loglog"},
        "5356fd2ebfb7748f36d3f8820775ec7ada517b80d2cebd73ddd16768f7025ca7",
    ),
    "adapt": (
        {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
        "55676d1442dffc6b7450907a10e2952657b6e1c400bd77181e00141eecbb98e7",
    ),
    # mu_floor above every mean is legal but loose; with delta=0.5 it lets the
    # bound rise above 0 at this horizon, so the online bias exponent moves.
    "adapt(alpha_bar>0)": (
        {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 8.0, "delta": 0.5},
        "a4fead997dec729128b96c1b4c916c2a21579a7182a2713ed080b4bb37ec03cd",
    ),
    "ducb": (
        {"kind": "ducb", "m": 20, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},
        "99d49b72ee2dadeb47e1ee0a6871bf5c890db0baba2b3938e966b7dbb4aa78db",
    ),
    "ucb": (
        {"kind": "ucb"},
        "55676d1442dffc6b7450907a10e2952657b6e1c400bd77181e00141eecbb98e7",
    ),
    "uniform": (
        {"kind": "uniform"},
        "c841b1b2828cf17c6d3c7115b6d671d12d8ca42812d9bbad95c74ace9872327b",
    ),
}


# Every other law kind: a constant reward, a fixed delay, a two-point delay
# whose long branch lies past the horizon (censored), and a geometric delay.
# Recorded while the laws still drew from the stream themselves, before they
# became inverse-CDF transforms.
MIXED_INSTANCE = BanditInstance(
    [
        (PointMass(0.45), Dirac(3)),
        (Bernoulli(0.6), TwoPointMass(p=0.3, d0=2, d1=T + 100)),
        (Bernoulli(0.5), Geometric(0.2)),
    ],
    horizon=T,
)

MIXED_PINNED = {
    "patient(0.3)": (
        {"kind": "patient", "alpha": 0.3},
        "6daaa2ca06606ae15bde5d6db8ca0f690d8a310167c45b111703dae29eecc0f8",
    ),
    "ducb(two_point)": (
        {"kind": "ducb", "m": 20,
         "cdf": {"kind": "two_point", "p": 0.3, "d0": 2, "d1": T + 100}},
        "55120840ee22d439524f970926f39abd694d7f8d20c65f3969b263daf1daa653",
    ),
    "ucb": (
        {"kind": "ucb"},
        "93ee2d6ca721cb8ce53c7c69bb4a8ab29eb5013f91e30fa79212eb7ce8779506",
    ),
}


def _digest(instance, spec) -> str:
    result = monte_carlo(instance, spec, runs=3, master_seed=20061045,
                         checkpoints=range(1, T + 1))
    regrets = np.ascontiguousarray(result.regrets, dtype=np.float64)
    return hashlib.sha256(regrets.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_regret_digest_is_pinned(name):
    spec, expected = PINNED[name]
    assert _digest(INSTANCE, spec) == expected


@pytest.mark.parametrize("name", sorted(MIXED_PINNED))
def test_mixed_law_regret_digest_is_pinned(name):
    spec, expected = MIXED_PINNED[name]
    assert _digest(MIXED_INSTANCE, spec) == expected


@pytest.mark.parametrize("instance, spec, expected", [
    *(pytest.param(INSTANCE, *PINNED[name], id=name) for name in sorted(PINNED)),
    *(pytest.param(MIXED_INSTANCE, *MIXED_PINNED[name], id=f"mixed-{name}")
      for name in sorted(MIXED_PINNED)),
])
def test_pinned_bits_hold_without_a_compiler(monkeypatch, instance, spec, expected):
    # Without the kernel every episode runs the generic loop, the one Python engine.
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert _digest(instance, spec) == expected


def test_digests_hold_under_a_second_simd_dispatch():
    # numpy picks its SIMD kernels per CPU; the regret bits must not depend
    # on which it picked. Names a CPU lacks are ignored.
    here = Path(__file__).resolve()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(here),
         "-k", "digest_is_pinned"],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(PINNED) + len(MIXED_PINNED)} passed" in done.stdout


def test_model_layer_does_not_import_numpy():
    # The regret bits come from the model layer; keeping numpy out of it keeps
    # them off numpy's per-CPU SIMD kernels.
    package = Path(__file__).resolve().parents[1] / "src" / "patientbandits"
    for module in ("distributions", "estimators", "environment", "policies"):
        tree = ast.parse((package / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "numpy" or n.startswith("numpy.") for n in names), (
                f"{module}.py imports numpy (line {node.lineno})"
            )


def test_model_layer_leaves_the_stream_to_pull():
    # DelayedBanditEnv.pull is the one reader of the stream: a law, estimator
    # or instance that drew for itself would shift every later uniform.
    package = Path(__file__).resolve().parents[1] / "src" / "patientbandits"
    for module in ("distributions", "estimators", "environment", "theory"):
        tree = ast.parse((package / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in ("random", "integers"), (
                    f"{module}.py draws from a generator (line {node.lineno})"
                )


def test_public_names_resolve():
    # A stale export would make ``import *`` fail for every user of the package.
    missing = [n for n in patientbandits.__all__ if not hasattr(patientbandits, n)]
    assert not missing, f"__all__ names without an attribute: {missing}"
    exec("from patientbandits import *", {})
