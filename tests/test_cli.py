"""CLI: config round trips, CSV contract, presets, exit codes."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from patientbandits import cli, kernel
from patientbandits.cli import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    main,
    preset,
    run_config,
)
from patientbandits.environment import BanditInstance
from patientbandits.harness import simulate
from patientbandits.policies import UniformRandom

MINIMAL = {
    "arms": [
        {"reward": {"kind": "bernoulli", "mu": 0.5},
         "delay": {"kind": "dirac", "d": 0}}
    ],
    "T": 40,
    "policy": {"kind": "uniform"},
    "runs": 3,
    "master_seed": 5,
}

TWO_ARM = {
    "name": "demo",
    "arms": [
        {"reward": {"kind": "bernoulli", "mu": 0.7},
         "delay": {"kind": "dirac", "d": 0}},
        {"reward": {"kind": "bernoulli", "mu": 0.5},
         "delay": {"kind": "pareto_ceil", "alpha": 0.5}},
    ],
    "T": 60,
    "policy": {"kind": "patient", "alpha": 0.5},
    "runs": 4,
    "master_seed": 77,
    "checkpoints": [1, 10, 30, 60],
}


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig.from_dict(TWO_ARM)
    assert cfg.to_dict() == TWO_ARM
    assert ExperimentConfig.from_dict(json.loads(dump_config(cfg))) == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_dict({k: v for k, v in MINIMAL.items() if k != "T"})
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({**MINIMAL, "extra": 1})
    with pytest.raises(ConfigError, match="bad policy spec"):
        ExperimentConfig.from_dict({**MINIMAL, "policy": {"kind": "nope"}})
    with pytest.raises(ConfigError, match="bad instance spec"):
        ExperimentConfig.from_dict({**MINIMAL, "T": 0})  # horizon below arm count
    with pytest.raises(ConfigError, match="integer"):
        ExperimentConfig.from_dict({**MINIMAL, "runs": "many"})
    with pytest.raises(ConfigError, match="commas"):
        ExperimentConfig.from_dict({**MINIMAL, "name": "a,b"})


def test_run_config_writes_csv_and_sidecar(tmp_path):
    path = _write(tmp_path, MINIMAL)
    out = run_config(path, out_dir=str(tmp_path))
    assert os.path.basename(out) == "config.csv"
    lines = open(out).read().splitlines()
    assert lines[0] == "policy,run_count,round,mean_regret,stderr"
    rows = [line.split(",") for line in lines[1:]]
    # Single-arm instance: every mean is exactly zero.
    assert all(float(r[3]) == 0.0 for r in rows)
    assert all(r[0] == "uniform" and r[1] == "3" for r in rows)
    rounds = [int(r[2]) for r in rows]
    assert rounds == sorted(set(rounds)) and rounds[-1] == 40
    meta = json.load(open(out + ".meta.json"))
    assert meta["artifact_version"]
    assert meta["configs"][0]["master_seed"] == 5


def test_csv_columns_monotone_within_group(tmp_path):
    path = _write(tmp_path, TWO_ARM)
    out = run_config(path, out_dir=str(tmp_path))
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    rounds = [int(r[2]) for r in rows]
    means = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(rounds, rounds[1:]))
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert {r[0] for r in rows} == {"demo"}


def test_rerun_is_byte_identical(tmp_path):
    path = _write(tmp_path, TWO_ARM)
    out1 = run_config(path, out_dir=str(tmp_path / "a"))
    out2 = run_config(path, out_dir=str(tmp_path / "b"))
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_malformed_config_exits_1_without_output(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"arms": [')
    code = main(["run", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "broken.csv").exists()


def test_unknown_tag_exits_1(tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, "policy": {"kind": "mystery"}})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "bad policy spec" in capsys.readouterr().err


def test_horizon_below_arm_count_exits_1(tmp_path):
    bad = {**TWO_ARM, "T": 1, "checkpoints": [1]}
    path = _write(tmp_path, bad)
    assert main(["run", path, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("policy", [
    {"kind": "ucb"},
    {"kind": "patient", "alpha": 0.3},
    {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
], ids=lambda spec: spec["kind"])
def test_one_arm_one_round_names_the_horizon(tmp_path, capsys, policy):
    # The default delta = 1/(K T^3) is exactly 1 here; the config never set it.
    path = _write(tmp_path, {**MINIMAL, "T": 1, "policy": policy})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "horizon too short" in err and "K=1, T=1" in err and "T >= 2" in err
    assert main(["run", _write(tmp_path, {**MINIMAL, "T": 2, "policy": policy}),
                 "--out", str(tmp_path)]) == 0


def _pareto_arms(*alphas):
    return [
        {"reward": {"kind": "bernoulli", "mu": 0.5 + 0.1 * i},
         "delay": {"kind": "pareto_ceil", "alpha": a}}
        for i, a in enumerate(alphas)
    ]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "config",
    [
        pytest.param({**TWO_ARM, "policy": {"kind": "patient", "alpha": NAN}},
                     id="patient-alpha-nan"),
        pytest.param({**TWO_ARM, "policy": {"kind": "patient", "alpha": INF}},
                     id="patient-alpha-inf"),
        pytest.param({**TWO_ARM, "policy": {"kind": "ducb", "m": 5,
                                            "cdf": {"kind": "pareto_ceil", "alpha": NAN}}},
                     id="ducb-cdf-alpha-nan"),
        pytest.param({**TWO_ARM, "arms": _pareto_arms(1.0, NAN)}, id="pareto-alpha-nan"),
        pytest.param({**TWO_ARM, "policy": {"kind": "adapt", "c": 1.0, "alpha_floor": NAN,
                                            "mu_floor": 0.5}},
                     id="adapt-alpha-floor-nan"),
        pytest.param({**TWO_ARM, "policy": {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2,
                                            "mu_floor": NAN}},
                     id="adapt-mu-floor-nan"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": 0.5},
                                           "delay": {"kind": "geometric", "q": 1e-17}}]},
                     id="geometric-q-1e-17"),
        pytest.param({**MINIMAL, "runs": 0}, id="runs-0"),
        pytest.param({**TWO_ARM, "checkpoints": [0, 10]}, id="checkpoint-0"),
        pytest.param({**TWO_ARM, "checkpoints": ["a"]}, id="checkpoint-string"),
        pytest.param({**MINIMAL, "name": 5}, id="name-int"),
        pytest.param({**MINIMAL, "output": 5}, id="output-int"),
        pytest.param({**MINIMAL, "notes": "abc"}, id="notes-string"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": 0.5},
                                           "delay": {"kind": "dirac", "d": 2.7}}]},
                     id="dirac-d-2.7"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": 0.5},
                                           "delay": {"kind": "dirac", "d": INF}}]},
                     id="dirac-d-inf"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": 0.5},
                                           "delay": {"kind": "two_point", "p": 0.5,
                                                     "d0": 0, "d1": INF}}]},
                     id="two-point-d1-inf"),
        pytest.param({**TWO_ARM, "policy": {"kind": "ducb", "m": 2.5,
                                            "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}},
                     id="ducb-m-2.5"),
        pytest.param({**TWO_ARM, "policy": {"kind": "ducb", "m": INF,
                                            "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}},
                     id="ducb-m-inf"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": 0.5,
                                                      "sigma": 0.1},
                                           "delay": {"kind": "dirac", "d": 0}}]},
                     id="unknown-law-key"),
        pytest.param({**TWO_ARM, "policy": {"kind": "ucb", "dleta": 0.1}},
                     id="ucb-misspelt-delta"),
        pytest.param({**TWO_ARM, "checkpoints": [2.5, 10]}, id="checkpoint-2.5"),
        pytest.param({**TWO_ARM, "checkpoints": ["10"]}, id="checkpoint-numeric-string"),
        pytest.param({**MINIMAL, "arms": [{"reward": {"kind": "bernoulli", "mu": True},
                                           "delay": {"kind": "dirac", "d": 0}}]},
                     id="bernoulli-mu-true"),
        pytest.param({**TWO_ARM, "arms": _pareto_arms(1.0, True)}, id="pareto-alpha-true"),
        pytest.param({**TWO_ARM, "policy": {"kind": "patient", "alpha": True}},
                     id="patient-alpha-true"),
        pytest.param({**TWO_ARM, "policy": {"kind": "adapt", "c": True, "alpha_floor": 0.2,
                                            "mu_floor": 0.5}},
                     id="adapt-c-true"),
        pytest.param({**TWO_ARM, "policy": [["kind", "ucb"]]}, id="policy-pairs"),
        pytest.param({**TWO_ARM, "policy": "ucb"}, id="policy-string"),
        pytest.param({**MINIMAL, "arms": [{"reward": "bernoulli",
                                           "delay": {"kind": "dirac", "d": 0}}]},
                     id="reward-string"),
        pytest.param({**TWO_ARM, "policy": {"kind": "ducb", "m": 5, "cdf": "dirac"}},
                     id="ducb-cdf-string"),
        pytest.param({**TWO_ARM, "T": 20, "checkpoints": [1, 10, 20],
                      "policy": {"kind": "adapt", "c": 1e-200, "alpha_floor": 0.2,
                                 "mu_floor": 1e-200}},
                     id="adapt-c-times-mu-floor-underflows"),
    ],
)
def test_unrepresentable_parameters_exit_1(tmp_path, capsys, config):
    path = _write(tmp_path, config)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))


def _with_policy(policy):
    return {**TWO_ARM, "policy": policy}


@pytest.mark.parametrize(
    "config, named",
    [
        pytest.param(_with_policy({"kind": "patient", "alpha": "0.3"}), "alpha",
                     id="patient-alpha-string"),
        pytest.param(_with_policy({"kind": "patient", "alpha": None}), "alpha",
                     id="patient-alpha-null"),
        pytest.param(_with_policy({"kind": "patient", "alpha": [0.3]}), "alpha",
                     id="patient-alpha-list"),
        pytest.param(_with_policy({"kind": "adapt", "c": "1", "alpha_floor": 0.2,
                                   "mu_floor": 0.5}), "c", id="adapt-c-string"),
        pytest.param(_with_policy("ucb"), "policy spec", id="policy-string"),
        pytest.param(_with_policy([["kind", "ucb"]]), "policy spec", id="policy-pairs"),
        pytest.param({**MINIMAL, "arms": [{"reward": "bernoulli",
                                           "delay": {"kind": "dirac", "d": 0}}]},
                     "reward law spec", id="reward-string"),
        pytest.param(_with_policy({"kind": "ducb", "m": 5, "cdf": "dirac"}), "delay law spec",
                     id="ducb-cdf-string"),
    ],
)
def test_bad_parameter_or_spec_is_named(tmp_path, capsys, config, named):
    # Labels format the parameters, so they must be checked before a label is built.
    path = _write(tmp_path, config)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{named} must be" in err and "format" not in err


@pytest.mark.parametrize("cdf", [
    {"kind": "pareto_ceil", "alpha": 0.5},
    {"kind": "geometric", "q": 0.3},
], ids=lambda cdf: cdf["kind"])
def test_ducb_threshold_past_the_float_range_exits_1(tmp_path, capsys, cdf):
    # An integer m the validator accepts, at which these laws' cdf would overflow a float.
    path = _write(tmp_path, _with_policy({"kind": "ducb", "m": 10**400, "cdf": cdf}))
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threshold m" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("policy", [
    {"kind": "patient", "alpha": 0.3, "delta": 5e-324},
    {"kind": "ucb", "delta": 1e-320},
    {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5, "delta": 1e-309},
], ids=lambda spec: spec["kind"])
def test_delta_whose_log_overflows_exits_1(tmp_path, capsys, policy):
    # log(2 / delta) is +inf: every index would be +inf, and arm 0 played forever.
    path = _write(tmp_path, {**TWO_ARM, "T": 200, "checkpoints": [200], "policy": policy})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delta must be at least" in err
    assert repr(policy["delta"]) in err
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_arm_key_exits_1(tmp_path, capsys):
    arms = [TWO_ARM["arms"][0], {**TWO_ARM["arms"][1], "weight": 3}]
    path = _write(tmp_path, {**TWO_ARM, "arms": arms})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "arms[1]" in err and "'weight'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("fields", [
    {"output": ""},
    {"output": "."},
    {"output": ".."},
    {"output": "missing/x.csv"},
    {"output": "ABSOLUTE"},
    {"output": "x\0.csv"},
    {"name": "x/y"},
], ids=repr)
def test_csv_name_that_is_not_a_bare_file_name_exits_1(tmp_path, capsys, fields):
    # Checked at parse time: the config never runs, and nothing is written.
    elsewhere = tmp_path / "elsewhere.csv"
    if fields.get("output") == "ABSOLUTE":
        fields = {"output": str(elsewhere)}
    out = tmp_path / "out"
    path = _write(tmp_path, {**MINIMAL, **fields})
    assert main(["run", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bare file name" in err
    assert not out.exists() or not list(out.iterdir())
    assert not elsewhere.exists()


def test_empty_name_exits_1(tmp_path, capsys):
    # Accepted before: the rows carried an empty policy cell while the file
    # was named after the config path.
    path = _write(tmp_path, {**TWO_ARM, "name": ""})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field 'name' must be nonempty" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("name", ["a\rb", '"x'], ids=repr)
def test_name_that_would_split_its_csv_row_exits_1(tmp_path, capsys, name):
    # Accepted before: csv.reader read a row of "a\rb" as two rows, and a
    # leading quote swallowed the rows that followed into one cell.
    path = _write(tmp_path, {**TWO_ARM, "name": name, "output": "out.csv"})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line breaks" in err
    assert not list(tmp_path.glob("*.csv"))


def test_parsing_allocates_no_episode():
    # ducb has no radius table, so nothing at parse time scales with T; the
    # run fails instead (test_horizon_too_large_for_memory_exits_1_for_every_policy).
    policy = {"kind": "ducb", "m": 10, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}}
    config = ExperimentConfig.from_dict({**MINIMAL, "T": 2**61, "policy": policy})
    assert config.T == 2**61


@pytest.mark.parametrize("policy", [
    {"kind": "patient", "alpha": 0.3},
    {"kind": "patient", "alpha": "loglog"},
    {"kind": "ucb"},
    {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
    {"kind": "ducb", "m": 10, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},
    {"kind": "uniform"},
], ids=lambda p: "-".join(str(v) for v in p.values() if not isinstance(v, dict)))
def test_parsing_costs_o1_in_T_for_every_policy(policy):
    # Parsing resets the policy, which keeps one radius per arm, not one per
    # count up to T: 10**6 of them would take tens of MiB.
    tracemalloc.start()
    try:
        ExperimentConfig.from_dict({**MINIMAL, "T": 10**6, "policy": policy})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_horizon_too_large_for_memory_exits_1(tmp_path, capsys):
    # The kernel's 2 T uniforms, or without a compiler the calendar of
    # 2**61 + 2 slots, fail their size check before anything is allocated.
    path = _write(tmp_path, {**TWO_ARM, "T": 2**61})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert f"T={2**61} is too large for memory" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


_UNDER_A_MEMORY_LIMIT = """
import json, resource, sys
limit = int(sys.argv[1]) << 20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))
from patientbandits.cli import main
codes = [main(["run", path, "--out", sys.argv[2]]) for path in sys.argv[3:]]
print(json.dumps([codes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss << 10]))
"""

HUGE_T_POLICIES = [
    {"kind": "patient", "alpha": 0.5},
    {"kind": "adapt", "c": 1.0, "alpha_floor": 0.2, "mu_floor": 0.5},
    {"kind": "ducb", "m": 10, "cdf": {"kind": "pareto_ceil", "alpha": 0.7}},
    {"kind": "ucb"},
    {"kind": "uniform"},
]


@pytest.mark.parametrize("T, limit_mib, fits", [
    # Far below the limit and at once, each when the run allocates it: the
    # uniforms of the compiled patient, ucb and ducb episodes, the raw
    # outputs of the compiled uniform episode, and the calendar of adapt's
    # Python episode, as its bound can turn positive within T.
    pytest.param(2**61, 1536, (), id=str(2**61)),
    pytest.param(10**12, 1536, (), id=str(10**12)),
    # The Python episode does not fit: adapt's generic-loop episode state
    # (its calendar, pull logs and uniform blocks) exhausts the limit some
    # seconds into the episode. The compiled episodes run: patient and ucb
    # peak at about 180 MiB of address space, ducb at about 140 MiB (16 B of
    # uniforms per round in each), uniform at about 150 MiB (20 B of raw
    # outputs per round).
    pytest.param(2 * 10**6, 320, ("patient", "ucb", "ducb", "uniform"), id=str(2 * 10**6)),
    # No engine fits: the kernel's uniforms alone are 320 MB, uniform's raw
    # outputs 400 MB.
    pytest.param(2 * 10**7, 320, (), id=str(2 * 10**7)),
])
def test_horizon_too_large_for_memory_exits_1_for_every_policy(tmp_path, T, limit_mib, fits):
    # Under an address-space limit, so that a regression fails here instead
    # of exhausting the host. One BLAS thread keeps numpy's own reservations
    # small whatever the core count. The configs that must fail share one
    # process; each that must run has its own, as from the command line: an
    # episode that ran out of memory leaves its process's heap grown, and
    # whether a later config fits beside it is luck. The kernel is built
    # here, outside the limit; without a compiler ucb and ducb run Python
    # loops, which do not fit.
    if kernel.load() is None:
        fits = ()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(policies):
        paths = [_write(tmp_path, {**TWO_ARM, "T": T, "policy": p, "name": p["kind"]},
                        f"{p['kind']}.json") for p in policies]
        done = subprocess.run(
            [sys.executable, "-c", _UNDER_A_MEMORY_LIMIT, str(limit_mib), str(tmp_path), *paths],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        codes, peak_rss = json.loads(done.stdout.splitlines()[-1])  # after a run's own line
        assert peak_rss < 512 << 20
        return codes, done.stderr

    failing = [p for p in HUGE_T_POLICIES if p["kind"] not in fits]
    codes, err = run(failing)
    assert codes == [1] * len(failing), err
    assert err.count(f"error: T={T} is too large for memory") == len(failing)
    for policy in HUGE_T_POLICIES:
        if policy["kind"] in fits:
            assert run([policy]) == ([0], "")
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(fits)


def test_pareto_overflow_runs_and_censors(tmp_path):
    # At alpha = 0.01 about one draw in 1200 overflows a float.
    config = {**TWO_ARM, "arms": _pareto_arms(0.01, 0.01), "T": 3000,
              "runs": 2, "checkpoints": [3000]}
    assert main(["run", _write(tmp_path, config), "--out", str(tmp_path)]) == 0

    class RawDelays(BanditInstance):
        def draw(self, arm, u, v):
            reward, delay = super().draw(arm, u, v)
            self.raw.append(delay)
            return reward, delay

    instance = RawDelays(ExperimentConfig.from_dict(config).build_instance().arms, 3000)
    instance.raw = []
    env, _ = simulate(instance, UniformRandom(), np.random.default_rng(3))
    overflowed = [i for i, d in enumerate(instance.raw) if d == math.inf]
    assert overflowed
    records = env.pull_records()
    assert all(records[i].delay == 3001 and records[i].censored for i in overflowed)
    assert env.censored_count == sum(r.censored for r in records) >= len(overflowed)


def test_jobs_below_minus_one_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["run", path, "--out", str(tmp_path), "--jobs", "-3"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "config.csv").exists()


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["preset", "figure9"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["lowerbound", "--T", "16", "--alpha", "0"],
        ["lowerbound", "--T", "16", "--alpha", "nan"],
        ["lowerbound", "--T", "16", "--alpha", "inf"],
        ["lowerbound", "--T", "1", "--alpha", "0.5"],
        ["preset", "figure2", "--scale", "nan"],
        ["preset", "figure2", "--scale", "inf"],
    ],
    ids=["alpha-0", "alpha-nan", "alpha-inf", "T-1", "scale-nan", "scale-inf"],
)
def test_bad_cli_numbers_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("PATIENTBANDITS_OUTDIR", str(tmp_path))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))


def test_scale_whose_run_count_overflows_exits_1(tmp_path, monkeypatch, capsys):
    # 1e308 is finite, but 400 runs times it is not: rejected before any run starts.
    monkeypatch.setattr(cli, "execute", lambda *args, **kwargs: pytest.fail("a run started"))
    assert main(["preset", "figure5", "--scale", "1e308", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--scale" in err
    assert not list(tmp_path.iterdir())


def test_runtime_failure_exits_2(tmp_path):
    config = _write(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert main(["run", config, "--out", str(blocker / "sub")]) == 2


def test_main_run_and_env_outdir(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, MINIMAL)
    monkeypatch.setenv("PATIENTBANDITS_OUTDIR", str(tmp_path / "envout"))
    assert main(["run", path]) == 0
    assert (tmp_path / "envout" / "config.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_repeated_main_calls_behave_as_fresh_ones(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process; no call may see another's arguments.
    path = _write(tmp_path, MINIMAL)
    assert main(["run", path, "--out", str(tmp_path / "first"), "--jobs", "1"]) == 0
    assert (tmp_path / "first" / "config.csv").exists()
    assert main(["lowerbound", "--T", "16", "--alpha", "0.5"]) == 0
    assert "q >= p/4: True" in capsys.readouterr().out
    assert main(["run"]) == 1
    assert "config" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: patientbandits")
    monkeypatch.setenv("PATIENTBANDITS_OUTDIR", str(tmp_path / "second"))
    assert main(["run", path]) == 0  # no --out: the first call's is not kept
    assert (tmp_path / "second" / "config.csv").exists()


def test_the_parser_is_built_once_per_process_and_not_at_import():
    code = ("import patientbandits.cli as cli\n"
            "assert cli._build_parser.cache_info().currsize == 0\n"
            "assert cli.main(['--help']) == cli.main(['--help']) == 0\n"
            "assert cli._build_parser.cache_info().misses == 1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_lowerbound_horizon_past_the_float_range_exits_1(capsys):
    assert main(["lowerbound", "--T", str(10**400), "--alpha", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--T" in err


def test_lowerbound_at_a_horizon_of_a_trillion_answers_at_once(capsys):
    # The tail-bound margin of problem B's two-point delay is evaluated at its
    # jump points only, not at every m < T.
    start = time.perf_counter()
    assert main(["lowerbound", "--T", str(10**12), "--alpha", "0.5"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "q >= p/4: True" in capsys.readouterr().out


def test_lowerbound_verb(capsys):
    assert main(["lowerbound", "--T", "16", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "p = T^-alpha" in out and "0.25" in out
    assert "q >= p/4: True" in out


def test_preset_figure2_structure():
    configs = preset("figure2", scale=1.0)
    assert len(configs) == 25
    assert all(c.T == 3000 and c.runs == 400 for c in configs)
    alphas = [c.policy["alpha"] for c in configs]
    assert alphas[0] == pytest.approx(0.02) and alphas[-1] == pytest.approx(0.5)
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(c.policy["kind"] == "patient" for c in configs)


def test_preset_figure3_structure():
    configs = preset("figure3", scale=1.0)
    assert len(configs) == 150  # 5 tail indices x 30 gaps
    gaps = sorted({round(c.build_instance().means[1] - 0.4, 6) for c in configs})
    assert gaps[0] == pytest.approx(0.02) and gaps[-1] == pytest.approx(0.6)
    assert len(gaps) == 30
    assert all(c.runs == 300 for c in configs)
    assert all(c.policy["alpha"] == c.arms[1]["delay"]["alpha"] for c in configs)
    assert all(c.notes for c in configs)  # mean-parameterization note recorded


def test_preset_figure4_and_5_structure():
    fig4 = preset("figure4", scale=1.0)
    fig5 = preset("figure5", scale=1.0)
    for configs in (fig4, fig5):
        assert len(configs) == 6
        kinds = [c.policy["kind"] for c in configs]
        assert kinds.count("patient") == 2 and kinds.count("ducb") == 4
        assert [c.policy["m"] for c in configs if c.policy["kind"] == "ducb"] == [10, 50, 100, 200]
    # figure4 hands the baseline the true CDF; figure5 a wrong one.
    true_alpha = fig4[0].arms[0]["delay"]["alpha"]
    assert all(c.policy["cdf"]["alpha"] == true_alpha for c in fig4 if c.policy["kind"] == "ducb")
    assert {a["delay"]["alpha"] for a in fig5[0].arms} == {1.0, 0.3}


@pytest.mark.parametrize("name", ["figure2", "figure3", "figure4", "figure5"])
def test_preset_configs_round_trip(name):
    # Presets are built through the validator; their dicts must rebuild them.
    for cfg in preset(name, scale=0.01):
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_preset_scaling_rule():
    assert all(c.runs == 100 for c in preset("figure5", scale=0.25))
    assert all(c.runs == 40 for c in preset("figure2", scale=0.1))
    assert all(c.runs == 1 for c in preset("figure2", scale=1e-9))
    with pytest.raises(ConfigError):
        preset("figure7")
    with pytest.raises(ConfigError):
        preset("figure2", scale=0.0)


@pytest.mark.parametrize("runs", [10**15, 10**20])
def test_runs_too_large_for_memory_exits_1_at_once(tmp_path, capsys, runs):
    # 10**15 rows of 20 checkpoints are 1.6e17 B, past any 57-bit address
    # space, so the regret matrix is refused before a page is touched; 10**20
    # rows are past numpy's largest array. Neither gets to the first run.
    config = {**TWO_ARM, "T": 20, "checkpoints": list(range(1, 21)), "runs": runs,
              "policy": {"kind": "ucb"}}
    path = _write(tmp_path, config)
    start = time.perf_counter()
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"runs={runs}" in err and "T=20" in err and "too large for memory" in err
    assert not list(tmp_path.glob("*.csv"))
