"""Command line front end: run experiment configs, presets, and hard-instance info.

Verbs::

    patientbandits run <config.json> [--out DIR] [--jobs N]
    patientbandits preset <figure2|figure3|figure4|figure5>
                   [--scale S] [--out DIR] [--seed N] [--jobs N]
    patientbandits lowerbound --T N --alpha A

Exit codes: 0 success, 1 usage or config error, 2 runtime failure. The
default output directory is ``$PATIENTBANDITS_OUTDIR`` (falling back to the
working directory).

A config is a flat JSON object::

    {
      "name": "demo",                       # optional; row-group label
      "arms": [
        {"reward": {"kind": "bernoulli", "mu": 0.5},
         "delay":  {"kind": "pareto_ceil", "alpha": 1.0}},
        {"reward": {"kind": "bernoulli", "mu": 0.55},
         "delay":  {"kind": "pareto_ceil", "alpha": 0.3}}
      ],
      "T": 3000,
      "policy": {"kind": "patient", "alpha": 0.3},
      "runs": 100,
      "master_seed": 20240913,
      "checkpoints": [10, 100, 1000, 3000],  # optional; default geometric
      "output": "demo.csv"                   # optional; default <name>.csv
    }

Reward kinds: ``bernoulli(mu)``, ``point_mass(value)``. Delay kinds:
``dirac(d)``, ``pareto_ceil(alpha)``, ``two_point(p, d0, d1)``,
``geometric(q)``. Policy kinds: ``patient(alpha)``,
``adapt(c, alpha_floor, mu_floor)``, ``ducb(m, cdf)``, ``ucb``, ``uniform``.
Parameters go to the class unconverted (tables ``REWARD_LAWS``,
``DELAY_LAWS``, ``POLICIES``), so an unknown parameter or a count that is
not an integer (``T``, ``runs``, ``master_seed``, ``d``, ``d0``, ``d1``,
``m``, each checkpoint) is a config error, as are checkpoints that do not
rise strictly within ``[1, T]``, a real parameter that is a bool, a string
or NaN, a ``delta`` below about 1.1e-308, an arm key other than ``reward``
and ``delay``, a non-string ``name`` or ``output``, an empty ``name`` or
one with a comma, a double quote, ``\\n`` or ``\\r``, a CSV file name
(``output``, or ``name`` + ``.csv``) that is not a bare file name, and
``notes`` that are not a list of strings. So is a ``T`` whose episode
cannot be allocated, whatever the policy, and a ducb ``m`` at which the
assumed delay CDF overflows a float. A ``--scale`` that is not positive
and finite, and a ``lowerbound`` with ``--T`` below 2 or past the float
range or an ``--alpha`` that is not positive and finite, exit 1 too.

Running a config writes a CSV with header
``policy,run_count,round,mean_regret,stderr`` plus a ``.meta.json`` sidecar
echoing the configs, master seed and package version. Identical invocations
produce byte-identical CSV bodies.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .distributions import DELAY_LAWS, REWARD_LAWS, assumption1_margin, check_int, from_spec
from .environment import BanditInstance
from .harness import MonteCarloResult, _validated_checkpoints, monte_carlo
from .policies import POLICIES
from .theory import make_lower_bound_pair, observable_mean

OUTDIR_ENV = "PATIENTBANDITS_OUTDIR"

PRESET_NAMES = ("figure2", "figure3", "figure4", "figure5")
_PRESET_SEEDS = {"figure2": 202402, "figure3": 202403, "figure4": 202404, "figure5": 202405}


class ConfigError(ValueError):
    """A config file failed to parse or referenced unknown tags."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance, a policy, and replication settings."""

    arms: Tuple[Mapping, ...]
    T: int
    policy: Mapping
    runs: int
    master_seed: int
    name: Optional[str] = None
    checkpoints: Optional[Tuple[int, ...]] = None
    output: Optional[str] = None
    notes: Tuple[str, ...] = field(default=())

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        known = {
            "arms", "T", "policy", "runs", "master_seed",
            "name", "checkpoints", "output", "notes",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for required in ("arms", "T", "policy", "runs", "master_seed"):
            if required not in data:
                raise ConfigError(f"config field {required!r} is missing")

        def _int_field(key, least=None):
            try:
                return check_int(f"field {key!r}", data[key], least)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

        name, output, notes = data.get("name"), data.get("output"), data.get("notes", ())
        for key, value in (("name", name), ("output", output)):
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"field {key!r} must be a string, got {value!r}")
        # The name is an unquoted CSV cell: a line break splits its row, a quote
        # opens a quoted cell, and "" labels the rows with nothing while the file
        # is named after the config.
        if name is not None and (name == "" or any(ch in name for ch in ',"\n\r')):
            raise ConfigError(
                f"field 'name' must be nonempty, without commas, quotes or line breaks, "
                f"got {name!r}"
            )
        # The CSV goes into the output directory, and nowhere else.
        csv_name = output if output is not None else (name + ".csv" if name else None)
        if csv_name is not None and (
            csv_name in ("", ".", "..") or os.path.basename(csv_name) != csv_name
            or "\0" in csv_name
        ):
            raise ConfigError(
                f"CSV file name {csv_name!r} (from 'output', or 'name' + '.csv') must be "
                "a bare file name: no directory part, and not '', '.' or '..'"
            )
        if not isinstance(notes, (list, tuple)) or not all(isinstance(n, str) for n in notes):
            raise ConfigError(f"field 'notes' must be a list of strings, got {notes!r}")
        arms = data["arms"]
        if not isinstance(arms, (list, tuple)) or not arms:
            raise ConfigError("field 'arms' must be a nonempty list")
        for i, arm in enumerate(arms):
            for part in ("reward", "delay"):
                if not isinstance(arm, Mapping) or part not in arm:
                    raise ConfigError(f"arms[{i}] is missing its {part!r} law")
            unknown = set(arm) - {"reward", "delay"}
            if unknown:
                raise ConfigError(f"arms[{i}] has unknown keys: {sorted(unknown)}")
        T = _int_field("T")
        checkpoints = data.get("checkpoints")
        if checkpoints is not None:
            try:
                checkpoints = _validated_checkpoints(checkpoints, T)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad checkpoints: {exc}") from exc
        cfg = cls(
            arms=tuple(arms),
            T=T,
            policy=data["policy"],
            runs=_int_field("runs", least=1),
            master_seed=_int_field("master_seed"),
            name=name,
            checkpoints=checkpoints,
            output=output,
            notes=tuple(notes),
        )
        cfg.build_instance()  # law and shape errors surface at parse time
        cfg.build_policy()  # so do parameter errors; nothing here scales with T
        return cfg

    def to_dict(self) -> dict:
        out = {
            "arms": [dict(a) for a in self.arms],
            "T": self.T,
            "policy": dict(self.policy),
            "runs": self.runs,
            "master_seed": self.master_seed,
        }
        if self.name is not None:
            out["name"] = self.name
        if self.checkpoints is not None:
            out["checkpoints"] = list(self.checkpoints)
        if self.output is not None:
            out["output"] = self.output
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def build_instance(self) -> BanditInstance:
        try:
            arms = [
                (
                    from_spec(REWARD_LAWS, a["reward"], "reward law"),
                    from_spec(DELAY_LAWS, a["delay"], "delay law"),
                )
                for a in self.arms
            ]
            return BanditInstance(arms, horizon=self.T)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad instance spec: {exc}") from exc

    def build_policy(self):
        try:
            policy = from_spec(POLICIES, self.policy, "policy")
            policy.reset(len(self.arms), self.T)  # the parameter checks an episode runs
            return policy
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad policy spec: {exc}") from exc

    @property
    def label(self) -> str:
        if self.name is not None:
            return self.name
        return from_spec(POLICIES, self.policy, "policy").label


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    return ExperimentConfig.from_dict(data)


def dump_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Execution and emission
# ---------------------------------------------------------------------------


def execute(config: ExperimentConfig, n_jobs: int = 1) -> MonteCarloResult:
    # Parsing allocates nothing that scales with T: a horizon too large for
    # the radius table, the calendar or the rest of the episode fails here,
    # and so does a run count too large for the regret matrix, before any run.
    try:
        return monte_carlo(
            config.build_instance(),
            config.policy,
            runs=config.runs,
            master_seed=config.master_seed,
            checkpoints=config.checkpoints,
            n_jobs=n_jobs,
        )
    except MemoryError:
        # Not raised in here: the traceback holds the failed episode, so
        # memory may still be too full even for the message.
        pass
    raise ConfigError(f"T={config.T} is too large for memory, or runs={config.runs} is")


def write_results(
    path: str,
    groups: Sequence[tuple[ExperimentConfig, MonteCarloResult]],
) -> None:
    """Write the CSV plus its ``.meta.json`` sidecar, atomically."""
    lines = ["policy,run_count,round,mean_regret,stderr"]
    for config, result in groups:
        label = config.label
        for cp, m, se in zip(result.checkpoints, result.mean, result.stderr):
            lines.append(f"{label},{result.runs},{cp},{float(m)!r},{float(se)!r}")
    body = "\n".join(lines) + "\n"
    _atomic_write(path, body)
    meta = {
        "artifact_version": __version__,
        "configs": [c.to_dict() for c, _ in groups],
        "notes": sorted({note for c, _ in groups for note in c.notes}),
    }
    _atomic_write(path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_config(path: str, out_dir: Optional[str] = None, n_jobs: int = 1) -> str:
    """Execute one config file; returns the CSV path written."""
    config = load_config(path)
    result = execute(config, n_jobs=n_jobs)
    base = config.output
    if base is None:
        stem = config.name or os.path.splitext(os.path.basename(path))[0]
        base = stem + ".csv"
    out_path = os.path.join(_resolve_outdir(out_dir), base)
    write_results(out_path, [(config, result)])
    return out_path


def _resolve_outdir(out_dir: Optional[str]) -> str:
    if out_dir is None:
        out_dir = os.environ.get(OUTDIR_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _scaled(runs: int, scale: float) -> int:
    scaled = runs * scale
    if scaled == math.inf:
        raise ConfigError(f"--scale {scale!r} is too large: {runs} runs scale to infinity")
    return max(1, int(round(scaled)))


def _pareto_arm(mu: float, alpha: float) -> dict:
    return {
        "reward": {"kind": "bernoulli", "mu": mu},
        "delay": {"kind": "pareto_ceil", "alpha": alpha},
    }


def preset(
    name: str, scale: float = 0.25, master_seed: Optional[int] = None
) -> list[ExperimentConfig]:
    """Configs of one figure preset, with run counts scaled by ``scale``.

    ``figure2``: regret at T=3000 of the patient policy across a grid of
    assumed tail indices, on means (0.5, 0.55) with delay indices (1, 0.3).
    ``figure3``: regret versus arm gap for several true second-arm tail
    indices, each run with the matching assumed index.
    ``figure4``: patient policy against the threshold baseline fed the true
    delay CDF, homogeneous tails (0.7, 0.7), means (0.6, 0.8).
    ``figure5``: same means but heterogeneous tails (1, 0.3) and the
    baseline fed a wrong CDF, the regime where thresholding breaks down.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; expected one of {list(PRESET_NAMES)}")
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    seed = _PRESET_SEEDS[name] if master_seed is None else master_seed
    specs: list[dict] = []

    def add(arms, policy, runs, label, **extra):
        specs.append({"arms": arms, "T": 3000, "policy": policy, "runs": _scaled(runs, scale),
                      "master_seed": seed, "name": label, **extra})

    if name == "figure2":
        arms = [_pareto_arm(0.5, 1.0), _pareto_arm(0.55, 0.3)]
        for abar in np.linspace(0.02, 0.5, 25):
            abar = round(float(abar), 6)
            add(arms, {"kind": "patient", "alpha": abar}, 400, f"patient(alpha={abar:g})")
    elif name == "figure3":
        note = (
            "arm means are (0.4, 0.4 + gap); an alternative description of this "
            "figure uses (0.5, 0.5 + gap) and is intentionally not used here"
        )
        for alpha2 in (0.2, 0.3, 0.4, 0.5, 0.8):
            for gap in np.linspace(0.02, 0.6, 30):
                gap = round(float(gap), 6)
                arms = [_pareto_arm(0.4, 1.0), _pareto_arm(0.4 + gap, alpha2)]
                add(arms, {"kind": "patient", "alpha": alpha2}, 300,
                    f"alpha2={alpha2:g} gap={gap:g}", notes=[note])
    else:
        if name == "figure4":
            arms = [_pareto_arm(0.6, 0.7), _pareto_arm(0.8, 0.7)]
            assumed_cdf = {"kind": "pareto_ceil", "alpha": 0.7}  # the true CDF
        else:
            arms = [_pareto_arm(0.6, 1.0), _pareto_arm(0.8, 0.3)]
            assumed_cdf = {"kind": "pareto_ceil", "alpha": 0.7}  # wrong for both arms
        for abar in (0.1, 0.5):
            add(arms, {"kind": "patient", "alpha": abar}, 400, f"patient(alpha={abar:g})")
        for m in (10, 50, 100, 200):
            add(arms, {"kind": "ducb", "m": m, "cdf": assumed_cdf}, 400, f"ducb(m={m})")
    return [ExperimentConfig.from_dict(spec) for spec in specs]


def run_preset(
    name: str,
    scale: float = 0.25,
    out_dir: Optional[str] = None,
    master_seed: Optional[int] = None,
    n_jobs: int = 1,
) -> str:
    """Execute every config of a preset into one CSV; returns its path."""
    configs = preset(name, scale=scale, master_seed=master_seed)
    groups = [(cfg, execute(cfg, n_jobs=n_jobs)) for cfg in configs]
    out_path = os.path.join(_resolve_outdir(out_dir), f"{name}.csv")
    write_results(out_path, groups)
    return out_path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _UsageError(message)


def worker_count(text: str) -> int:
    n = int(text)
    if n < -1:
        raise argparse.ArgumentTypeError(f"must be -1, 0 or a positive count, got {n}")
    return n


@functools.cache  # built on the first call, not at import; main reuses it
def _build_parser() -> _Parser:
    parser = _Parser(prog="patientbandits", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=worker_count, default=1, help="worker processes (default 1)")

    p_preset = sub.add_parser("preset", help="execute a bundled figure preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--scale", type=float, default=0.25,
                          help="run-count multiplier (default 0.25)")
    p_preset.add_argument("--out", default=None, help="output directory")
    p_preset.add_argument("--seed", type=int, default=None, help="override master seed")
    p_preset.add_argument("--jobs", type=worker_count, default=1,
                          help="worker processes (default 1)")

    p_lb = sub.add_parser("lowerbound", help="print the censored hard-instance pair")
    p_lb.add_argument("--T", type=int, required=True, help="horizon")
    p_lb.add_argument("--alpha", type=float, required=True, help="tail index")
    return parser


def _lowerbound_report(T: int, alpha: float) -> str:
    try:
        pair = make_lower_bound_pair(T, alpha)
    except ValueError as exc:
        raise ConfigError(f"bad --T or --alpha: {exc}") from None
    residual = abs((0.5 + pair.q) * (1.0 - pair.p) - (0.5 - pair.q))
    margin = assumption1_margin(pair.problem_b.delay_law(1), alpha, m_max=T - 1)
    lines = [
        f"hard-instance pair for T={T}, alpha={alpha:g}",
        f"  p = T^-alpha           = {pair.p!r}",
        f"  q = p / (4 - 2p)       = {pair.q!r}",
        f"  problem A arm 2: Bernoulli({0.5 - pair.q!r}), no delay",
        f"  problem B arm 2: Bernoulli({0.5 + pair.q!r}), delay T w.p. p",
        f"  observable mean of arm 2 inside the horizon (both problems): "
        f"{observable_mean(pair.problem_b, 1, T - 1)!r}",
        f"  identity residual |(1/2+q)(1-p) - (1/2-q)| = {residual:.3e}",
        f"  tail-bound margin of problem B on [1, T-1]  = {margin:.3e} (>= 0)",
        f"  q >= p/4: {pair.q >= pair.p / 4}",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "run":
            path = run_config(args.config, out_dir=args.out, n_jobs=args.jobs)
            print(f"wrote {path}")
        elif args.command == "preset":
            path = run_preset(
                args.name,
                scale=args.scale,
                out_dir=args.out,
                master_seed=args.seed,
                n_jobs=args.jobs,
            )
            print(f"wrote {path}")
        else:
            print(_lowerbound_report(args.T, args.alpha))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
