"""Measure every workload over several seeds and write the baseline record.

Run from the root of a checkout::

    python3 simbench/baseline.py

For every workload it runs ``run.py --trace 0`` once per seed in ``SEEDS``
and ``run.py --trace 1`` once per seed in ``TRACED_SEEDS``, then records for
each metric the median, the quartiles and the spread (interquartile range
over median), with the values of every run. The record also states the
program commit, the machine's core count, the Python and numpy versions, and
the table of which end-to-end metric each layer metric should move.

Before any run, it writes ``simbench/digests.json``: the output digest of
every config of every workload for ``SEEDS`` and the held-out seed, from one
untimed serial run each, keyed by the config's own digest. ``run.py`` takes
these as the reference, so a change that alters results, even the same way
on every run, counts as failed. A change meant to alter results measures the
baseline again.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from simbench import run, workloads  # noqa: E402
from simbench.gate import config_digest  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)
HELD_OUT_SEED = 20061045  # claims of a gain must also hold here; see README.md

# Which end-to-end metric each layer metric should move, and on which workload.
PREDICTIONS = [
    {"layer_metrics": ["distributions.draw_calls", "distributions.draw_us"],
     "moves": ["rounds_per_s"], "on": ["paper-sweep", "config-grid"],
     "note": "small share on windowed-long"},
    {"layer_metrics": ["environment.pull_us", "environment.observe_us", "environment.regret_us"],
     "moves": ["rounds_per_s"], "on": ["paper-sweep"], "note": "pull_us excludes draw"},
    {"layer_metrics": ["environment.windowed_calls", "environment.windowed_us"],
     "moves": ["rounds_per_s", "wall_s"], "on": ["windowed-long"],
     "note": "no calls on paper-sweep or config-grid, so the prediction there is no change"},
    {"layer_metrics": ["environment.censored_frac"], "moves": [], "on": ["config-grid"],
     "note": "an exact count; shows that config-grid mixes censoring and dense delivery"},
    {"layer_metrics": ["policies.select_calls", "policies.select_us"],
     "moves": ["rounds_per_s"], "on": ["paper-sweep", "windowed-long"],
     "note": "self time excludes windowed and estimators"},
    {"layer_metrics": ["estimators.calls", "estimators.self_us_per_round",
                       "estimators.alpha_bar_zero_frac"],
     "moves": ["rounds_per_s"], "on": ["windowed-long", "paper-sweep"],
     "note": "adapt on windowed-long, loglog on paper-sweep"},
    {"layer_metrics": ["harness.loop_us", "harness.episode_ms_p50", "harness.episode_ms_p95"],
     "moves": ["rounds_per_s"], "on": ["paper-sweep"], "note": ""},
    {"layer_metrics": ["harness.pool_starts", "harness.pool_overhead_ms"],
     "moves": ["wall_s", "config_s_p50"], "on": ["config-grid"],
     "note": "serial workloads start no pool, so the prediction there is no change"},
    {"layer_metrics": ["cli.validate_ms", "cli.write_ms", "cli.bytes_written"],
     "moves": ["config_s_p50"], "on": ["config-grid"], "note": "negligible elsewhere"},
    {"layer_metrics": ["trace.overhead"], "moves": [], "on": list(workloads.WORKLOAD_NAMES),
     "note": "states the bias of the traced numbers"},
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "simbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        out[name] = entry
    return out


def _digests(workload: str, seed: int, workdir: Path) -> dict:
    """``{config digest: output digest}`` of one serial, untimed pass."""
    wl, items, _ = run.set_up(workload, seed, workdir)
    call = run.serial_call(wl, workdir)
    digests = {}
    for item in items:
        _, digest, problems = call(item)
        if digest is None or problems:
            raise RuntimeError(f"{workload} seed {seed} {item.key}: {problems or 'no output'}")
        digests[config_digest(item.config)] = digest
    return digests


def write_digests() -> None:
    """Write ``digests.json`` for every workload on ``SEEDS`` and the held-out seed."""
    import numpy

    record = {"numpy": numpy.__version__, "seeds": [*SEEDS, HELD_OUT_SEED], "digests": {}}
    workdir = run.WORK_ROOT / f"baseline-{os.getpid()}"
    try:
        for workload in workloads.WORKLOAD_NAMES:
            for seed in record["seeds"]:
                record["digests"].update(_digests(workload, seed, workdir / f"{workload}-{seed}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "simbench" / "baseline.json"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    import numpy

    record = {
        "program_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    write_digests()
    for workload in workloads.WORKLOAD_NAMES:
        timed = [_run(workload, s, seconds, 0) for s in SEEDS]
        traced = [_run(workload, s, seconds, 1) for s in TRACED_SEEDS]
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in timed + traced),
            "failed": sum(r["failed"] for r in timed + traced),
            "end_to_end": _summary(timed),
            "per_layer": _summary(traced),
        }
        print(f"{workload}: done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
