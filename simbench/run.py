"""Benchmark of the patientbandits simulator, driven through its public entry points.

Run from the root of a checkout::

    python3 simbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
makes the traced run that gives the per-layer metrics (see ``layers.py``) and
writes its full record to ``.simbench_work/trace-<workload>-seed<seed>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
each starting with ``#``, repeat the metrics with their units and add the
figures that are not defined on every workload.

The program is imported from ``src/`` of the same checkout. If it is not
there, the benchmark prints an error and exits with code 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from simbench import calibrate, workloads  # noqa: E402
from simbench.gate import (  # noqa: E402
    Gate, bytes_digest, config_digest, csv_problems, matrix_digest, regret_problems,
)
from simbench.tracer import Tracer, measure_wrapper_cost  # noqa: E402

WORK_ROOT = ROOT / ".simbench_work"
DIGESTS = ROOT / "simbench" / "digests.json"
SETUP_REPEATS = 11  # set-ups per run, each in a fresh interpreter; setup_s is their median
PROBE_KERNELS = 5  # kernel runs in each set-up probe, after its set-up
P90_MIN_SAMPLES = 100  # a p90 needs at least 10 samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "config_s_p50": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "distributions.draw_calls": "count",
    "distributions.draw_us": "us",
    "environment.pull_us": "us",
    "environment.observe_us": "us",
    "environment.regret_us": "us",
    "environment.windowed_calls": "count",
    "environment.windowed_us": "us",
    "environment.censored_frac": "ratio",
    "policies.select_calls": "count",
    "policies.select_us": "us",
    "estimators.calls": "count",
    "estimators.self_us_per_round": "us",
    "estimators.alpha_bar_zero_frac": "ratio",
    "harness.loop_us": "us",
    "harness.episode_ms_p50": "ms",
    "harness.episode_ms_p95": "ms",
    "harness.pool_starts": "count",
    "harness.pool_overhead_ms": "ms",
    "cli.validate_ms": "ms",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
}


def import_program():
    """Import ``patientbandits`` from this checkout's ``src/``, and from nowhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import patientbandits

    where = Path(patientbandits.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"patientbandits was imported from {where}, not from {src}")
    return patientbandits


@dataclass
class Item:
    """One generated config, validated and ready to run.

    ``target`` is the built ``BanditInstance`` for workloads that call
    ``monte_carlo`` directly, and the config file's path for workloads that
    go through ``patientbandits run``.
    """

    key: str
    config: dict
    max_gap: float
    target: object


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, generate the workload's inputs and validate them.

    Returns ``(workload, items, seconds)``. The config files that
    ``patientbandits run`` reads are written after the timer stops: that
    I/O is the benchmark's own, and its noise is no cost of the program's.
    """
    start = time.perf_counter()
    import_program()
    from patientbandits import cli

    workload = workloads.make(name, seed)
    items = []
    for cfg in workload.configs:
        config = cli.ExperimentConfig.from_dict(cfg)  # builds the instance and the policy
        if workload.jobs is None:
            target = config.build_instance()
        else:
            target = workdir / "configs" / f"{cfg['name']}.json"
        items.append(Item(cfg["name"], cfg, workloads.max_gap(cfg), target))
    seconds = time.perf_counter() - start
    if workload.jobs is not None:
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        for item in items:
            item.target.write_text(json.dumps(item.config), encoding="utf-8")
    return workload, items, seconds


def _timed(fn, *args, **kwargs):
    """``(result, error, seconds)`` of one program call; an exception is an error, not a crash."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a config that raises is a failed attempt
        return None, f"raised {exc!r}", time.perf_counter() - start
    return result, None, time.perf_counter() - start


def run_monte_carlo(item: Item):
    """One config through ``harness.monte_carlo``: ``(seconds, digest, problems)``."""
    from patientbandits import harness

    cfg = item.config
    result, error, seconds = _timed(
        harness.monte_carlo,
        item.target,
        cfg["policy"],
        runs=cfg["runs"],
        master_seed=cfg["master_seed"],
        checkpoints=cfg.get("checkpoints"),
        n_jobs=1,
    )
    if error is not None:
        return seconds, None, [error]
    problems = regret_problems(result.regrets, result.checkpoints, cfg["runs"], item.max_gap)
    return seconds, matrix_digest(result.regrets), problems


def run_cli(item: Item, out_dir: Path, jobs: int):
    """One config through ``patientbandits run``: ``(seconds, digest, problems)``."""
    from patientbandits import cli

    cfg = item.config
    csv_path = out_dir / cfg["output"]
    csv_path.unlink(missing_ok=True)
    argv = ["run", str(item.target), "--out", str(out_dir), "--jobs", str(jobs)]
    messages = io.StringIO()
    with redirect_stdout(messages), redirect_stderr(messages):
        code, error, seconds = _timed(cli.main, argv)
    if error is not None or code != 0:
        return seconds, None, [error or f"exit code {code}: {messages.getvalue().strip()}"]
    try:
        data = csv_path.read_bytes()
    except OSError as exc:
        return seconds, None, [f"CSV not readable: {exc}"]
    return seconds, bytes_digest(data), csv_problems(data.decode("utf-8"), cfg, item.max_gap)


def native_call(workload, workdir: Path):
    """The call that runs one config the way the workload's users run it."""
    if workload.jobs is None:
        return run_monte_carlo
    return partial(run_cli, out_dir=workdir / "out", jobs=workload.jobs)


def serial_call(workload, workdir: Path):
    """The same call in one process, where per-call boundaries can count."""
    if workload.jobs is None:
        return run_monte_carlo
    return partial(run_cli, out_dir=workdir / "serial", jobs=1)


def run_pass(items, call, gate: Gate, kernel, tracer=None, **span_attrs) -> dict:
    """Every config once; returns ``{key: (seconds, kernel_seconds)}``.

    ``kernel_seconds`` is the mean of the calibration ``kernel()`` timed just
    before and just after the call. Only the program call is timed and
    inside the config span; the kernel and the output checks run between.
    """
    timings = {}
    before = kernel()
    for item in items:
        span = tracer.span("config", key=item.key, **span_attrs) if tracer else nullcontext()
        with span:
            seconds, digest, problems = call(item)
        after = kernel()
        gate.record(item.key, digest, problems)
        timings[item.key] = (seconds, (before + after) / 2)
        before = after
    return timings


def repeat_passes(items, call, gate: Gate, seconds: float, kernel=calibrate.kernel_seconds,
                  tracer=None, phase=None, between=None):
    """Whole passes, at least one; one dict per pass.

    Another pass starts while at least half of it, if it takes as long as
    the last, fits in ``seconds``, so on average the passes fill ``seconds``.
    ``between(fraction)``, if given, runs before the first pass and after
    each pass with the share of ``seconds`` used so far.
    """
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last / 2 <= seconds:
        pass_start = time.perf_counter()
        if between is not None:
            between((pass_start - start) / seconds if seconds else 1.0)
        attrs = {} if tracer is None else {"phase": phase, "pass_index": len(passes)}
        passes.append(run_pass(items, call, gate, kernel, tracer, **attrs))
        last = time.perf_counter() - pass_start
    if between is not None:
        between(1.0)
    return passes


def calibrated(fn, *args):
    """``(result, kernel_seconds)``, the kernel timed just before and after ``fn``."""
    before = calibrate.kernel_seconds()
    result = fn(*args)
    return result, (before + calibrate.kernel_seconds()) / 2


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """``(seconds, kernel_seconds)`` of one set-up in a fresh interpreter.

    A fresh interpreter pays the full import, as a user's first call does.
    The probe times the kernel itself, right after its set-up, so the speed
    it is scaled by is that of the same process at nearly the same moment.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel_s = proc.stdout.split()[-2:]
    return float(seconds), float(kernel_s)


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    """The probe's side: one set-up, then the median of a few kernel runs."""
    _, _, seconds = set_up(name, seed, workdir)
    kernel_s = statistics.median(calibrate.kernel_seconds() for _ in range(PROBE_KERNELS))
    print(repr(seconds), repr(kernel_s))


def peak_rss_mib() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def committed_digests() -> dict:
    """``{config digest: output digest}`` from ``digests.json``, if made with this numpy.

    Output digests depend on numpy's arithmetic, so a record made with
    another numpy version is not used.
    """
    import numpy

    try:
        record = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return record.get("digests", {}) if record.get("numpy") == numpy.__version__ else {}


def new_gate(items) -> Gate:
    """A gate holding the committed output digest of every config that has one."""
    gate = Gate()
    committed = committed_digests()
    for item in items:
        expected = committed.get(config_digest(item.config))
        if expected is not None:
            gate.set_reference(item.key, expected)
    return gate


def reference_note(gate: Gate, items) -> str:
    return (f"committed reference digests (digests.json) for {len(gate.reference)} "
            f"of {len(items)} configs")


def serial_pass(items, call, gate: Gate) -> None:
    """Every config once, untimed; its digests are the reference where none is committed."""
    for item in items:
        _, digest, problems = call(item)
        gate.record(item.key, digest, problems)


def timed_run(name: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics, tracing off. Returns ``(gate, metrics, notes)``."""
    calibrate.kernel()  # warm-up: the first run imports numpy
    workload, items, _ = set_up(name, seed, workdir)
    setups = []

    def probe_due(fraction: float) -> None:
        # Spread the set-ups over the run, so they meet the machine in all its moods.
        while len(setups) < SETUP_REPEATS and len(setups) <= fraction * SETUP_REPEATS:
            setups.append(probe_setup(name, seed))

    gate = new_gate(items)
    if workload.jobs is not None:
        # Outside the timed part: where no digest of a serial run is committed,
        # one is made here, so the pooled outputs must match it byte for byte.
        uncommitted = [item for item in items if item.key not in gate.reference]
        serial_pass(uncommitted, serial_call(workload, workdir), gate)
    with calibrate.Kernel(workload.jobs or 1) as kernel:
        passes = repeat_passes(items, native_call(workload, workdir), gate, seconds,
                               kernel.seconds, between=probe_due)
    per_config = list(calibrate.median_at_reference(passes).values())
    wall_s = sum(per_config)
    metrics = {
        "setup_s": statistics.median(calibrate.at_reference(*s) for s in setups),
        "wall_s": wall_s,
        "rounds_per_s": workload.rounds_per_pass / wall_s,
        "config_s_p50": statistics.median(per_config),
        "peak_rss_mb": peak_rss_mib(),
    }
    raw_walls = [sum(s for s, _ in p.values()) for p in passes]
    kernels = [k for p in passes for _, k in p.values()]
    notes = [
        reference_note(gate, items),
        f"passes {len(passes)}, configs per pass {len(items)}, "
        f"rounds per pass {workload.rounds_per_pass}",
        f"times are at reference speed (kernel {calibrate.REFERENCE_SECONDS} s, "
        f"run in {workload.jobs or 1} process(es) at once); "
        f"kernel median {statistics.median(kernels)!r} s, "
        f"min {min(kernels)!r} s, max {max(kernels)!r} s",
        f"raw pass walls: median {statistics.median(raw_walls)!r} s, "
        f"min {min(raw_walls)!r} s, max {max(raw_walls)!r} s; "
        f"raw setup median {statistics.median(s for s, _ in setups)!r} s",
        f"wall_s sums each config's median over {len(passes)} passes; "
        f"config_s_p50 is over {len(per_config)} configs",
    ]
    if len(per_config) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(per_config, n=10, method="inclusive")[8]
        notes.append(f"config_s_p90 {p90!r} s (over {len(per_config)} configs)")
    else:
        notes.append(
            f"config_s_p90 not reported: {len(per_config)} configs < {P90_MIN_SAMPLES}")
    return gate, metrics, notes


def traced_run(name: str, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from the traced run. Returns ``(gate, metrics, notes)``."""
    import_program()
    from simbench import layers

    calibrate.kernel()  # warm-up
    setup = layers.Phase(Tracer())
    layers.install_parent(setup.tracer)
    try:
        (workload, items, setup_seconds), kernel_s = calibrated(set_up, name, seed, workdir)
    finally:
        setup.tracer.restore()
    setup.passes.append({"set-up": (setup_seconds, kernel_s)})
    gate = new_gate(items)
    serial = serial_call(workload, workdir)

    # Serial passes with episode spans only: the untraced baseline. They run
    # first, so where no digest is committed theirs are the reference for
    # every later pass.
    untraced = layers.Phase(Tracer())
    layers.install_parent(untraced.tracer)
    layers.install_episodes(untraced.tracer)
    try:
        untraced.passes = repeat_passes(
            items, serial, gate, seconds / 2, tracer=untraced.tracer, phase="untraced")
    finally:
        untraced.tracer.restore()

    native = None
    if workload.jobs is not None:
        native = layers.Phase(Tracer())
        layers.install_parent(native.tracer)
        try:
            with calibrate.Kernel(workload.jobs) as kernel:
                native.passes = repeat_passes(
                    items, native_call(workload, workdir), gate, 0, kernel.seconds,
                    native.tracer, "native")
        finally:
            native.tracer.restore()

    # The wrappers' own cost is timed between the traced passes, so that it
    # meets the machine in the same moods as they do.
    traced = layers.Phase(Tracer())
    wrapper_costs = []
    layers.install_parent(traced.tracer)
    layers.install_episodes(traced.tracer)
    layers.install_calls(traced.tracer)
    try:
        traced.passes = repeat_passes(
            items, serial, gate, seconds / 2, tracer=traced.tracer, phase="traced",
            between=lambda _: wrapper_costs.append(calibrated(measure_wrapper_cost)))
    finally:
        traced.tracer.restore()
    traced.wrapper = traced.wrapper_at_speed(wrapper_costs)

    metrics = layers.per_layer_metrics(
        setup=setup, untraced=untraced, native=native, traced=traced,
        rounds_per_pass=workload.rounds_per_pass, jobs=workload.jobs,
    )
    phases = {"setup": setup, "untraced": untraced, "native": native, "traced": traced}
    record = {
        "workload": name,
        "seed": seed,
        "reference_kernel_seconds": calibrate.REFERENCE_SECONDS,
        "wrapper_cost_ns_at_phase_speed": dataclasses.asdict(traced.wrapper),
        "wrapper_costs": [[dataclasses.asdict(c), k] for c, k in wrapper_costs],
        "metrics": metrics,
        "digests": [[a.key, a.digest] for a in gate.attempts],
        "phases": {
            k: None if ph is None else {"passes": ph.passes, **ph.tracer.snapshot()}
            for k, ph in phases.items()
        },
    }
    trace_path = WORK_ROOT / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps(record), encoding="utf-8")

    self_us = {m: metrics[m] for m in layers.SELF_US_PER_ROUND}
    total = sum(self_us.values())
    notes = [
        reference_note(gate, items),
        f"untraced passes {len(untraced.passes)}, traced passes {len(traced.passes)}; "
        f"times are at reference speed; trace written to {trace_path.relative_to(ROOT)}",
        f"wrapper cost per wrapped call, taken out of self times (median of "
        f"{len(wrapper_costs)}, at reference speed): "
        f"{traced.wrapper.outside_ns * traced.speed:.0f} ns in the caller, "
        f"{traced.wrapper.inside_ns * traced.speed:.0f} ns in the call",
        "self-time share per round: " + ", ".join(
            f"{m} {v / total:.1%}" for m, v in sorted(self_us.items(), key=lambda kv: -kv[1])
        ),
    ]
    return gate, metrics, notes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up in this interpreter, printing its seconds.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, workdir)
            return 0
        if args.trace:
            gate, metrics, notes = traced_run(args.workload, args.seed, args.seconds, workdir)
            units = PER_LAYER_UNITS
        else:
            gate, metrics, notes = timed_run(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END_UNITS
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = gate.failures()
    attempted = len(gate.attempts)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"# {name} {metrics[name]!r} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_frac {len(failures) / attempted!r} ({len(failures)} of {attempted} configs)")
    for key, reasons in failures[:10]:
        print(f"# FAILED {key}: {'; '.join(reasons)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
