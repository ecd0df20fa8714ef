"""Tests of the benchmark itself: tracer arithmetic, inputs, emitted metrics, gate.

Run from the root of a checkout with ``python -m pytest simbench/tests``.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from simbench import calibrate, gate, run, workloads
from simbench.tracer import Tracer, WrapperCost, measure_wrapper_cost

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class ScriptedClock:
    """Returns the given nanosecond readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_tracer_self_time_of_nested_calls():
    clock = ScriptedClock(0, 10, 40, 55, 60, 100)
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: "leaf")

    def middle():
        leaf()
        return leaf()

    assert tracer.wrap("middle", middle)() == "leaf"
    # middle runs 0..100; its two leaf calls run 10..40 and 55..60.
    assert tracer.boundaries["leaf"].calls == 2
    assert tracer.boundaries["leaf"].total_ns == 35
    assert tracer.boundaries["leaf"].self_ns == 35
    assert tracer.boundaries["middle"].total_ns == 100
    assert tracer.boundaries["middle"].self_ns == 65
    assert tracer.boundaries["middle"].child_calls == 2
    assert tracer.boundaries["leaf"].child_calls == 0
    assert clock.readings == []
    # Each wrapped call costs its caller 3 ns and itself 1 ns beyond the timed work.
    cost = WrapperCost(outside_ns=3, inside_ns=1)
    assert cost.self_ns(tracer.boundaries["middle"]) == 65 - 2 * 3 - 1
    assert cost.self_ns(tracer.boundaries["leaf"]) == 35 - 2 * 1


def test_wrapper_cost_is_measured_on_the_callers_side():
    cost = measure_wrapper_cost(calls=2000)
    assert cost.outside_ns > 0


def test_tracer_spans_nest_and_install_restores():
    tracer = Tracer(clock=ScriptedClock(0, 5, 7, 20))

    class Target:
        def step(self, x):
            return x + 1

    original = Target.__dict__["step"]
    tracer.install(Target, "step", "target.step", span=True,
                   after=lambda t, args, result: t.counters.update(results=result))
    with tracer.span("config", key="c0") as config_id:
        assert Target().step(1) == 2
    tracer.restore()
    assert Target.__dict__["step"] is original
    (step_id, step_parent, name, start, end), config_span = tracer.spans
    assert (name, step_parent, start, end) == ("target.step", config_id, 5, 7)
    assert config_span[2:] == ("config", 0, 20)
    assert tracer.spans_beneath({config_id}, "target.step") == [(config_id, 2)]
    assert tracer.counters["results"] == 2
    assert tracer.snapshot()["spans"][1]["key"] == "c0"


def test_tracer_refuses_an_inherited_method():
    class Base:
        def step(self):
            pass

    class Child(Base):
        pass

    with pytest.raises(ValueError, match="inherited"):
        Tracer().install(Child, "step", "child.step")


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workloads_are_deterministic_per_seed_and_differ_across_seeds(name):
    first, again, other = workloads.make(name, 1), workloads.make(name, 1), workloads.make(name, 2)
    assert first == again
    assert first.configs != other.configs
    assert first.rounds_per_pass == other.rounds_per_pass
    assert all(len(c["arms"]) >= 2 for c in first.configs)


def test_config_grid_covers_the_declared_space():
    configs = workloads.make("config-grid", 3).configs
    assert len(configs) >= 120
    assert {len(c["arms"]) for c in configs} == set(workloads.GRID_ARM_COUNTS)
    assert {a["delay"]["kind"] for c in configs for a in c["arms"]} == set(workloads.GRID_DELAY_KINDS)
    assert {a["reward"]["kind"] for c in configs for a in c["arms"]} == {"bernoulli", "point_mass"}
    assert {str(c["policy"].get("alpha", c["policy"]["kind"])) for c in configs} >= {
        "loglog", "ucb", "uniform"}


def test_unit_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOAD_NAMES)


def _shrunk(builder):
    """The same workload with at most six configs and a horizon of 300."""
    def build(seed):
        workload = builder(seed)
        configs = []
        for cfg in workload.configs[:6]:
            cfg = dict(cfg, T=300)
            if "checkpoints" in cfg:
                cfg["checkpoints"] = [c for c in cfg["checkpoints"] if c < 300] + [300]
            configs.append(cfg)
        return dataclasses.replace(workload, configs=tuple(configs))
    return build


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_emitted_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads._BUILDERS, name, _shrunk(workloads._BUILDERS[name]))
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "config-grid":
        assert values["harness.pool_starts"] == len(workloads.make(name, 5).configs)
        assert values["environment.windowed_calls"] == 0
    elif name == "paper-sweep":
        assert values["environment.windowed_calls"] == 0
        assert values["harness.pool_starts"] == 0
    else:
        assert values["environment.windowed_calls"] > 0


def test_tracing_leaves_the_program_unwrapped(monkeypatch, capsys):
    from patientbandits import environment, estimators, harness, policies

    before = (environment.BanditInstance.draw, harness.simulate, policies.mu_hat,
              estimators.alpha_bar, harness.ProcessPoolExecutor)
    monkeypatch.setitem(workloads._BUILDERS, "windowed-long",
                        _shrunk(workloads._BUILDERS["windowed-long"]))
    run.main(["--workload", "windowed-long", "--seed", "1", "--seconds", "0", "--trace", "1"])
    capsys.readouterr()
    assert (environment.BanditInstance.draw, harness.simulate, policies.mu_hat,
            estimators.alpha_bar, harness.ProcessPoolExecutor) == before


def _grid_item(tmp_path):
    cfg = _shrunk(workloads.config_grid)(4).configs[1]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return run.Item(cfg["name"], cfg, workloads.max_gap(cfg), path)


def test_gate_passes_real_output_and_fails_a_corrupted_copy(tmp_path):
    item = _grid_item(tmp_path)
    seconds, digest, problems = run.run_cli(item, tmp_path / "out", jobs=1)
    assert problems == [] and seconds > 0
    text = (tmp_path / "out" / item.config["output"]).read_text(encoding="utf-8")
    rows = text.split("\n")
    last = rows[-2].split(",")
    rows[-2] = ",".join(last[:3] + ["0.0"] + last[4:])  # regret falls at the final round
    corrupted = "\n".join(rows)

    assert gate.csv_problems(corrupted, item.config, item.max_gap)
    assert gate.csv_problems(text.replace("mean_regret", "regret"), item.config, item.max_gap)
    assert gate.csv_problems("\n".join(text.split("\n")[:-2]) + "\n", item.config, item.max_gap)

    g = gate.Gate()
    g.set_reference(item.key, digest)
    g.record(item.key, digest, [])
    g.record(item.key, gate.bytes_digest(corrupted.encode()), [])
    g.record(item.key, None, ["raised RuntimeError()"])
    failed = g.failures()
    assert [key for key, _ in failed] == [item.key, item.key]
    assert "digest" in failed[0][1][0]


def test_gate_flags_a_broken_regret_matrix():
    checkpoints = (1, 10, 100)
    good = np.array([[0.0, 1.0, 5.0], [0.5, 0.5, 2.0]])
    assert gate.regret_problems(good, checkpoints, runs=2, max_gap=0.5) == []
    assert gate.regret_problems(good[:, ::-1], checkpoints, runs=2, max_gap=0.5)
    assert gate.regret_problems(good * 20, checkpoints, runs=2, max_gap=0.5)
    assert gate.regret_problems(good, checkpoints, runs=3, max_gap=0.5)
    assert gate.matrix_digest(good) != gate.matrix_digest(good.reshape(3, 2))


def test_gate_without_reference_requires_repeats_to_match():
    g = gate.Gate()
    g.record("a", "d1", [])
    g.record("a", "d1", [])
    g.record("a", "d2", [])
    g.set_reference("b", "d0")
    g.record("b", "d3", [])
    assert [key for key, _ in g.failures()] == ["a", "b"]


def test_committed_digests_fail_a_consistent_change(tmp_path, monkeypatch):
    item = _grid_item(tmp_path)
    _, digest, _ = run.run_cli(item, tmp_path / "out", jobs=1)
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", digests)
    record = {"numpy": np.__version__, "digests": {gate.config_digest(item.config): "0" * 64}}
    digests.write_text(json.dumps(record), encoding="utf-8")
    g = run.new_gate([item])
    g.record(item.key, digest, [])
    g.record(item.key, digest, [])  # the same output twice: consistent, but not the committed one
    assert len(g.failures()) == 2

    digests.write_text(json.dumps(dict(record, numpy="0.0")), encoding="utf-8")
    assert run.new_gate([item]).reference == {}  # digests from another numpy are not used


def test_committed_digest_matches_the_program():
    workload, items, _ = run.set_up("paper-sweep", 1, run.WORK_ROOT / "unused")
    item = items[0]
    _, digest, problems = run.run_monte_carlo(item)
    assert problems == []
    assert run.committed_digests()[gate.config_digest(item.config)] == digest


def test_calibration_scales_each_call_by_its_kernel_time():
    ref = calibrate.REFERENCE_SECONDS
    passes = [{"a": (2.0, 2 * ref), "b": (1.0, ref)},
              {"a": (1.0, ref), "b": (4.0, 2 * ref)},
              {"a": (3.0, ref), "b": (3.0, 3 * ref)}]
    assert calibrate.median_at_reference(passes) == {"a": 1.0, "b": 1.0}
    assert calibrate.speed(passes) == pytest.approx(2 / 3)  # median kernel is 1.5 x reference
    assert calibrate.kernel() == calibrate.kernel()
