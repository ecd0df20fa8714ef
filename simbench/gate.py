"""Correctness gate: output digests and invariants checked from outside the program.

Every attempted config leaves one record: the SHA-256 of its output (the CSV
body for ``patientbandits run``, the regret matrix for ``monte_carlo``) and
the invariants it broke. A config fails when it raised, broke an invariant,
or produced a digest different from its reference. The reference is the
digest committed for that exact config in ``digests.json`` when there is
one, else the first digest recorded for it (later passes must repeat it bit
for bit).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

CSV_HEADER = "policy,run_count,round,mean_regret,stderr"

# Regret is a sum of gap * count products; allow rounding in the last digits.
_REL_TOL = 1e-9


def _over_cap(value: float, cap: float) -> bool:
    return value > cap * (1.0 + _REL_TOL) + _REL_TOL


def matrix_digest(regrets) -> str:
    """SHA-256 of a float64 regret matrix, its shape included."""
    h = hashlib.sha256(repr(tuple(regrets.shape)).encode())
    h.update(regrets.astype("<f8").tobytes())
    return h.hexdigest()


def config_digest(config: dict) -> str:
    """SHA-256 of a generated config, the key of its committed output digest."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def regret_problems(regrets, checkpoints, runs: int, max_gap: float) -> list[str]:
    """Invariants of a ``MonteCarloResult.regrets`` matrix (row = run)."""
    if tuple(regrets.shape) != (runs, len(checkpoints)):
        return [f"regret matrix shape {tuple(regrets.shape)} != {(runs, len(checkpoints))}"]
    problems = []
    for r, row in enumerate(regrets.tolist()):
        if any(b < a for a, b in zip(row, row[1:])):
            problems.append(f"run {r}: regret decreases across checkpoints")
        if any(not math.isfinite(v) or v < 0.0 for v in row):
            problems.append(f"run {r}: regret negative or not finite")
        if any(_over_cap(v, max_gap * t) for v, t in zip(row, checkpoints)):
            problems.append(f"run {r}: regret above max_gap * round")
    return problems


def csv_problems(text: str, config: dict, max_gap: float) -> list[str]:
    """Invariants of the CSV that ``patientbandits run`` writes for one config."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header is not {CSV_HEADER!r}"]
    checkpoints = config["checkpoints"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(checkpoints):
        return [f"CSV has {len(rows)} rows, expected {len(checkpoints)}"]
    problems = []
    means = []
    for row, cp in zip(rows, checkpoints):
        if len(row) != 5:
            return [f"CSV row {row!r} does not have 5 columns"]
        label, run_count, round_, mean, stderr = row
        if label != config["name"] or int(run_count) != config["runs"] or int(round_) != cp:
            problems.append(f"CSV row {row!r} does not match the config")
        mean, stderr = float(mean), float(stderr)
        if not math.isfinite(mean) or mean < 0.0 or _over_cap(mean, max_gap * cp):
            problems.append(f"round {cp}: mean regret {mean!r} outside [0, max_gap * round]")
        if not math.isfinite(stderr) or stderr < 0.0:
            problems.append(f"round {cp}: stderr {stderr!r} negative or not finite")
        means.append(mean)
    if any(b < a for a, b in zip(means, means[1:])):
        problems.append("mean regret decreases across checkpoints")
    return problems


@dataclass
class Attempt:
    key: str
    digest: str | None
    problems: list


@dataclass
class Gate:
    """Collects one :class:`Attempt` per config call and judges them together."""

    attempts: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def record(self, key: str, digest: str | None, problems: list) -> None:
        self.attempts.append(Attempt(key, digest, list(problems)))

    def set_reference(self, key: str, digest: str) -> None:
        """Expected digest of ``key``, in place of the first one recorded."""
        self.reference[key] = digest

    def failures(self) -> list[tuple[str, list]]:
        """``(key, reasons)`` of every failed attempt, in attempt order."""
        reference = dict(self.reference)
        failed = []
        for a in self.attempts:
            reasons = list(a.problems)
            if a.digest is None:
                reasons.append("no output")
            else:
                expected = reference.setdefault(a.key, a.digest)
                if a.digest != expected:
                    reasons.append(f"digest {a.digest[:12]} != reference {expected[:12]}")
            if reasons:
                failed.append((a.key, reasons))
        return failed
