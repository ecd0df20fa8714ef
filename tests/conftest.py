"""Shared test helpers: canned observation views and scripted instances."""
from __future__ import annotations

from patientbandits.environment import BanditInstance


class FakeView:
    """Observation stub answering from fixed tables.

    ``windows`` maps (arm, wait) -> (count, total); unlisted queries return
    ``(0, 0.0)``.
    """

    def __init__(self, counts, sums, t, windows=None):
        self.counts = tuple(counts)
        self.sums = tuple(sums)
        self.t = t
        self.windows = dict(windows or {})
        self.queried_windows = []

    def windowed(self, arm, wait):
        self.queried_windows.append((arm, wait))
        return self.windows.get((arm, wait), (0, 0.0))


class ScriptedInstance(BanditInstance):
    """Instance whose draws replay a fixed per-arm script of (reward, delay)."""

    def __init__(self, arms, horizon, script):
        super().__init__(arms, horizon)
        self._script = {arm: list(draws) for arm, draws in script.items()}

    def draw(self, arm, u, v):
        return self._script[arm].pop(0)
