"""Compiled episode loops, equal bit for bit to the Python ones.

``index_kernel.c`` plays a whole episode of a policy of one of three shapes.

- A policy that declares ``Policy.radius_index`` ``(T, delta, alpha)``:
  the sweep, then the first argmax of ``sums[i] / n + radius``
  (``play_optimistic``). The kernel computes an arm's radius when it is
  pulled, ``deviation(n, delta) + delay_bias(n, alpha)`` in the operations
  of :mod:`.estimators` (no bias when ``alpha`` is None), so it holds no
  radius table. For a schedule of the round such as ``loglog``, the bias
  ``2 * n ** -e_t`` at round ``t`` is added each round; the exponents
  ``e_t = min(alpha(t), 0.5)`` are computed in Python before the episode,
  for rounds 2..T (round 1 is always a sweep round). An episode whose
  ``delta`` is not a float, or whose exponent (at any round, for a
  schedule) raises or is not a float in [0, 0.5], is not played here, so
  the generic loop keeps its own behaviour, exception and all.
- A policy that declares ``Policy.window_index``, ``ducb``: round robin
  before round ``m + K``, then the first argmax of
  :func:`.policies.ducb_index` over each arm's window at the fixed wait
  ``m`` (``play_ducb``). Each round one pull enters one window, and an
  arm's nonzero rewards are one value ``v``, so a window of ``k`` of them
  totals ``k * v`` rounded once, the exact sum that
  :meth:`.ObservationView.windowed` rounds once.
- A policy that declares ``Policy.uniform_index``, ``uniform``: each round
  the arm from the generator's ``integers(K)``, then the pull's two
  uniforms (``play_uniform``). The arm never depends on a reward, so the
  loop keeps no calendar and no sums, only the pull counts and the
  censored count.

All three file each pull by :meth:`.DelayedBanditEnv.pull`'s rules (delays
clamped to T + 1, arrival at ``s + max(d, 1)``, censoring past T, no
calendar entry for a zero reward of either sign), in one C helper: the one
copy of those rules besides ``pull`` itself, which the generic loop
calls. A law's nonzero reward is one value per arm, so the order in which
a round's arrivals are added changes no sum. The kernel returns the pull counts at
each checkpoint; :func:`.environment.pseudo_regret` turns them into regret
in Python, so the regret sum has one definition.

A batch of episodes, not one episode, is the unit of work.
:func:`index_batch` is the batch's prologue: it checks the policy's
declaration, encodes the laws, loads the library, checks the checkpoints
and computes a schedule's exponents, once, and returns the per-seed call,
or None when the kernel declines the batch. The per-seed call draws the
episode's uniforms or raw outputs and runs the C loop. numpy's fill of the
buffer and the C loop run without the GIL (the library is a
``ctypes.CDLL``, not a ``PyDLL``), so one batch's episodes can play on
threads at once, as ``monte_carlo`` plays them.

The per-seed call of an index episode reads its ``2 T`` uniforms from
``default_rng(seed).random(2 T)``. That of a ``uniform`` episode passes
``default_rng(seed).bit_generator.random_raw(n)``, numpy's raw PCG64
outputs, and the C loop reads them as :class:`.harness._Stream` does: the
arm by Lemire's bounded multiply on 32-bit halves, low word first, and each
uniform as ``(raw >> 11) * 2**-53``. ``n`` covers the episode when no draw
is rejected, plus a few; a rejection is rare (never for a power-of-2 K),
and when the loop would read past the buffer it says so, and the episode is
played again from a fresh generator with twice as many. PCG64 itself is not
compiled: numpy draws the outputs. The laws map the uniforms as their
``from_uniform`` do, with the C library's ``pow``, ``log``, ``sqrt`` and
``ceil`` that CPython's ``**``, ``math.log``, ``math.sqrt`` and
``math.ceil`` call in the same process. It knows the six built-in laws
only; an instance that overrides ``draw``, or holds any other law, is not
played here.

The library is built on first use, never at import: the host's ``cc`` (or
``gcc``) compiles the source with :data:`FLAGS` into the package's
``__pycache__``, under a name keyed by a hash of the source, the flags and
the compiler, written to a temporary name and moved in with ``os.replace``
so that processes building at once all load a complete file. Without a
compiler, or when building, writing or loading fails, :func:`load` returns
None, remembered for the process but not on disk, and episodes run in
Python.
"""
from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import tempfile
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .distributions import Bernoulli, Dirac, Geometric, ParetoCeil, PointMass, TwoPointMass
from .environment import BanditInstance

SOURCE = Path(__file__).with_name("index_kernel.c")
# No -ffast-math, and no contraction of a multiply and an add into one FMA.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
CACHE = Path(__file__).with_name("__pycache__")

# Delay kinds of index_kernel.c.
_FIXED, _PARETO, _TWO_POINT, _GEOMETRIC = range(4)
# play_uniform's return when the episode needs more raw outputs than it was given.
_SHORT = -2
# Raw outputs a uniform episode draws beyond those it needs without a rejection.
_SLACK = 64

_library = None
_tried = False
# The last (schedule, T) seen and its exponents, or None when the kernel
# declines them: computed once per process, not per run or per K.
_exponents = (None, None, None)


def load():
    """The kernel's library, built and loaded on the first call; None if it cannot be."""
    global _library, _tried
    if not _tried:
        _tried = True
        try:
            _library = _build_and_load()
        except (OSError, subprocess.SubprocessError):
            _library = None
    return _library


def _build_and_load():
    import hashlib  # here, not at import: parsing a config should not pay for it

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    info = os.stat(compiler)
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(repr((FLAGS, compiler, info.st_size, info.st_mtime_ns)).encode())
    path = CACHE / f"index_kernel-{key.hexdigest()[:16]}.so"
    if not path.exists():
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=CACHE, prefix=f"{path.stem}.", suffix=".tmp")
        os.close(fd)
        try:
            built = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                capture_output=True, timeout=300,
            )
            if built.returncode != 0:
                return None
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    library = ctypes.CDLL(str(path))
    count, real, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    laws, marks = [pointer] * 6, [count, pointer, pointer]
    library.play_optimistic.restype = library.play_ducb.restype = count
    library.play_uniform.restype = count
    library.play_optimistic.argtypes = [count] * 3 + laws + [real] * 2 + [pointer] * 2 + marks
    library.play_ducb.argtypes = [count] * 3 + [real] + laws + [pointer] + marks
    library.play_uniform.argtypes = [count] * 2 + laws + [pointer, count] + marks
    return library


def _encode(instance: BanditInstance):
    """The laws as index_kernel.c takes them, or None for a law it does not know."""
    T = instance.horizon
    below, value, kind, param, d0, d1 = [], [], [], [], [], []
    for reward, delay in instance.arms:
        if type(reward) is Bernoulli and type(reward.mu) in (float, int):
            below.append(reward.mu)
            value.append(1.0)
        elif type(reward) is PointMass and type(reward.value) in (float, int):
            below.append(2.0 if reward.value else 0.0)  # every uniform, or none
            value.append(reward.value)
        else:
            return None
        first, second, real = 0, 0, 0.0
        if type(delay) is Dirac:
            k, first = _FIXED, delay.d
        elif type(delay) is ParetoCeil and type(delay._exponent) is float:
            k, real = _PARETO, delay._exponent
        elif type(delay) is TwoPointMass and type(delay.p) in (float, int):
            k, real, first, second = _TWO_POINT, delay.p, delay.d0, delay.d1
        elif type(delay) is Geometric and type(delay.q) in (float, int):
            if delay.q >= 1.0:
                k = _FIXED  # every delay is 0
            else:
                k, real = _GEOMETRIC, math.log(1.0 - delay.q)  # the C library's log
        else:
            return None
        kind.append(k)
        param.append(real)
        d0.append(min(int(first), T + 1))
        d1.append(min(int(second), T + 1))
    return (
        np.array(below, dtype=np.float64),
        np.array(value, dtype=np.float64),
        np.array(kind, dtype=np.int32),
        np.array(param, dtype=np.float64),
        np.array(d0, dtype=np.int64),
        np.array(d1, dtype=np.int64),
    )


def _exponent(alpha) -> float:
    """``min(alpha, 0.5)`` as ``delay_bias`` takes it; ValueError unless a float in [0, 0.5]."""
    e = 0.5 if 0.5 < alpha else alpha
    if type(e) is not float or not 0.0 <= e <= 0.5:
        raise ValueError(f"exponent {e!r}")
    return e


def _exponents_of(alpha, T: int) -> Optional[np.ndarray]:
    """``_exponent(alpha(t))`` at index ``t`` for rounds 2..T (0 before), or None.

    None when a call raises, or an exponent is not a float in [0, 0.5]: the
    generic loop then plays the episode, and raises what ``select`` raises
    at the round it raises.
    """
    global _exponents
    if _exponents[0] is not alpha or _exponents[1] != T:
        try:
            exponents = np.fromiter(
                chain((0.0, 0.0), (_exponent(alpha(t)) for t in range(2, T + 1))),
                np.float64, T + 1,
            )
        except Exception:  # any schedule's own failure, left to the generic loop
            exponents = None
        _exponents = (alpha, T, exponents)
    return _exponents[2]


def index_batch(instance: BanditInstance, policy, checkpoints) -> Optional[Callable[[int], tuple]]:
    """The kernel's episodes of the reset ``policy`` on ``instance``, or None.

    The batch's prologue: it checks the declaration, encodes the laws, loads
    the library, checks the checkpoints and computes a schedule's exponents,
    once. It returns ``episode``, where ``episode(seed)`` is ``(counts,
    censored)`` of the episode run ``seed``, and ``counts`` is an int64 array
    with one row of pull counts per checkpoint. ``episode`` reads no policy
    and no module state, so a batch's episodes can play on threads at once.

    None means the batch is not the kernel's: the policy has no
    ``radius_index``, ``window_index`` or ``uniform_index``, its delta is
    not a float, its exponent (or its schedule's, at some round) raises or
    lies outside [0, 0.5], the instance overrides ``draw`` or holds a law
    other than the built-in six, or the library cannot be had. The policy
    must have been reset to the instance's horizon, and the checkpoints must
    increase within [1, T]; otherwise ``ValueError``. An episode too large
    for memory raises ``MemoryError`` when it is played.
    """
    radius, window, uniform = policy.radius_index, policy.window_index, policy.uniform_index
    if (radius is None and window is None and uniform is None) or (
        type(instance).draw is not BanditInstance.draw
    ):
        return None
    laws = _encode(instance)
    if laws is None:
        return None
    library = load()
    if library is None:
        return None
    K, T = instance.n_arms, instance.horizon
    # The radius's default delta depends on T, and the kernel writes one row per mark.
    marks = np.array(checkpoints, dtype=np.int64)
    if (radius is not None and radius[0] != T) or not (
        len(marks) and marks[0] >= 1 and marks[-1] <= T and (marks[1:] > marks[:-1]).all()
    ):
        raise ValueError(f"needs a policy reset to T={T} and checkpoints increasing in [1, T]")
    pointers = [a.ctypes.data for a in laws]
    if uniform is not None:
        return partial(_uniform_episode, library.play_uniform, (K, T, *pointers), laws, marks, K, T)
    exponents = None
    if radius is not None:
        _, delta, alpha = radius
        if type(delta) is not float:
            return None
        exponent = -1.0  # no bias term
        if callable(alpha):
            exponents = _exponents_of(alpha, T)
            if exponents is None:
                return None
        elif alpha is not None:
            try:
                exponent = _exponent(alpha)
            except ValueError:
                return None
        play = library.play_optimistic
        head = (K, T, policy.init_pulls, *pointers, delta, exponent,
                None if exponents is None else exponents.ctypes.data)
    else:
        m, tau_m = window
        # Any m past T makes every round round robin; ctypes would silently
        # wrap an m past the int64 range.
        play, head = library.play_ducb, (K, T, min(m, T + 1), tau_m, *pointers)
    return partial(_episode, play, head, (laws, exponents), marks, K, T)


def _episode(play, head, arrays, marks, K: int, T: int, seed: int) -> tuple:
    """``(counts, censored)`` of ``play(*head, ...)`` on run ``seed``'s ``2 T`` uniforms.

    ``arrays`` holds the arrays that ``head``'s addresses point into, so
    they live as long as the batch.
    """
    try:
        uniforms = np.random.default_rng(seed).random(2 * T)
    except ValueError:  # more bytes than an address can span
        raise MemoryError(f"the {2 * T} uniforms of T={T} do not fit in memory") from None
    return _played(play, (*head, uniforms.ctypes.data), marks, K, T)


def _uniform_episode(play, head, arrays, marks, K: int, T: int, seed: int) -> tuple:
    """``(counts, censored)`` of ``play_uniform(*head, ...)`` on run ``seed``'s raw outputs.

    ``2 T`` raw outputs give the uniforms and ``ceil(T / 2)`` the arms'
    32-bit halves when no draw is rejected; ``_SLACK`` more cover a few
    rejections. When the episode needs more than it was given, it is played
    again from a fresh generator with twice as many.
    """
    size = 2 * T + (T + 1) // 2 + _SLACK
    while True:
        try:
            raws = np.random.default_rng(seed).bit_generator.random_raw(size)
        except ValueError:  # more bytes than an address can span
            raise MemoryError(f"the {size} raw outputs of T={T} do not fit in memory") from None
        counts, censored = _played(play, (*head, raws.ctypes.data, size), marks, K, T)
        if censored != _SHORT:
            return counts, censored
        size *= 2


def _played(play, args, marks, K: int, T: int) -> tuple:
    """``(counts, censored)`` of ``play(*args, ...)``, the pull counts at ``marks``."""
    counts = np.empty((len(marks), K), dtype=np.int64)
    censored = play(*args, len(marks), marks.ctypes.data, counts.ctypes.data)
    if censored == -1:
        raise MemoryError(f"an episode of T={T} does not fit in memory")
    return counts, censored
