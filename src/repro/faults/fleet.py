"""Fleet-scale GPU failure schedules, derived from the fault-hash core.

The campaign-level chaos layer decides faults one occurrence at a time
through :class:`~repro.faults.injector.FaultInjector`. A datacenter
simulation needs the same determinism at a different granularity: a
whole ``(tick, gpu)`` grid of independent failure draws, computed *up
front* so the vectorized and reference engines consume the identical
schedule (the schedule is input data, not engine behaviour, so it can
never be a source of divergence between them).

The grid is **counter-based**: one ``sha256(seed \\x1f site_prefix)``
from the fault-hash core (:func:`~repro.faults.injector.fault_hash_key`)
gives a 64-bit root key, and every cell is the splitmix64 finalizer
applied to counters mixed into it — first the GPU counter ``g + 1``
into the root (a per-GPU key), then the tick counter ``t + 1`` into
that. The mixer runs as ``uint64`` NumPy passes over tick chunks, so a
schedule costs one hash plus a few vector operations per cell instead
of one Python ``sha256`` per GPU-tick. Each cell stays a pure function
of ``(seed, site_prefix, g, t)`` — independent of the grid's shape — so
a fleet failure schedule is reproducible from ``(seed, probability)``
alone and decorrelated across GPUs, ticks, seeds and prefixes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.injector import fault_hash_key

__all__ = ["fleet_failure_schedule"]

#: splitmix64 increment (the 64-bit golden ratio) and finalizer multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: Cells mixed per pass: bounds the uint64 temporaries to a few hundred KB.
_CHUNK_CELLS = 1 << 16


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a ``uint64`` array."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _counters(start: int, stop: int) -> np.ndarray:
    """``(start..stop-1) * GAMMA`` as ``uint64`` (wrapping)."""
    return np.arange(start, stop, dtype=np.uint64) * _GAMMA


def fleet_failure_schedule(
    seed: int,
    n_gpus: int,
    n_ticks: int,
    probability: float,
    site_prefix: str = "fleet.gpu",
) -> np.ndarray:
    """Boolean ``(n_ticks, n_gpus)`` grid: does GPU *g* fail at tick *t*?

    With ``root = fault_hash_key(seed, site_prefix)``, cell ``(t, g)``
    fires iff ``mix(mix(root + (g+1)·γ) + (t+1)·γ) < ceil(p · 2**64)``
    in ``uint64`` arithmetic (``mix`` the splitmix64 finalizer, ``γ``
    its increment) — an independent Bernoulli(``p``) draw per GPU-tick.
    ``probability == 0`` short-circuits to an all-``False`` grid without
    hashing and ``probability == 1`` gives an all-``True`` grid.

    Raises :class:`ValueError` for a probability that is not a finite
    number in ``[0, 1]`` (NaN would otherwise compare false everywhere
    and switch faults off silently) or a negative dimension.
    """
    p = float(probability)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {probability!r}")
    n_g, n_t = int(n_gpus), int(n_ticks)
    if n_g < 0 or n_t < 0:
        raise ValueError(f"schedule dimensions must be >= 0, got {n_gpus} x {n_ticks}")
    if p == 0.0:
        return np.zeros((n_t, n_g), dtype=bool)
    if p == 1.0:
        return np.ones((n_t, n_g), dtype=bool)
    fires = np.empty((n_t, n_g), dtype=bool)
    if fires.size == 0:
        return fires
    threshold = np.uint64(math.ceil(p * 2.0**64))
    root = np.uint64(fault_hash_key(seed, site_prefix))
    gpu_keys = _mix64(_counters(1, n_g + 1) + root)
    step = max(1, _CHUNK_CELLS // n_g)
    for t0 in range(0, n_t, step):
        t1 = min(n_t, t0 + step)
        cells = _mix64(_counters(t0 + 1, t1 + 1)[:, None] + gpu_keys[None, :])
        np.less(cells, threshold, out=fires[t0:t1])
    return fires
