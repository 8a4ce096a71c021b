"""Pareto-front extraction for the speedup / normalized-energy trade-off.

Convention (paper §2.1): a configuration is Pareto-optimal when no other
configuration achieves **higher speedup** without **higher normalized
energy** — i.e. we maximize speedup and minimize energy. Ties are handled
so that duplicated points are reported once.

A configuration is a core clock, optionally tagged with the memory clock
of a 2-D ``(f_core, f_mem)`` grid. Domination is always judged in the
objective plane; the clocks only identify which configuration achieved a
point, so a core-only sweep is simply the untagged one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_finite_array

__all__ = [
    "ParetoPoint",
    "ParetoFront",
    "pareto_mask",
    "extract_front",
    "half_bin_tolerance",
    "DEFAULT_FREQ_TOL_MHZ",
]

#: Floor for frequency-matching tolerances: just over half the smallest
#: realistic driver quantum, so two floats that snap onto the same bin
#: always match while neighbouring bins of every modeled device (>= 7.5
#: MHz spacing) never do.
DEFAULT_FREQ_TOL_MHZ = 0.51


def half_bin_tolerance(freqs_mhz, floor_mhz: float = DEFAULT_FREQ_TOL_MHZ) -> float:
    """Frequency-matching tolerance derived from a sweep grid.

    Half the median bin spacing of ``freqs_mhz``, floored at
    ``floor_mhz``: a frequency within half a bin of a grid point would
    snap onto it, anything further away belongs to a different bin. This
    is the one shared definition used by Pareto-front membership
    (:meth:`ParetoFront.contains_freq`), the §5.2.2 assessment and the
    CLI — so "is this frequency on the front?" means the same thing
    everywhere. A grid with fewer than two points has no spacing; the
    tolerance falls back to 1 MHz.
    """
    fr = np.asarray(freqs_mhz, dtype=float).ravel()
    if fr.size < 2:
        return max(float(floor_mhz), 1.0)
    return max(float(np.median(np.diff(np.sort(fr)))) / 2.0, float(floor_mhz))


@dataclass(frozen=True)
class ParetoPoint:
    """One configuration on (or compared against) a Pareto front."""

    speedup: float
    energy: float
    freq_mhz: float
    #: Memory clock of a 2-D grid configuration; ``None`` for core-only.
    mem_freq_mhz: Optional[float] = None

    @property
    def freq_pair(self) -> tuple:
        """The ``(f_core, f_mem)`` configuration, in MHz."""
        return (self.freq_mhz, self.mem_freq_mhz)

    def dominates(self, other: "ParetoPoint", tol: float = 0.0) -> bool:
        """True if this point is at least as good on both axes and strictly
        better on at least one (with optional tolerance ``tol``)."""
        at_least = self.speedup >= other.speedup - tol and self.energy <= other.energy + tol
        strictly = self.speedup > other.speedup + tol or self.energy < other.energy - tol
        return at_least and strictly


def pareto_mask(speedups, energies) -> np.ndarray:
    """Boolean mask of non-dominated points (maximize speedup, minimize energy).

    ``O(n log n)``: sort by speedup descending (energy ascending as a tie
    break) and scan, keeping points whose energy strictly improves on the
    best seen so far; within an exact tie on both axes only the first
    occurrence is kept.
    """
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    if sp.shape != en.shape:
        raise ValueError("speedups and energies must have the same length")
    n = sp.size
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.lexsort((en, -sp))  # speedup desc, then energy asc
    best_energy = np.inf
    prev_sp = np.nan
    prev_en = np.nan
    for idx in order:
        s, e = sp[idx], en[idx]
        if e < best_energy:
            mask[idx] = True
            best_energy = e
            prev_sp, prev_en = s, e
        elif e == best_energy and s == prev_sp and e == prev_en:
            # exact duplicate of the previously kept point: skip
            continue
    return mask


class ParetoFront:
    """An extracted Pareto front: points ordered by increasing speedup."""

    def __init__(self, points: Sequence[ParetoPoint]) -> None:
        self._points: List[ParetoPoint] = sorted(points, key=lambda p: (p.speedup, p.energy))

    @property
    def points(self) -> List[ParetoPoint]:
        """Front points, ascending speedup."""
        return list(self._points)

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Frequencies of the front configurations."""
        return np.array([p.freq_mhz for p in self._points], dtype=float)

    @property
    def mem_freqs_mhz(self) -> np.ndarray:
        """Memory clocks of the front configurations (NaN where untagged)."""
        return np.array([p.mem_freq_mhz for p in self._points], dtype=float)

    @property
    def speedups(self) -> np.ndarray:
        """Speedups of the front configurations (ascending)."""
        return np.array([p.speedup for p in self._points], dtype=float)

    @property
    def energies(self) -> np.ndarray:
        """Normalized energies of the front configurations."""
        return np.array([p.energy for p in self._points], dtype=float)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def contains_freq(self, freq_mhz: float, tol_mhz: float = DEFAULT_FREQ_TOL_MHZ) -> bool:
        """True if a configuration with frequency ``freq_mhz`` is on the front.

        Pass ``tol_mhz=half_bin_tolerance(grid)`` to match against a
        specific sweep grid instead of the conservative default floor.
        """
        if len(self._points) == 0:
            return False
        return bool(np.any(np.abs(self.freqs_mhz - float(freq_mhz)) <= tol_mhz))

    def contains_pair(
        self,
        freq_mhz: float,
        mem_freq_mhz: float,
        tol_mhz: float = DEFAULT_FREQ_TOL_MHZ,
        mem_tol_mhz: Optional[float] = None,
    ) -> bool:
        """True if the ``(core, mem)`` pair appears on the front.

        Core and memory tables have very different bin spacings, so each
        axis takes its own tolerance; ``mem_tol_mhz`` defaults to
        ``tol_mhz``. Untagged (core-only) points match no pair.
        """
        if len(self._points) == 0:
            return False
        if mem_tol_mhz is None:
            mem_tol_mhz = tol_mhz
        core_ok = np.abs(self.freqs_mhz - float(freq_mhz)) <= tol_mhz
        mem_ok = np.abs(self.mem_freqs_mhz - float(mem_freq_mhz)) <= mem_tol_mhz
        return bool(np.any(core_ok & mem_ok))

    def max_speedup_point(self) -> ParetoPoint:
        """The highest-performance front point."""
        if not self._points:
            raise ValueError("empty front")
        return self._points[-1]

    def min_energy_point(self) -> ParetoPoint:
        """The lowest-energy front point."""
        if not self._points:
            raise ValueError("empty front")
        return min(self._points, key=lambda p: p.energy)

    def is_consistent(self) -> bool:
        """Sanity invariant: along ascending speedup, energy must ascend too
        (otherwise some kept point would dominate another)."""
        en = self.energies
        return bool(np.all(np.diff(en) >= -1e-12))


def extract_front(speedups, energies, freqs_mhz, mem_freqs_mhz=None) -> ParetoFront:
    """Extract the Pareto front from parallel arrays of configurations.

    ``mem_freqs_mhz`` tags each configuration with its memory clock for a
    flattened 2-D ``(core, mem)`` grid (build the arrays with e.g.
    ``np.meshgrid`` + ``ravel``); ``None`` leaves the points untagged.
    The objective plane is the same either way.
    """
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    fr = check_finite_array(freqs_mhz, "freqs_mhz").ravel()
    mf = fr
    if mem_freqs_mhz is not None:
        mf = check_finite_array(mem_freqs_mhz, "mem_freqs_mhz").ravel()
    if not (sp.size == en.size == fr.size == mf.size):
        raise ValueError(
            "speedups, energies, freqs_mhz and mem_freqs_mhz must have equal length"
        )
    mask = pareto_mask(sp, en)
    tagged = mem_freqs_mhz is not None
    pts = [
        ParetoPoint(float(s), float(e), float(f), float(m) if tagged else None)
        for s, e, f, m in zip(sp[mask], en[mask], fr[mask], mf[mask])
    ]
    return ParetoFront(pts)
