"""Deterministic workload generation shared by both fleet engines.

Everything stochastic about a fleet simulation is decided *here*, once,
before either engine runs: Poisson job arrivals, job-type draws, and the
GPU failure schedule. The engines themselves are then pure functions of
``(spec, workload)`` — which is what makes the vectorized/reference
bit-identity contract testable (a shared random stream consumed in two
different loop orders could never be) and the whole simulation a pure
function of ``(FleetSpec, seed)``.

Arrivals use ``np.random.default_rng(seed)`` (PCG64, the repo-wide
generator discipline from :mod:`repro.utils.rng`); failures come from
the counter-based :func:`repro.faults.fleet.fleet_failure_schedule`,
keyed by the same ``sha256`` fault-hash core as campaign chaos, so each
``(gpu, tick)`` draw is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.faults.fleet import fleet_failure_schedule
from repro.utils.rng import as_generator

__all__ = ["FleetWorkload", "build_workload"]


@dataclass(frozen=True)
class FleetWorkload:
    """Immutable input data for one simulation run (both engines).

    ``arrivals_by_tick[t]`` lists the job ids arriving at tick ``t`` in
    ascending id order; ``failures`` is the boolean ``(ticks, gpus)``
    schedule or ``None`` when fault injection is off.
    """

    n_jobs: int
    job_type: np.ndarray  # int64, per job
    arrival_tick: np.ndarray  # int64, per job, non-decreasing
    deadline_s: np.ndarray  # float64, per job (absolute sim time)
    type_features: Tuple[Tuple[float, ...], ...]
    arrivals_by_tick: Tuple[np.ndarray, ...]
    failures: Optional[np.ndarray]


def build_workload(spec) -> FleetWorkload:
    """Generate the seeded workload for a :class:`~repro.specs.fleet.FleetSpec`."""
    rng = as_generator(spec.seed)
    horizon = spec.ticks
    if spec.arrival_horizon_ticks is not None:
        horizon = min(horizon, spec.arrival_horizon_ticks)
    counts = rng.poisson(spec.arrival_rate_per_tick, size=horizon)
    n_jobs = int(np.sum(counts))

    n_types = len(spec.job_types)
    weights = np.array([jt.weight for jt in spec.job_types], dtype=float)
    weights = weights / np.sum(weights)
    job_type = rng.choice(n_types, size=n_jobs, p=weights).astype(np.int64)

    arrival_tick = np.repeat(np.arange(horizon, dtype=np.int64), counts)
    type_deadline = np.array([jt.deadline_s for jt in spec.job_types], dtype=float)
    # Absolute deadline = arrival instant + the type's relative deadline;
    # computed once here so both engines index the identical floats.
    deadline_s = arrival_tick * spec.tick_s + type_deadline[job_type]

    by_tick: List[np.ndarray] = []
    start = 0
    for t in range(spec.ticks):
        count = int(counts[t]) if t < horizon else 0
        by_tick.append(np.arange(start, start + count, dtype=np.int64))
        start += count

    failures = None
    # != rather than >: a NaN or negative probability must reach the
    # schedule's range check instead of silently switching faults off.
    if spec.gpu_failure_prob != 0.0:
        failures = fleet_failure_schedule(
            spec.seed, spec.gpus, spec.ticks, spec.gpu_failure_prob
        )
    return FleetWorkload(
        n_jobs=n_jobs,
        job_type=job_type,
        arrival_tick=arrival_tick,
        deadline_s=deadline_s,
        type_features=tuple(tuple(float(v) for v in jt.features) for jt in spec.job_types),
        arrivals_by_tick=tuple(by_tick),
        failures=failures,
    )
