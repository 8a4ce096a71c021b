"""``fleet``: a loaded, failure-injected datacenter simulation.

Set-up trains the quick LiGen model (``resolve_fleet_model`` on a spec
with no registry reference, at a fixed model seed so every workload
seed advises with the same model). Each timed pass is one
``simulate_fleet(spec, model, mode="vectorized")``: 2,048 GPUs for 160
half-second ticks with GPU failures on, 16 LiGen job types weighted
towards the 10,000-ligand class, and an arrival rate that keeps the
fleet about two-thirds busy with a non-empty EDF queue on most ticks.
The seed draws the spec's arrival and failure seed.
"""

from __future__ import annotations

from typing import Dict, List

from harness import PassResult
from tracing import Hook

GPUS = 2048
TICKS = 100
ARRIVAL_TICKS = 90
TICK_S = 0.5
RATE_PER_TICK = 800.0
DEADLINE_S = 12.0
FAILURE_PROB = 0.0005
REPAIR_TICKS = 10
MODEL_SEED = 42
#: Job-type classes: (ligands, weight) x (fragments, atoms).
LIGANDS = ((10000, 4.0), (8192, 1.0), (6144, 1.0), (5000, 1.0))
SHAPES = ((20, 89), (16, 71), (20, 63), (16, 89))
#: The identity oracle's fleet: same job types, seed and failure rate,
#: the same load per GPU, small enough for the per-object reference loop.
ORACLE_GPUS = 16
ORACLE_TICKS = 60


def _rows(counts, args, kwargs, result) -> None:
    counts["fleet.advisor.rows_predicted"] += len(args[1])


class Fleet:
    name = "fleet"
    work_unit = "GPU-ticks"
    PER_LAYER = {
        "fleet.workload.build_s": ("s", "lower"),
        "faults.fleet.schedule_s": ("s", "lower"),
        "fleet.advisor.profiles_s": ("s", "lower"),
        "fleet.advisor.calls": ("count", "lower"),
        "fleet.advisor.rows_predicted": ("count", "lower"),
        "modeling.domain.predict_batch_s": ("s", "lower"),
        "modeling.domain.predict_batch_calls": ("count", "lower"),
        "fleet.policy.select_s": ("s", "lower"),
        "fleet.policy.calls": ("count", "lower"),
        "fleet.engine.ticks_self_s": ("s", "lower"),
        "fleet.energy_mj": ("MJ", "lower"),
        "fleet.sla_attainment": ("ratio", "higher"),
        "fleet.jobs": ("count", "higher"),
        "fleet.gpu_failures": ("count", "lower"),
        "fleet.job_restarts": ("count", "lower"),
        "fleet.busy_fraction": ("ratio", "higher"),
        "fleet.max_queued": ("count", "lower"),
    }

    def __init__(self, seed: int, workdir) -> None:
        import numpy as np

        from repro.specs.fleet import FleetJobType, FleetSpec

        rng = np.random.default_rng(seed)
        job_types = tuple(
            FleetJobType(
                name=f"ligen-{lig}-f{frag}-a{atoms}",
                features=(float(lig), float(frag), float(atoms)),
                deadline_s=DEADLINE_S,
                weight=weight,
            )
            for lig, weight in LIGANDS
            for frag, atoms in SHAPES
        )
        self.spec = FleetSpec(
            name="perfbench-fleet",
            gpus=GPUS,
            ticks=TICKS,
            job_types=job_types,
            arrival_rate_per_tick=RATE_PER_TICK,
            arrival_horizon_ticks=ARRIVAL_TICKS,
            tick_s=TICK_S,
            seed=int(rng.integers(0, 2**31)),
            gpu_failure_prob=FAILURE_PROB,
            repair_ticks=REPAIR_TICKS,
        )

    def setup(self) -> None:
        from dataclasses import replace

        from repro.fleet import resolve_fleet_model

        self.model, _ = resolve_fleet_model(replace(self.spec, seed=MODEL_SEED))

    def prepare(self):
        return self.spec

    def run(self, spec) -> PassResult:
        from repro.fleet import engine

        result = engine.simulate_fleet(spec, self.model, mode="vectorized")
        s = result.summary()
        return PassResult(
            work=spec.gpus * spec.ticks,
            attempted=1,
            sim={
                "energy_mj": s["total_energy_j"] / 1e6,
                "sla_attainment": s["sla_attainment"],
                "busy_fraction": s["busy_fraction"],
            },
            counts={
                "jobs": s["jobs"],
                "gpu_failures": s["gpu_failures"],
                "job_restarts": s["job_restarts"],
                "max_queued": s["peak_queue"],
            },
        )

    def oracle(self, results: List[PassResult]):
        from dataclasses import replace

        from repro.fleet import diff_trajectories, simulate_fleet

        small = replace(
            self.spec,
            gpus=ORACLE_GPUS,
            ticks=ORACLE_TICKS,
            arrival_horizon_ticks=ORACLE_TICKS * ARRIVAL_TICKS // TICKS,
            arrival_rate_per_tick=RATE_PER_TICK * ORACLE_GPUS / GPUS,
        )
        vectorized = simulate_fleet(small, self.model, mode="vectorized")
        reference = simulate_fleet(small, self.model, mode="reference")
        yield "small fleet: vectorized == reference trajectories bitwise", (
            diff_trajectories(vectorized, reference) == []
        )
        first = results[0]
        yield "fleet is loaded: busy >= 0.5 and the EDF queue was used", (
            first.sim["busy_fraction"] >= 0.5 and first.counts["max_queued"] > 0
        )

    def figures(self, results: List[PassResult], walls) -> Dict:
        import statistics

        r = results[0]
        return {
            "fleet.gpu_ticks_per_s": (
                statistics.median(p.work / w for p, w in zip(results, walls)), "1/s"),
            "fleet.energy_mj": (r.sim["energy_mj"], "MJ"),
            "fleet.sla_attainment": (r.sim["sla_attainment"], "ratio"),
        }

    def hooks(self):
        from repro.fleet import engine, workload
        from repro.fleet.advisor import FleetAdvisor
        from repro.modeling.domain import DomainSpecificModel

        return [
            Hook(engine, "simulate_fleet", "fleet.engine.ticks_self"),
            Hook(engine, "build_workload", "fleet.workload.build"),
            Hook(workload, "fleet_failure_schedule", "faults.fleet.schedule"),
            Hook(FleetAdvisor, "profiles", "fleet.advisor.profiles"),
            Hook(DomainSpecificModel, "predict_tradeoff_batch",
                 "modeling.domain.predict_batch", _rows),
            Hook(engine, "select_min_energy_deadline_batch", "fleet.policy.select"),
        ]

    def layer_counts(self, tracer, result: PassResult) -> Dict:
        calls, c = tracer.calls, result.counts
        return {
            "fleet.advisor.calls": (calls["fleet.advisor.profiles"], "count"),
            "fleet.advisor.rows_predicted": (tracer.counts["fleet.advisor.rows_predicted"], "count"),
            "modeling.domain.predict_batch_calls": (calls["modeling.domain.predict_batch"], "count"),
            "fleet.policy.calls": (calls["fleet.policy.select"], "count"),
            "fleet.busy_fraction": (result.sim["busy_fraction"], "ratio"),
            "fleet.jobs": (c["jobs"], "count"),
            "fleet.gpu_failures": (c["gpu_failures"], "count"),
            "fleet.job_restarts": (c["job_restarts"], "count"),
            "fleet.max_queued": (c["max_queued"], "count"),
        }
