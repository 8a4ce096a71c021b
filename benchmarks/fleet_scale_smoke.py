"""Fleet smoke: the vectorized SoA tick engine vs the per-object
reference loop, with the bitwise divergence gate CI relies on.

Exercises :func:`repro.fleet.simulate_fleet` three ways:

1. **identity** — a small fleet (16 GPUs, faults enabled) simulated by
   both engines; every trajectory array must be **bitwise identical**
   (:func:`repro.fleet.diff_trajectories` empty). The reference engine
   runs under :func:`repro.ml.forest.reference_mode` with one uncached
   scalar ``predict_tradeoff`` per placement, so this also re-checks the
   forest pool's batch/scalar equivalence end to end;
2. **scale** — a 1,024-GPU fleet timed vectorized (median of
   ``VECTORIZED_REPEATS`` runs) vs reference. The
   vectorized engine must be at least ``MIN_SPEEDUP``x (= 10x) faster:
   the SoA tick pipeline plus the single batched advisor call per run
   have to beat per-GPU Python stepping by an order of magnitude;
3. **savings** — the same 1,024-GPU fleet advised vs pinned at the top
   clock (:func:`repro.fleet.compare_to_static`). The advised fleet
   must save energy at **equal SLA attainment** — the paper's claim
   (slower clocks cut energy without missing deadlines) restated at
   datacenter scale.

It also records, without gating, ``build_workload`` seconds for a
65,536-GPU x 120-tick fleet with failures on — the workload-generation
data point for the million-GPU scale target.

Gates (the job fails if any is violated):

- **divergence**: vectorized and reference trajectories bitwise equal;
- the vectorized engine is at least ``MIN_SPEEDUP``x the reference
  loop at ``SCALE_GPUS`` (>= 1,000) simulated GPUs;
- advised saves ``> 0`` J vs the static-clock fleet with SLA delta 0.

Writes ``benchmarks/output/BENCH_fleet.json`` so CI runs leave an
inspectable perf record. Wall time here is harness measurement of the
harness itself, not simulated time, hence the TIM001 ignores.

Usage: ``PYTHONPATH=src python benchmarks/fleet_scale_smoke.py``
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

MIN_SPEEDUP = 10.0
SCALE_GPUS = 1024
VECTORIZED_REPEATS = 5
WORKLOAD_GPUS = 65536
MODEL_SEED = 42


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()  # repro-lint: ignore[TIM001]
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result  # repro-lint: ignore[TIM001]


def _job_types():
    """LiGen-shaped workload classes (features: ligands, fragments, atoms).

    Sized off the quick model's predictions over the 135-1597 MHz grid:
    the large docking batch runs 0.9 s (top clock) to 6.1 s (lowest), so
    generous deadlines leave the advisor real freedom to downclock while
    both policies still meet every deadline.
    """
    from repro.specs.fleet import FleetJobType

    return (
        FleetJobType(
            name="ligen-large",
            features=(10000.0, 20.0, 89.0),
            deadline_s=25.0,
            weight=1.0,
        ),
        FleetJobType(
            name="ligen-medium",
            features=(256.0, 20.0, 89.0),
            deadline_s=8.0,
            weight=2.0,
        ),
        FleetJobType(
            name="ligen-small",
            features=(2.0, 4.0, 31.0),
            deadline_s=5.0,
            weight=1.0,
        ),
    )


def _identity_spec():
    from repro.specs.fleet import FleetSpec

    return FleetSpec(
        name="fleet-identity-smoke",
        gpus=16,
        ticks=60,
        job_types=_job_types(),
        arrival_rate_per_tick=3.0,
        arrival_horizon_ticks=45,
        tick_s=0.5,
        seed=7,
        gpu_failure_prob=0.01,
        repair_ticks=6,
    )


def _scale_spec():
    from repro.specs.fleet import FleetSpec

    return FleetSpec(
        name="fleet-scale-smoke",
        gpus=SCALE_GPUS,
        ticks=120,
        job_types=_job_types(),
        arrival_rate_per_tick=16.0,
        arrival_horizon_ticks=90,
        tick_s=1.0,
        seed=11,
        gpu_failure_prob=0.0005,
        repair_ticks=10,
    )


def run_identity_gate(model):
    """Small-fleet bitwise equality between the two engines."""
    from repro.fleet import diff_trajectories, simulate_fleet

    spec = _identity_spec()
    vec = simulate_fleet(spec, model, mode="vectorized")
    ref = simulate_fleet(spec, model, mode="reference")
    diffs = diff_trajectories(vec, ref)
    assert not diffs, (
        "vectorized fleet trajectories diverged from the per-object "
        f"reference loop: {diffs}"
    )
    summary = vec.summary()
    assert summary["gpu_failures"] > 0, (
        "identity fleet saw no injected failures; the gate is not "
        "exercising the fault path (raise gpu_failure_prob)"
    )
    print(
        f"[identity] {spec.gpus} GPUs x {spec.ticks} ticks, "
        f"{summary['jobs']} jobs, {summary['gpu_failures']} failures, "
        f"{summary['job_restarts']} restarts: trajectories bitwise equal"
    )
    return {
        "gpus": spec.gpus,
        "ticks": spec.ticks,
        "jobs": summary["jobs"],
        "gpu_failures": summary["gpu_failures"],
        "job_restarts": summary["job_restarts"],
        "bitwise_equal": True,
    }


def run_scale_gate(model):
    """1,024-GPU timed comparison: SoA engine vs per-object loop."""
    from repro.fleet import assert_trajectories_equal, simulate_fleet

    spec = _scale_spec()
    # Warm the advisor/model once so neither timing pays first-call
    # setup (tree flattening, pool assembly) for the other.
    simulate_fleet(spec, model, mode="vectorized")
    runs = [
        _timed(simulate_fleet, spec, model, mode="vectorized")
        for _ in range(VECTORIZED_REPEATS)
    ]
    vec_s, vec = statistics.median(t for t, _ in runs), runs[0][1]
    ref_s, ref = _timed(simulate_fleet, spec, model, mode="reference")
    assert_trajectories_equal(vec, ref)
    speedup = ref_s / vec_s
    summary = vec.summary()
    print(
        f"[scale] {spec.gpus} GPUs x {spec.ticks} ticks, "
        f"{summary['jobs']} jobs: vectorized {vec_s:.4f}s "
        f"(median of {VECTORIZED_REPEATS}) vs "
        f"reference {ref_s:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized fleet speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP}x floor at {spec.gpus} GPUs "
        f"(vectorized {vec_s:.3f}s vs reference {ref_s:.3f}s)"
    )
    return spec, {
        "gpus": spec.gpus,
        "ticks": spec.ticks,
        "jobs": summary["jobs"],
        "vectorized_s": vec_s,
        "vectorized_repeats": VECTORIZED_REPEATS,
        "reference_s": ref_s,
        "speedup": speedup,
        "min_speedup_floor": MIN_SPEEDUP,
        "busy_fraction": summary["busy_fraction"],
        "gpu_failures": summary["gpu_failures"],
    }


def run_workload_scale_point(spec):
    """Informational: workload generation at 65,536 GPUs (no gate)."""
    from dataclasses import replace

    from repro.fleet import build_workload

    big = replace(spec, gpus=WORKLOAD_GPUS)
    build_s, workload = _timed(build_workload, big)
    print(
        f"[workload] build_workload at {big.gpus} GPUs x {big.ticks} ticks "
        f"(failures on): {build_s:.3f}s"
    )
    return {
        "gpus": big.gpus,
        "ticks": big.ticks,
        "gpu_failure_prob": big.gpu_failure_prob,
        "scheduled_failures": int(workload.failures.sum()),
        "build_workload_s": build_s,
    }


def run_savings_gate(spec, model):
    """Advised vs static-top-clock at equal SLA on the scale fleet."""
    from repro.fleet import compare_to_static

    outcome = compare_to_static(spec, model)
    advised = outcome["advised"]
    static = outcome["static"]
    print(
        f"[savings] advised {advised['total_energy_j'] / 1e3:.3f} kJ vs "
        f"static@{outcome['static_freq_mhz']:.0f}MHz "
        f"{static['total_energy_j'] / 1e3:.3f} kJ: saves "
        f"{outcome['energy_saved_j'] / 1e3:.3f} kJ "
        f"({outcome['energy_saved_pct']:.1f}%) at SLA delta "
        f"{outcome['sla_delta']:+.4f}"
    )
    assert outcome["sla_delta"] == 0.0, (
        "advised fleet changed SLA attainment vs the static-clock "
        f"baseline (delta {outcome['sla_delta']:+.4f}); the savings "
        "claim requires equal SLA"
    )
    assert outcome["energy_saved_j"] > 0.0, (
        "advised fleet saved no energy vs the static-clock baseline "
        f"({outcome['energy_saved_j']:.1f} J)"
    )
    return {
        "static_freq_mhz": outcome["static_freq_mhz"],
        "advised_energy_j": advised["total_energy_j"],
        "static_energy_j": static["total_energy_j"],
        "energy_saved_j": outcome["energy_saved_j"],
        "energy_saved_pct": outcome["energy_saved_pct"],
        "advised_sla": advised["sla_attainment"],
        "static_sla": static["sla_attainment"],
        "sla_delta": outcome["sla_delta"],
    }


def main() -> int:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    from repro.fleet.engine import _quick_ligen_model

    train_s, model = _timed(_quick_ligen_model, MODEL_SEED)
    print(f"[setup] quick LiGen model trained in {train_s:.2f}s")

    identity = run_identity_gate(model)
    scale_spec, scale = run_scale_gate(model)
    savings = run_savings_gate(scale_spec, model)
    workload = run_workload_scale_point(scale_spec)

    record = {
        "benchmark": "fleet_scale_smoke",
        "model_seed": MODEL_SEED,
        "train_s": train_s,
        "identity": identity,
        "scale": scale,
        "savings": savings,
        "workload_scale": workload,
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUTPUT_DIR / "BENCH_fleet.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
