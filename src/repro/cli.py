"""Command-line interface.

Twelve workflows, mirroring how a user adopts the library:

- ``repro characterize`` — DVFS-sweep an application on a simulated
  device, print the speedup/energy table, optionally save the sweep;
- ``repro campaign`` — run a full characterization campaign through the
  parallel, cached execution engine (``--jobs``, ``--cache-dir``; see
  ``docs/campaign-engine.md``), optionally under a deterministic
  fault-injection plan (``--inject``, ``--max-retries``; see
  ``docs/fault-injection.md``);
- ``repro run`` — validate a declarative scenario/campaign spec file
  (the ``SPEC0xx`` static pass) and execute it end to end: campaign,
  optional fault plan, optional serving objective (see
  ``docs/scenario-specs.md``);
- ``repro train`` — build a characterization campaign and train a
  domain-specific model, saving it as ``.npz``;
- ``repro predict`` — load a model and predict the trade-off profile
  (plus the Pareto-optimal frequencies) for an input tuple;
- ``repro tune`` — load a model and pick a frequency under a tuning
  metric (minimum energy within a slowdown budget, EDP, ED2P, or
  SYnergy's energy target);
- ``repro registry`` — manage the versioned, digest-validated model
  registry (``add``, ``list``, ``verify``; see ``docs/serving.md``);
- ``repro advise`` — answer one frequency-advice request from a
  registered model under an objective (trade-off, deadline, power cap);
- ``repro serve`` — drive the online advisor with a synthetic request
  load across worker threads and print the service stats report;
- ``repro fleet`` — simulate a GPU fleet under deadline-aware DVFS
  through the vectorized SoA tick engine, optionally against the
  static-clock baseline or the naive reference engine (see
  ``docs/fleet.md``);
- ``repro lifecycle`` — the model lifecycle around serving: inspect the
  promotion-ledger state (``status``), train + register candidate
  versions (``retrain``), and move the active pointer (``promote``,
  ``rollback``); the full closed drift→retrain→canary loop runs via
  ``repro run`` on a ``repro.lifecycle`` spec (see ``docs/lifecycle.md``);
- ``repro lint`` — statically verify the repo's invariants: AST lint
  rules over the source tree, ``SPEC0xx`` schema checks over JSON spec
  artifacts, plus the built-in hardware-spec / kernel-IR self-check
  (see ``docs/static-analysis.md``).

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro import __version__

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _make_app(args):
    if args.app == "ligen":
        from repro.ligen.app import LigenApplication

        return LigenApplication(
            n_ligands=args.ligands, n_atoms=args.atoms, n_fragments=args.fragments
        )
    if args.app == "mhd":
        from repro.mhd.app import MhdApplication

        grid = args.grid or "24x48x32"
        nr, ntheta, nz = (int(v) for v in grid.split("x"))
        return MhdApplication.from_size(nr, ntheta, nz, n_steps=args.steps)
    from repro.cronos.app import CronosApplication

    gx, gy, gz = (int(v) for v in (args.grid or "160x64x64").split("x"))
    return CronosApplication.from_size(gx, gy, gz, n_steps=args.steps)


#: Devices the CLI can name; v100/mi100 come from the paper's default
#: platform, the rest from ``repro.hw.device.create_device`` (matching
#: the spec executor's device resolution in ``repro.specs.run``).
DEVICE_CHOICES = ("v100", "mi100", "max1100", "a100", "h100", "mi250")


def _device(args):
    from repro.synergy import Platform

    name = args.device.strip().lower()
    if name in Platform.DEFAULT_DEVICES:
        return Platform.default_device(name, seed=args.seed)
    from repro.hw.device import create_device
    from repro.synergy.api import SynergyDevice

    return SynergyDevice(create_device(name), seed=args.seed)


def _mem_freq_list(args):
    if not getattr(args, "mem_freqs", None):
        return None
    return tuple(float(v) for v in args.mem_freqs.split(","))


def _freq_list(device, count: Optional[int]):
    # Shared with the campaign builders: snap-and-compare baseline
    # membership, never float identity.
    from repro.experiments.datasets import default_training_freqs

    return default_training_freqs(device, count)


def _add_app_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--app", choices=("ligen", "cronos", "mhd"), required=True)
    p.add_argument("--ligands", type=int, default=10000, help="LiGen: ligand count")
    p.add_argument("--atoms", type=int, default=89, help="LiGen: atoms per ligand")
    p.add_argument("--fragments", type=int, default=20, help="LiGen: fragments per ligand")
    p.add_argument(
        "--grid", default=None,
        help="Cronos: grid as NXxNYxNZ (default 160x64x64); "
        "MHD: grid as NRxNTHETAxNZ (default 24x48x32)",
    )
    p.add_argument("--steps", type=int, default=25, help="Cronos/MHD: time steps")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_characterize(args) -> int:
    from repro.experiments.figures import characterization_series
    from repro.experiments.report import render_characterization

    device = _device(args)
    app = _make_app(args)
    freqs = _freq_list(device, args.freqs)
    series = characterization_series(app, device, freqs_mhz=freqs, repetitions=args.reps)
    print(render_characterization(series, f"characterization", max_rows=args.max_rows))
    if args.output:
        from repro.io import save_characterization

        save_characterization(series.result, args.output)
        print(f"\nsaved sweep to {args.output}")
    return 0


def cmd_train(args) -> int:
    from repro.io import save_dataset, save_domain_model
    from repro.ml import RandomForestRegressor
    from repro.modeling import DomainSpecificModel

    device = _device(args)
    baseline_mhz = 1282.0  # the paper's V100 default application clock
    if args.app == "ligen":
        from repro.experiments.datasets import build_ligen_campaign
        from repro.ligen.app import LIGEN_FEATURE_NAMES as names

        campaign = build_ligen_campaign(
            device, freq_count=args.freqs, repetitions=args.reps
        )
    elif args.app == "mhd":
        from repro.experiments.datasets import build_mhd_campaign

        campaign = build_mhd_campaign(
            device,
            freq_count=args.freqs,
            repetitions=args.reps,
            mem_freqs_mhz=_mem_freq_list(args),
        )
        # 2-D sweeps append the memory-clock feature column; the dataset
        # carries the authoritative name list either way, and the
        # campaign its true baseline clock (not the V100 default).
        names = tuple(campaign.dataset.feature_names)
        result = next(iter(campaign.characterizations.values()))
        if result.baseline_freq_mhz is not None:
            baseline_mhz = float(result.baseline_freq_mhz)
    else:
        from repro.experiments.datasets import build_cronos_campaign
        from repro.cronos.app import CRONOS_FEATURE_NAMES as names

        campaign = build_cronos_campaign(
            device, freq_count=args.freqs, repetitions=args.reps
        )

    model = DomainSpecificModel(
        names,
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=args.trees, random_state=args.seed
        ),
        baseline_freq_mhz=baseline_mhz,
    ).fit(campaign.dataset)
    save_domain_model(model, args.output)
    print(
        f"trained on {len(campaign.dataset)} samples "
        f"({len(campaign.characterizations)} inputs x {len(campaign.freqs_mhz)} freqs); "
        f"model saved to {args.output}"
    )
    if args.dataset_output:
        save_dataset(campaign.dataset, args.dataset_output)
        print(f"dataset saved to {args.dataset_output}")
    return 0


def _load_model_and_profile(args):
    from repro.io import load_domain_model

    model = load_domain_model(args.model)
    features = [float(v) for v in args.features.split(",")]
    freqs = np.linspace(args.freq_min, args.freq_max, args.freq_points)
    prediction = model.predict_tradeoff(features, freqs)
    return model, features, prediction


def cmd_predict(args) -> int:
    from repro.pareto.front import half_bin_tolerance
    from repro.utils.tables import AsciiTable

    model, features, prediction = _load_model_and_profile(args)
    table = AsciiTable(
        ["freq (MHz)", "speedup", "norm. energy", "Pareto"],
        title=f"prediction for features {features} "
        f"(baseline {model.baseline_freq_mhz:.0f} MHz)",
    )
    front = prediction.pareto_front()
    tol = half_bin_tolerance(prediction.freqs_mhz)
    for f, sp, ne in zip(
        prediction.freqs_mhz, prediction.speedups, prediction.normalized_energies
    ):
        table.add_row([round(float(f)), sp, ne, "*" if front.contains_freq(float(f), tol_mhz=tol) else ""])
    print(table.render())
    print(f"\nPareto frequencies: {[round(float(f)) for f in prediction.pareto_frequencies()]}")
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments import evaluate_fig13, render_accuracy_rows
    from repro.kernels.microbench import generate_microbenchmarks
    from repro.ml import RandomForestRegressor
    from repro.modeling import GeneralPurposeModel, cronos_static_spec, ligen_static_spec

    device = _device(args)

    def forest():
        return RandomForestRegressor(n_estimators=args.trees, random_state=args.seed)

    suite = generate_microbenchmarks()
    if args.quick:
        suite = suite[::4]
    freqs = _freq_list(device, args.freqs)
    print(
        f"training the general-purpose model on {len(suite)} micro-benchmarks "
        f"x {len(freqs)} frequencies ..."
    )
    gp = GeneralPurposeModel(regressor_factory=forest, repetitions=args.reps)
    gp.train(device, freqs_mhz=freqs, microbenchmarks=suite)

    if args.experiment == "fig13-cronos":
        from repro.cronos.app import CRONOS_FEATURE_NAMES
        from repro.experiments import build_cronos_campaign
        from repro.experiments.configs import FIG13_CRONOS_VALIDATION, cronos_label

        campaign = build_cronos_campaign(
            device, freq_count=args.freqs, repetitions=args.reps,
            n_steps=10 if args.quick else 25,
        )
        rows = evaluate_fig13(
            campaign, gp, cronos_static_spec(), CRONOS_FEATURE_NAMES,
            validation_features=[tuple(map(float, g)) for g in FIG13_CRONOS_VALIDATION],
            labels=[cronos_label(*g) for g in FIG13_CRONOS_VALIDATION],
            regressor_factory=forest,
        )
        print(render_accuracy_rows(rows, "Fig 13a/b: Cronos model accuracy"))
    else:
        from repro.experiments import build_ligen_campaign
        from repro.experiments.configs import FIG13_LIGEN_VALIDATION, ligen_label
        from repro.ligen.app import LIGEN_FEATURE_NAMES

        kwargs = {}
        if args.quick:
            kwargs = dict(
                ligand_counts=(2, 256, 4096, 10000),
                atom_counts=(31, 89),
                fragment_counts=(4, 20),
            )
        campaign = build_ligen_campaign(
            device, freq_count=args.freqs, repetitions=args.reps, **kwargs
        )
        validation = [
            (float(l), float(f), float(a))
            for (a, f, l) in FIG13_LIGEN_VALIDATION
            if not args.quick or (a in (31, 89) and f in (4, 20) and l in (256, 10000))
        ]
        labels = [
            ligen_label(int(a), int(f), int(l)) for (l, f, a) in validation
        ]
        rows = evaluate_fig13(
            campaign, gp, ligen_static_spec(), LIGEN_FEATURE_NAMES,
            validation_features=validation, labels=labels,
            regressor_factory=forest,
        )
        print(render_accuracy_rows(rows, "Fig 13c/d: LiGen model accuracy"))
    return 0


def _campaign_progress(jobs: int):
    def progress(done: int, total: int, label: str, from_cache: bool) -> None:
        origin = "cache" if from_cache else f"jobs={jobs}"
        print(f"\r[{done}/{total}] {label} ({origin})", end="", flush=True)
        if done == total:
            print(flush=True)

    return progress


def _print_quarantine_warning(engine) -> None:
    stats = engine.stats
    if stats.quarantined:
        print(
            f"warning: {stats.quarantined} sweep point(s) quarantined after "
            f"{engine.retry.max_attempts} attempts each "
            f"({', '.join(stats.quarantined_points)}); campaign is "
            f"{stats.completeness():.1%} complete",
            file=sys.stderr,
        )


def cmd_campaign(args) -> int:
    import time

    from repro.experiments.report import render_campaign_summary
    from repro.specs import campaign_spec_from_cli
    from repro.specs.run import run_campaign

    fault_plan = None
    if args.inject:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.inject)
        print(f"fault injection: {fault_plan.describe()}")
    # The flag soup becomes a declarative CampaignSpec and runs through
    # the same executor as `repro run` — one code path, two spellings.
    spec = campaign_spec_from_cli(
        args.app,
        device=args.device,
        quick=args.quick,
        freq_count=args.freqs,
        repetitions=args.reps,
        seed=args.seed,
        jobs=args.jobs,
        method="replay" if args.replay else "serial",
        cache_dir=None if args.no_cache else args.cache_dir,
        max_retries=args.max_retries,
        mem_freqs_mhz=_mem_freq_list(args),
    )

    # Harness wall-clock for the run summary only — simulated measurements
    # always derive time from the timing model, never from the host clock.
    t0 = time.perf_counter()  # repro-lint: ignore[TIM001]
    campaign, engine = run_campaign(
        spec, fault_plan=fault_plan, progress=_campaign_progress(spec.engine.jobs)
    )
    elapsed = time.perf_counter() - t0  # repro-lint: ignore[TIM001]

    print(render_campaign_summary(campaign, elapsed_s=elapsed))
    _print_quarantine_warning(engine)
    if args.dataset_output:
        from repro.io import save_dataset

        save_dataset(campaign.dataset, args.dataset_output)
        print(f"dataset saved to {args.dataset_output}")
    return 0


def cmd_run(args) -> int:
    import pathlib
    import time

    from repro.analysis import has_errors, render_text
    from repro.specs import check_json_file

    path = pathlib.Path(args.scenario)
    # Static pass first: a spec that does not lint clean never runs.
    diagnostics = check_json_file(path, explicit=True)
    if diagnostics:
        print(render_text(diagnostics), file=sys.stderr)
    if has_errors(diagnostics):
        return 1
    if args.check:
        print(f"{path}: spec is valid")
        return 0

    import json

    from repro.experiments.report import render_campaign_summary
    from repro.specs import CampaignSpec, ScenarioSpec
    from repro.specs.run import run_scenario

    record = json.loads(path.read_text(encoding="utf-8"))
    if record.get("format") == "repro.lifecycle":
        # Lifecycle specs run the closed train→serve→observe→retrain
        # loop — same lint-then-run discipline, different runtime.
        from repro.lifecycle import run_lifecycle
        from repro.specs import LifecycleSpec

        spec = LifecycleSpec.load(path)
        print(spec.describe())
        result = run_lifecycle(spec, closed_loop=True, progress=print)
        print(_render_lifecycle_result(result))
        return 0
    if record.get("format") == "repro.fleet":
        # Fleet specs run through the SoA tick engine, not the campaign
        # executor — same lint-then-run discipline, different runtime.
        from repro.fleet import resolve_fleet_model, simulate_fleet
        from repro.specs import FleetSpec

        spec = FleetSpec.load(path)
        print(spec.describe())
        model, _manifest = resolve_fleet_model(spec)
        result = simulate_fleet(spec, model)
        print(_render_fleet_summary(result.summary(), "fleet summary (vectorized)"))
        return 0
    if record.get("format") == "repro.campaign":
        # A bare campaign spec runs as a scenario with no extras.
        scenario = ScenarioSpec(
            name=path.stem,
            campaign=CampaignSpec.from_record(
                record, file=str(path), base_dir=str(path.parent)
            ),
            base_dir=str(path.parent),
        )
    else:
        scenario = ScenarioSpec.load(path)
    if args.dataset_output:
        # Resolve the override against the caller's cwd (like `repro
        # campaign --dataset-output`), not the scenario's directory.
        scenario = _replace_dataclass(
            scenario, dataset_output=str(pathlib.Path(args.dataset_output).absolute())
        )
    print(scenario.describe())

    t0 = time.perf_counter()  # repro-lint: ignore[TIM001]
    outcome = run_scenario(
        scenario, progress=_campaign_progress(scenario.campaign.engine.jobs)
    )
    elapsed = time.perf_counter() - t0  # repro-lint: ignore[TIM001]

    print(render_campaign_summary(outcome.campaign, elapsed_s=elapsed))
    _print_quarantine_warning(outcome.engine)
    if scenario.dataset_output is not None:
        from repro.specs.scenario import resolve_ref

        print(f"dataset saved to {resolve_ref(scenario.dataset_output, scenario.base_dir)}")
    for row in outcome.advice:
        if row.error is not None:
            print(f"{row.label} {row.features}: objective infeasible — {row.error}")
        else:
            advice = row.advice
            clock = f"{advice.freq_mhz:.0f} MHz"
            if advice.mem_freq_mhz is not None:
                clock += f" core / {advice.mem_freq_mhz:.0f} MHz mem"
            print(
                f"{row.label} {row.features}: run at {clock} "
                f"(predicted speedup {advice.predicted_speedup:.3f}, "
                f"normalized energy {advice.predicted_normalized_energy:.3f})"
            )
    return 0


def _replace_dataclass(obj, **changes):
    from dataclasses import replace

    return replace(obj, **changes)


def cmd_tune(args) -> int:
    from repro.synergy.tuning import TuningMetric, select_frequency

    _, features, prediction = _load_model_and_profile(args)
    metric = TuningMetric(args.metric)
    decision = select_frequency(
        prediction.freqs_mhz,
        prediction.speedups,
        prediction.normalized_energies,
        metric=metric,
        max_speedup_loss=args.max_slowdown,
        energy_target=args.energy_target,
    )
    print(
        f"metric={metric.value}: pin the clock at {decision.freq_mhz:.0f} MHz "
        f"(predicted speedup {decision.predicted_speedup:.3f}, "
        f"normalized energy {decision.predicted_normalized_energy:.3f})"
    )
    return 0


def _serving_freqs(args) -> np.ndarray:
    return np.linspace(args.freq_min, args.freq_max, args.freq_points)


def _objective_from_args(args):
    from repro.serving import Objective

    return Objective.from_kind(
        args.objective,
        deadline_s=getattr(args, "deadline_s", None),
        power_w=getattr(args, "power_w", None),
    )


def cmd_registry(args) -> int:
    import json

    from repro.serving import ModelRegistry

    registry = ModelRegistry(args.root)
    if args.registry_command == "add":
        device_signature = None
        if args.device:
            device_signature = _device_signature(args.device)
        manifest = registry.register(
            args.model,
            args.name,
            app=args.app,
            device_signature=device_signature,
            train_fingerprint=args.train_fingerprint,
        )
        print(
            f"registered {manifest.ref} ({manifest.app}, "
            f"{manifest.artifact_bytes} bytes, sha256 {manifest.artifact_sha256[:12]}...)"
        )
        return 0
    if args.registry_command == "list":
        manifests = registry.list()
        if args.format == "json":
            print(json.dumps([m.as_dict() for m in manifests], indent=2))
            return 0
        if not manifests:
            print(f"registry {registry.root} is empty")
            return 0
        for m in manifests:
            extras = []
            if m.device_signature_digest:
                extras.append(f"device {m.device_signature_digest[:12]}")
            if m.train_fingerprint:
                extras.append(f"train {m.train_fingerprint[:12]}")
            suffix = f" [{', '.join(extras)}]" if extras else ""
            print(
                f"{m.ref}  app={m.app}  features={','.join(m.feature_names)}  "
                f"baseline={m.baseline_freq_mhz:.0f}MHz  "
                f"sha256={m.artifact_sha256[:12]}{suffix}"
            )
        return 0
    # verify
    reports = registry.verify(name=args.name, version=args.version)
    if not reports:
        print(f"registry {registry.root} is empty — nothing to verify")
        return 0
    failures = 0
    for report in reports:
        if report.ok:
            print(f"{report.ref}: ok")
        else:
            failures += 1
            print(f"{report.ref}: FAILED — {report.error}")
    if failures:
        print(f"{failures}/{len(reports)} version(s) failed verification", file=sys.stderr)
        return 1
    return 0


def _device_signature(device_name: str):
    from repro.hw.device import create_device

    return create_device(device_name).spec.signature()


def cmd_advise(args) -> int:
    import json

    from repro.serving import AdvisorService, ModelRegistry

    registry = ModelRegistry(args.registry)
    service = AdvisorService.from_registry(
        registry, args.name, _serving_freqs(args), version=args.version
    )
    objective = _objective_from_args(args)
    features = [float(v) for v in args.features.split(",")]
    mem_freqs = _mem_freq_list(args)
    if mem_freqs is not None:
        advice = service.advise_grid(features, mem_freqs, objective)
    else:
        advice = service.advise(features, objective)
    manifest = service.manifest
    if args.format == "json":
        print(
            json.dumps(
                {
                    "model": manifest.as_dict(),
                    "objective": objective.describe(),
                    "features": features,
                    "advice": advice.as_dict(),
                },
                indent=2,
            )
        )
        return 0
    print(f"model: {manifest.ref} ({manifest.app}), objective: {objective.describe()}")
    clock = f"{advice.freq_mhz:.0f} MHz"
    if advice.mem_freq_mhz is not None:
        clock += f" core / {advice.mem_freq_mhz:.0f} MHz mem"
    print(
        f"advice: run at {clock} "
        f"(predicted speedup {advice.predicted_speedup:.3f}, "
        f"normalized energy {advice.predicted_normalized_energy:.3f}, "
        f"{'on' if advice.on_pareto_front else 'off'} the Pareto front)"
    )
    return 0


def _render_fleet_summary(summary, title: str) -> str:
    lines = [
        title,
        f"  jobs               : {summary['jobs']} "
        f"({summary['jobs_completed']} completed)",
        f"  SLA attainment     : {summary['sla_attainment']:.1%} "
        f"({summary['sla_met']}/{summary['jobs']} met deadline)",
        f"  fleet energy       : {summary['total_energy_j'] / 1e3:.3f} kJ "
        f"(jobs {summary['job_energy_j'] / 1e3:.3f} kJ)",
        f"  busy fraction      : {summary['busy_fraction']:.1%}",
        f"  failures/restarts  : {summary['gpu_failures']} / {summary['job_restarts']}",
        f"  max temp proxy     : {summary['max_temp_c']:.1f} C, "
        f"peak queue {summary['peak_queue']}",
    ]
    return "\n".join(lines)


def cmd_fleet(args) -> int:
    import json
    import pathlib
    from dataclasses import replace

    from repro.analysis import has_errors, render_text
    from repro.fleet import compare_to_static, resolve_fleet_model, simulate_fleet
    from repro.specs import FleetSpec, check_json_file

    path = pathlib.Path(args.spec)
    # Static pass first, like `repro run`: an unclean spec never runs.
    diagnostics = check_json_file(path, explicit=True)
    if diagnostics:
        print(render_text(diagnostics), file=sys.stderr)
    if has_errors(diagnostics):
        return 1
    spec = FleetSpec.load(path)
    overrides = {}
    if args.gpus is not None:
        overrides["gpus"] = args.gpus
    if args.ticks is not None:
        overrides["ticks"] = args.ticks
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.static_freq is not None:
        overrides["static_freq_mhz"] = args.static_freq
    if overrides:
        spec = replace(spec, **overrides)
    if args.format == "text":
        print(spec.describe())
    model, _manifest = resolve_fleet_model(spec)
    result = simulate_fleet(spec, model, mode=args.mode)
    summary = result.summary()
    comparison = None
    if args.baseline:
        comparison = compare_to_static(spec, model, advised_result=result)
    if args.format == "json":
        payload = {
            "spec": spec.as_record(),
            "fingerprint": spec.fingerprint(),
            "mode": args.mode,
            "summary": summary,
        }
        if comparison is not None:
            payload["baseline"] = comparison
        print(json.dumps(payload, indent=2))
        return 0
    print(_render_fleet_summary(summary, f"fleet summary ({args.mode})"))
    if comparison is not None:
        print(
            _render_fleet_summary(
                comparison["static"],
                f"static-clock baseline ({comparison['static_freq_mhz']:.0f} MHz)",
            )
        )
        print(
            f"advice saves {comparison['energy_saved_j'] / 1e3:.3f} kJ "
            f"({comparison['energy_saved_pct']:.1f}%) at SLA delta "
            f"{comparison['sla_delta']:+.4f}"
        )
    return 0


def cmd_serve(args) -> int:
    from repro.serving import (
        AdvisorService,
        ModelRegistry,
        Objective,
        run_load,
        run_load_multiprocess,
        synthetic_requests,
    )

    registry = ModelRegistry(args.registry)
    freqs = _serving_freqs(args)
    service = AdvisorService.from_registry(
        registry,
        args.name,
        freqs,
        version=args.version,
        max_batch=args.batch_size,
        cache_size=args.cache_size,
        cache_shards=args.cache_shards,
    )
    manifest = service.manifest
    if args.features:
        base = [float(v) for v in args.features.split(",")]
    else:
        base = [64.0] * len(manifest.feature_names)
    objectives = [Objective.tradeoff()]
    requests = synthetic_requests(
        base,
        args.requests,
        pool_size=args.pool,
        objectives=objectives,
        seed=args.seed,
    )
    if args.processes > 1:
        print(
            f"serving {len(requests)} requests to {manifest.ref} "
            f"with {args.processes} process(es) x {args.workers} worker(s) ..."
        )
        run_load_multiprocess(
            args.registry,
            args.name,
            requests,
            freqs,
            processes=args.processes,
            workers_per_process=args.workers,
            version=args.version,
            max_batch=args.batch_size,
            cache_size=args.cache_size,
            cache_shards=args.cache_shards,
        )
        print(
            f"served {len(requests)} requests across {args.processes} processes "
            "(per-process stats stay in the workers)"
        )
        return 0
    print(
        f"serving {len(requests)} requests to {manifest.ref} "
        f"with {args.workers} worker(s) ..."
    )
    run_load(service, requests, workers=args.workers)
    print(service.report())
    return 0


def _render_lifecycle_result(result) -> str:
    """Human-readable lifecycle run summary (epoch table + decisions)."""
    lines = ["lifecycle result"]
    lines.append(
        f"  {'epoch':>5} {'scale':>6} {'mape %':>8} {'served':>7} "
        f"{'event':>10} promoted"
    )
    for row in result.epochs:
        mape = row["rolling_mape"]
        mape_s = f"{mape:8.2f}" if mape == mape else "       -"
        lines.append(
            f"  {row['epoch']:>5} {row['work_scale']:>6g} {mape_s} "
            f"{'v' + str(row['served_version']):>7} "
            f"{row['event'] or '-':>10} {'yes' if row['promoted'] else '-'}"
        )
    for d in result.decisions:
        verdict = "promoted" if d.promoted else "rejected"
        lines.append(
            f"  canary: v{d.candidate_version} vs v{d.incumbent_version} -> "
            f"{verdict} ({d.reason})"
        )
    state = result.ledger_state
    quarantined = (
        ", ".join(f"v{v}" for v in state["quarantined"]) or "none"
    )
    lines.append(
        f"  ledger: active v{state['active_version']}, "
        f"{state['entries']} entr{'y' if state['entries'] == 1 else 'ies'}, "
        f"quarantined {quarantined}"
    )
    return "\n".join(lines)


def cmd_lifecycle(args) -> int:
    import json

    from repro.lifecycle import CanaryController
    from repro.serving import ModelRegistry

    if args.lifecycle_command == "retrain":
        from repro.lifecycle import build_retrainer, build_workload
        from repro.specs import LifecycleSpec

        spec = LifecycleSpec.load(args.spec)
        print(spec.describe())
        from repro.specs.scenario import resolve_ref

        registry = ModelRegistry(resolve_ref(spec.registry, spec.base_dir))
        retrainer = build_retrainer(spec, registry)
        controller = CanaryController(registry, spec.model_name)
        generation = len(registry._versions(spec.model_name))
        apps = build_workload(spec)
        manifest = retrainer.retrain(apps, generation=generation)
        controller.record_register(
            manifest, retrainer.train_fingerprint(generation)
        )
        print(
            f"registered {manifest.ref} "
            f"(train fingerprint {manifest.train_fingerprint[:16]}...)"
        )
        if generation > 0:
            print(
                "candidate is NOT serving: promote it through the canary "
                "gate (lifecycle loop) or `repro lifecycle promote`"
            )
        return 0

    registry = ModelRegistry(args.root)
    controller = CanaryController(registry, args.name)
    if args.lifecycle_command == "status":
        state = controller.ledger.replay()
        versions = [m for m in registry.list() if m.name == args.name]
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "name": args.name,
                        "versions": [m.as_dict() for m in versions],
                        "active_version": controller.active_version(),
                        "ledger": state.as_record(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        active = controller.active_version()
        print(f"lifecycle status for {args.name!r} (registry {registry.root})")
        if not versions:
            print("  no versions registered")
            return 0
        quarantined = set(state.quarantined)
        for m in versions:
            marks = []
            if m.version == active:
                marks.append("ACTIVE")
            if m.version in quarantined:
                marks.append("QUARANTINED")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            print(f"  v{m.version}  sha256 {m.artifact_sha256[:16]}...{suffix}")
        print(
            f"  ledger: {state.entries} entr"
            f"{'y' if state.entries == 1 else 'ies'}, previous "
            f"{'v' + str(state.previous_version) if state.previous_version else 'none'}"
        )
        return 0
    if args.lifecycle_command == "promote":
        version = controller.promote_to(args.to_version)
        print(f"promoted {args.name} to v{version} (manual, no shadow evidence)")
        return 0
    # rollback
    version = controller.rollback(args.to_version)
    print(f"rolled {args.name} back to v{version}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import has_errors, render_json, render_text, run_lint

    if args.paths:
        paths = args.paths
    else:
        # default: the installed repro package tree itself
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    select = args.select.split(",") if args.select else None
    diagnostics = run_lint(
        paths, select=select, with_self_check=not args.no_self_check
    )
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if has_errors(diagnostics) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Domain-specific GPU energy modeling (SC-W 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="DVFS-sweep an application")
    _add_app_options(p)
    p.add_argument("--device", choices=DEVICE_CHOICES, default="v100")
    p.add_argument("--freqs", type=int, default=16, help="frequency bins to sweep (default 16; omit for all with 0)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-rows", type=int, default=40)
    p.add_argument("--output", help="save the sweep as JSON")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("train", help="build a campaign and train a domain model")
    p.add_argument("--app", choices=("ligen", "cronos", "mhd"), required=True)
    p.add_argument("--device", choices=DEVICE_CHOICES, default="v100")
    p.add_argument("--freqs", type=int, default=16)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--trees", type=int, default=30)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", required=True, help="model .npz path")
    p.add_argument(
        "--mem-freqs",
        help="MHD only: comma-separated memory clocks (MHz) for a 2-D "
        "(core x memory) training sweep; adds the f_mem_mhz feature column",
    )
    p.add_argument("--dataset-output", help="also save the training dataset (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "campaign",
        help="run a characterization campaign through the parallel, cached engine",
    )
    p.add_argument("--app", choices=("ligen", "cronos", "mhd"), required=True)
    p.add_argument("--device", choices=DEVICE_CHOICES, default="v100")
    p.add_argument("--freqs", type=int, default=16, help="frequency bins to sweep (0 = all)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=42, help="campaign seed (per-task seeds derive from it)")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results are identical for any value)",
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache",
        help="persistent result cache directory (default .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    p.add_argument(
        "--quick", action="store_true", help="reduced input grid (~seconds)"
    )
    p.add_argument(
        "--inject", metavar="PLAN.json",
        help="deterministic fault-injection plan (chaos testing; "
        "see docs/fault-injection.md)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per sweep point under --inject (default 2)",
    )
    p.add_argument(
        "--replay", action=argparse.BooleanOptionalAction, default=True,
        help="record each app once and replay the sweep batched "
        "(bit-identical to --no-replay, just faster; see docs/perf.md)",
    )
    p.add_argument(
        "--mem-freqs",
        help="MHD only: comma-separated memory clocks (MHz) to sweep "
        "alongside the core table (2-D DVFS)",
    )
    p.add_argument("--dataset-output", help="save the training dataset (JSON)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "run",
        help="validate a scenario/campaign spec file and execute it end to end",
    )
    p.add_argument(
        "scenario",
        help="scenario or campaign spec JSON (see docs/scenario-specs.md)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="validate only; exit nonzero on SPEC errors without running",
    )
    p.add_argument(
        "--dataset-output",
        help="save the training dataset here (overrides the spec's outputs.dataset)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="regenerate a headline experiment")
    p.add_argument(
        "--experiment", choices=("fig13-cronos", "fig13-ligen"), required=True
    )
    p.add_argument("--device", choices=DEVICE_CHOICES, default="v100")
    p.add_argument("--freqs", type=int, default=16)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--quick", action="store_true",
        help="reduced micro-benchmark suite and input grid (~1 min)",
    )
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "registry", help="manage the versioned, digest-validated model registry"
    )
    reg_sub = p.add_subparsers(dest="registry_command", required=True)

    pr = reg_sub.add_parser("add", help="register a trained model as a new version")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--model", required=True, help="trained model .npz path")
    pr.add_argument("--name", required=True, help="model name (letters/digits/._-)")
    pr.add_argument("--app", default="unknown", help="application the model covers")
    pr.add_argument(
        "--device", choices=DEVICE_CHOICES,
        help="record this device's spec signature in the manifest",
    )
    pr.add_argument(
        "--train-fingerprint", help="opaque training-campaign fingerprint to record"
    )
    pr.set_defaults(func=cmd_registry)

    pr = reg_sub.add_parser("list", help="list registered model versions")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=cmd_registry)

    pr = reg_sub.add_parser("verify", help="integrity-check registered artifacts")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--name", help="verify only this model (default: all)")
    pr.add_argument("--version", type=int, help="verify only this version")
    pr.set_defaults(func=cmd_registry)

    p = sub.add_parser("advise", help="one frequency-advice request from a registered model")
    p.add_argument("--registry", required=True, help="registry directory")
    p.add_argument("--name", required=True, help="registered model name")
    p.add_argument("--version", type=int, help="model version (default: latest)")
    p.add_argument(
        "--features", required=True,
        help="comma-separated input features (model order)",
    )
    p.add_argument(
        "--objective",
        choices=("tradeoff", "min_energy_deadline", "max_speedup_power"),
        default="tradeoff",
    )
    p.add_argument("--deadline-s", type=float, help="deadline for min_energy_deadline")
    p.add_argument("--power-w", type=float, help="power cap for max_speedup_power")
    p.add_argument(
        "--mem-freqs",
        help="comma-separated candidate memory clocks (MHz); the model's "
        "last feature must be f_mem_mhz and the advice becomes a "
        "(core, memory) frequency pair",
    )
    p.add_argument("--freq-min", type=float, default=135.0)
    p.add_argument("--freq-max", type=float, default=1597.0)
    p.add_argument("--freq-points", type=int, default=25)
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the manifest, objective, and advice machine-readably",
    )
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser(
        "fleet",
        help="simulate a GPU fleet under deadline-aware DVFS (docs/fleet.md)",
    )
    p.add_argument("spec", help="fleet spec JSON (format repro.fleet)")
    p.add_argument(
        "--mode", choices=("vectorized", "reference"), default="vectorized",
        help="tick engine: SoA vectorized (default) or the naive "
        "per-object reference loop (bit-identical, ~10x+ slower)",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the static-clock baseline fleet and report the "
        "energy advice saves at the resulting SLA delta",
    )
    p.add_argument("--gpus", type=int, help="override the spec's GPU count")
    p.add_argument("--ticks", type=int, help="override the spec's tick count")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument(
        "--policy", choices=("advised", "static"),
        help="override the spec's placement policy",
    )
    p.add_argument(
        "--static-freq", type=float,
        help="static-clock frequency in MHz (with --policy static or --baseline)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve", help="drive the advisor with a synthetic load and print stats"
    )
    p.add_argument("--registry", required=True, help="registry directory")
    p.add_argument("--name", required=True, help="registered model name")
    p.add_argument("--version", type=int, help="model version (default: latest)")
    p.add_argument("--requests", type=int, default=200, help="request count")
    p.add_argument("--workers", type=int, default=4, help="client threads (per process)")
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes (>1 drives independent advisor processes past the GIL)",
    )
    p.add_argument("--pool", type=int, default=8, help="distinct feature tuples in the stream")
    p.add_argument("--seed", type=int, default=0, help="request-stream seed")
    p.add_argument("--batch-size", type=int, default=16, help="micro-batch cap")
    p.add_argument("--cache-size", type=int, default=2048, help="LRU advice-cache capacity")
    p.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        help="advice-cache lock shards (clamped down for small caches)",
    )
    p.add_argument(
        "--features",
        help="base feature tuple for the synthetic pool (default: 64.0 per feature)",
    )
    p.add_argument("--freq-min", type=float, default=135.0)
    p.add_argument("--freq-max", type=float, default=1597.0)
    p.add_argument("--freq-points", type=int, default=25)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "lifecycle",
        help="drift detection, shadow retraining and canary rollout",
    )
    life_sub = p.add_subparsers(dest="lifecycle_command", required=True)

    pl = life_sub.add_parser(
        "status", help="registered versions, active pointer, ledger state"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.set_defaults(func=cmd_lifecycle)

    pl = life_sub.add_parser(
        "retrain", help="train + register one candidate from a lifecycle spec"
    )
    pl.add_argument("spec", help="lifecycle spec JSON (format repro.lifecycle)")
    pl.set_defaults(func=cmd_lifecycle)

    pl = life_sub.add_parser(
        "promote", help="manually promote a version (records null evidence)"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument(
        "--to-version", type=int, required=True, help="version to promote"
    )
    pl.set_defaults(func=cmd_lifecycle)

    pl = life_sub.add_parser(
        "rollback", help="restore a prior version as the active pointer"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument(
        "--to-version",
        type=int,
        help="target version (default: the ledger's recorded previous)",
    )
    pl.set_defaults(func=cmd_lifecycle)

    p = sub.add_parser("lint", help="statically verify repo invariants")
    p.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--select",
        help="comma-separated rule ids or families to run "
        "(e.g. DET001,HW001 or SPEC,HW); default all",
    )
    p.add_argument(
        "--no-self-check", action="store_true",
        help="skip the built-in device-spec / kernel-IR verification",
    )
    p.set_defaults(func=cmd_lint)

    for name, fn, extra in (
        ("predict", cmd_predict, False),
        ("tune", cmd_tune, True),
    ):
        p = sub.add_parser(name, help=f"{name} from a saved model")
        p.add_argument("--model", required=True, help="model .npz path")
        p.add_argument(
            "--features",
            required=True,
            help="comma-separated input features (model order, e.g. LiGen: ligands,fragments,atoms)",
        )
        p.add_argument("--freq-min", type=float, default=135.0)
        p.add_argument("--freq-max", type=float, default=1597.0)
        p.add_argument("--freq-points", type=int, default=25)
        if extra:
            p.add_argument(
                "--metric",
                choices=[m.value for m in __import__("repro.synergy.tuning", fromlist=["TuningMetric"]).TuningMetric],
                default="min_energy",
            )
            p.add_argument("--max-slowdown", type=float, default=0.10)
            p.add_argument("--energy-target", type=float, default=None)
        p.set_defaults(func=fn)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "freqs", None) == 0:
        args.freqs = None
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
