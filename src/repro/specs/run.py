"""Execute validated specs: the engine behind ``repro run``.

:func:`run_campaign` turns a :class:`~repro.specs.campaign.CampaignSpec`
into exactly the objects the hand-wired ``repro campaign`` CLI path
builds — same device construction (built-in devices come from
``Platform.default_device`` seeded with the campaign seed), same engine
arguments, same dataset builders — so a spec-driven run is bit-identical
to the equivalent CLI invocation (the acceptance test pins this).

:func:`run_scenario` layers the scenario extras on top: the optional
fault plan rides into the engine, and the optional objective is
evaluated per swept input — against the *measured* trade-off profile by
default, or against a registered model's predicted profile when the
objective names one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SpecError
from repro.modeling.domain import TradeoffPrediction
from repro.specs.campaign import CampaignSpec
from repro.specs.device_table import load_device_table
from repro.specs.scenario import ObjectiveRef, ScenarioSpec, resolve_ref

__all__ = [
    "AdviceRow",
    "ScenarioOutcome",
    "build_device",
    "build_engine",
    "run_campaign",
    "run_scenario",
    "measured_tradeoff",
]


def build_device(spec: CampaignSpec):
    """Construct the :class:`SynergyDevice` a campaign spec names.

    Built-in ``v100``/``mi100`` devices come from
    ``Platform.default_device`` seeded with the campaign seed — the exact
    construction ``repro campaign`` uses — so cached results and sensor
    streams line up bit-for-bit.
    """
    from repro.synergy.api import Platform, SynergyDevice

    if spec.device_table is not None:
        from repro.hw.device import SimulatedGPU

        dev_spec = load_device_table(resolve_ref(spec.device_table, spec.base_dir))
        return SynergyDevice(SimulatedGPU(dev_spec), seed=spec.engine.seed)
    name = spec.device_name or "v100"
    if name in Platform.DEFAULT_DEVICES:
        return Platform.default_device(name, seed=spec.engine.seed)
    from repro.hw.device import create_device

    return SynergyDevice(create_device(name), seed=spec.engine.seed)


def build_engine(spec: CampaignSpec, fault_plan=None):
    """Construct the :class:`CampaignEngine` a campaign spec configures."""
    from repro.runtime import CampaignEngine, ResultCache

    cache = (
        None if spec.engine.cache_dir is None else ResultCache(spec.engine.cache_dir)
    )
    return CampaignEngine(
        jobs=spec.engine.jobs,
        cache=cache,
        campaign_seed=spec.engine.seed,
        method=spec.engine.method,
        fault_plan=fault_plan,
        max_retries=spec.engine.max_retries,
    )


def run_campaign(spec: CampaignSpec, fault_plan=None, progress=None):
    """Run one campaign spec; returns ``(CampaignData, CampaignEngine)``."""
    device = build_device(spec)
    engine = build_engine(spec, fault_plan=fault_plan)
    if spec.sweep.mem_freqs_mhz is not None and spec.app_kind != "mhd":
        raise SpecError(
            "sweep.mem_freqs_mhz (2-D DVFS) is only wired up for the 'mhd' "
            f"application, not {spec.app_kind!r}"
        )
    if spec.app_kind == "ligen":
        from repro.experiments.datasets import build_ligen_campaign

        campaign = build_ligen_campaign(
            device,
            ligand_counts=spec.app_params["ligand_counts"],
            atom_counts=spec.app_params["atom_counts"],
            fragment_counts=spec.app_params["fragment_counts"],
            freq_count=spec.sweep.freq_count,
            freqs_mhz=spec.sweep.freqs_mhz,
            repetitions=spec.sweep.repetitions,
            engine=engine,
            progress=progress,
        )
    elif spec.app_kind == "mhd":
        from repro.experiments.datasets import build_mhd_campaign

        campaign = build_mhd_campaign(
            device,
            grids=spec.app_params["grids"],
            n_steps=spec.app_params["steps"],
            freq_count=spec.sweep.freq_count,
            freqs_mhz=spec.sweep.freqs_mhz,
            mem_freqs_mhz=spec.sweep.mem_freqs_mhz,
            repetitions=spec.sweep.repetitions,
            engine=engine,
            progress=progress,
        )
    else:
        from repro.experiments.datasets import build_cronos_campaign

        campaign = build_cronos_campaign(
            device,
            grids=spec.app_params["grids"],
            n_steps=spec.app_params["steps"],
            freq_count=spec.sweep.freq_count,
            freqs_mhz=spec.sweep.freqs_mhz,
            repetitions=spec.sweep.repetitions,
            engine=engine,
            progress=progress,
        )
    return campaign, engine


def measured_tradeoff(result) -> TradeoffPrediction:
    """The measured profile of one characterization, as a trade-off object.

    Lets an objective run directly on campaign ground truth when a
    scenario names no model. Auto-governed devices report no baseline
    clock; the field is carried as ``0.0`` (objectives never read it).
    """
    return TradeoffPrediction(
        freqs_mhz=np.asarray(result.freqs_mhz, dtype=float),
        times_s=np.asarray(result.times_s, dtype=float),
        energies_j=np.asarray(result.energies_j, dtype=float),
        speedups=np.asarray(result.speedups(), dtype=float),
        normalized_energies=np.asarray(result.normalized_energies(), dtype=float),
        baseline_freq_mhz=(
            0.0 if result.baseline_freq_mhz is None else float(result.baseline_freq_mhz)
        ),
    )


@dataclass(frozen=True)
class AdviceRow:
    """Objective outcome for one swept input."""

    label: str
    features: Tuple[float, ...]
    advice: Optional[Any] = None
    #: Set (instead of ``advice``) when the objective was infeasible for
    #: this input, e.g. no configuration met the deadline.
    error: Optional[str] = None


@dataclass
class ScenarioOutcome:
    """Everything one ``repro run`` produced."""

    scenario: ScenarioSpec
    campaign: Any
    engine: Any
    advice: List[AdviceRow] = field(default_factory=list)


def _resolve_model(ref: ObjectiveRef, base_dir: Optional[str]):
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(resolve_ref(ref.model_registry, base_dir))
    model, _manifest = registry.resolve(ref.model_name, ref.model_version)
    return model


def _evaluate_objective(
    scenario: ScenarioSpec, campaign
) -> List[AdviceRow]:
    from repro.errors import ServingError

    ref = scenario.objective
    assert ref is not None
    objective = ref.to_objective()
    model = None
    if ref.model_registry is not None:
        model = _resolve_model(ref, scenario.base_dir)

    def profile_for(features, result):
        if model is not None:
            return model.predict_tradeoff(list(features), result.freqs_mhz)
        return measured_tradeoff(result)

    rows: List[AdviceRow] = []
    if getattr(campaign, "mem_freqs_mhz", None):
        # 2-D campaign: characterizations are keyed by domain features
        # plus the memory clock; group the per-mem rows of each input and
        # pick the best (f_core, f_mem) pair over the whole grid.
        grouped: Dict[Tuple[float, ...], List[Tuple[float, Any]]] = {}
        for features in sorted(campaign.characterizations):
            result = campaign.characterizations[features]
            grouped.setdefault(features[:-1], []).append((features[-1], result))
        for domain_features, mem_rows in sorted(grouped.items()):
            profiles = [
                (mem, profile_for(domain_features + (mem,), result))
                for mem, result in mem_rows
            ]
            label = mem_rows[0][1].app_name
            try:
                advice = objective.evaluate_grid(profiles)
            except ServingError as exc:
                rows.append(AdviceRow(label, domain_features, error=str(exc)))
            else:
                rows.append(AdviceRow(label, domain_features, advice=advice))
        return rows
    for features in sorted(campaign.characterizations):
        result = campaign.characterizations[features]
        profile = profile_for(features, result)
        try:
            advice = objective.evaluate(profile)
        except ServingError as exc:
            rows.append(AdviceRow(result.app_name, features, error=str(exc)))
        else:
            rows.append(AdviceRow(result.app_name, features, advice=advice))
    return rows


def run_scenario(scenario: ScenarioSpec, progress=None) -> ScenarioOutcome:
    """Execute one scenario end to end: campaign (+ faults) + objective.

    Dataset output (``outputs.dataset``) is resolved relative to the
    scenario file and written here; objective evaluation happens after
    the campaign so an infeasible objective still leaves the campaign's
    dataset on disk.
    """
    campaign, engine = run_campaign(
        scenario.campaign, fault_plan=scenario.fault_plan, progress=progress
    )
    outcome = ScenarioOutcome(scenario=scenario, campaign=campaign, engine=engine)
    if scenario.dataset_output is not None:
        from repro.io import save_dataset

        path = resolve_ref(scenario.dataset_output, scenario.base_dir)
        save_dataset(campaign.dataset, path)
    if scenario.objective is not None:
        try:
            outcome.advice = _evaluate_objective(scenario, campaign)
        except ReproError as exc:
            raise SpecError(
                f"scenario {scenario.name!r}: objective evaluation failed: {exc}"
            ) from exc
    return outcome
