"""Dataset builders: run the paper's characterization campaigns.

Each builder sweeps the configured workload grid over a frequency
subsample on one device, returning both the flat
:class:`repro.modeling.dataset.EnergyDataset` (for model training) and
the per-input :class:`repro.synergy.runner.CharacterizationResult`
objects (the measured ground truth used for validation).

Builders accept an optional :class:`repro.runtime.engine.CampaignEngine`
that fans the (input x frequency) grid out over a process pool with
persistent result caching; without one they fall back to the serial
in-process sweep on the caller's device handle (preserving the exact
sensor-noise stream of historical runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cronos.app import CRONOS_FEATURE_NAMES, CronosApplication
from repro.experiments import configs
from repro.ligen.app import LIGEN_FEATURE_NAMES, LigenApplication
from repro.mhd.app import MHD_FEATURE_NAMES, MhdApplication
from repro.modeling.dataset import EnergyDataset
from repro.runtime.engine import CampaignEngine, CampaignStats, ProgressFn
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import Application, CharacterizationResult, characterize

__all__ = [
    "CampaignData",
    "MEM_FEATURE_NAME",
    "build_cronos_campaign",
    "build_ligen_campaign",
    "build_mhd_campaign",
    "default_training_freqs",
    "resolve_training_freqs",
]

#: Feature-column name appended to a workload's domain features when a
#: campaign sweeps the memory-frequency axis too.
MEM_FEATURE_NAME = "f_mem_mhz"

FeatureKey = Tuple[float, ...]


@dataclass
class CampaignData:
    """Everything a modeling experiment needs from one campaign."""

    dataset: EnergyDataset
    characterizations: Dict[FeatureKey, CharacterizationResult]
    freqs_mhz: List[float]
    #: Engine-lifetime task/cache counters when an engine ran the
    #: campaign (``None`` for the serial in-process path).
    stats: Optional[CampaignStats] = field(default=None, compare=False)
    #: Memory clocks of a 2-D (core x mem) sweep; ``None`` for the
    #: classic core-only campaigns. When set, the dataset's last feature
    #: column is :data:`MEM_FEATURE_NAME` and ``characterizations`` is
    #: keyed by ``domain_features + (mem_freq_mhz,)``.
    mem_freqs_mhz: Optional[List[float]] = None

    def characterization_for(self, features: Sequence[float]) -> CharacterizationResult:
        """Measured sweep for one input-feature tuple."""
        return self.characterizations[tuple(float(f) for f in features)]


def default_training_freqs(device: SynergyDevice, count: Optional[int]) -> List[float]:
    """Frequency subsample for training sweeps.

    Always includes the device's baseline clock: the domain-specific
    model normalizes its predictions by the predicted values *at the
    baseline frequency* (§4.2.3), so the baseline bin must be in the
    training set or every normalized prediction inherits a systematic
    interpolation offset.

    Membership of the baseline bin is decided by snapping to the device
    table and comparing within half a bin — never by float identity — so
    the baseline can neither be silently dropped (a recomputed table
    value differing in the last ulp) nor duplicated (two near-identical
    floats that later snap onto the same bin and abort the sweep).
    """
    table = device.gpu.spec.core_freqs
    if count is None:
        return [float(f) for f in table.freqs_mhz]
    freqs = [float(table.snap(f)) for f in table.subsample(count)]
    if table.default_mhz is not None:
        default = float(table.snap(table.default_mhz))
        tol = max(table.step_mhz() / 2.0, 1e-9)
        if not any(abs(f - default) <= tol for f in freqs):
            freqs.append(default)
    return sorted(set(freqs))


def resolve_training_freqs(
    device: SynergyDevice,
    freq_count: Optional[int],
    freqs_mhz: Optional[Sequence[float]] = None,
) -> List[float]:
    """Resolve a sweep's frequency list: explicit points or a subsample.

    An explicit ``freqs_mhz`` list (e.g. from a campaign spec's
    ``sweep.freqs_mhz``) wins over ``freq_count``; each point is snapped
    onto the device's frequency table so requested clocks that fall
    between bins measure at a real operating point. Two requested points
    that snap onto the same bin are an error — the sweep the caller
    described is not the sweep that would run.
    """
    if freqs_mhz is None:
        return default_training_freqs(device, freq_count)
    if freq_count is not None:
        raise ValueError("freq_count and freqs_mhz are mutually exclusive")
    if not freqs_mhz:
        raise ValueError("freqs_mhz must name at least one frequency")
    table = device.gpu.spec.core_freqs
    snapped = [float(table.snap(f)) for f in freqs_mhz]
    if len(set(snapped)) != len(snapped):
        raise ValueError(
            "freqs_mhz contains points that snap onto the same device "
            f"frequency bin: requested {sorted(float(f) for f in freqs_mhz)}, "
            f"snapped {sorted(snapped)}"
        )
    return sorted(snapped)


def _characterize_all(
    apps: Sequence[Application],
    device: SynergyDevice,
    freqs: Sequence[float],
    repetitions: int,
    engine: Optional[CampaignEngine],
    progress: Optional[ProgressFn],
    method: Optional[str],
) -> List[Optional[List[CharacterizationResult]]]:
    """Core-only sweep, one untagged row per app: engine fan-out when available.

    Without an engine the apps are swept in-process. ``method`` picks the
    measurement path (``"serial"`` or the batched ``"replay"`` fast path —
    bit-identical results either way); ``None`` keeps the engine's
    configured default (serial without an engine).
    """
    if engine is not None:
        results = engine.characterize_many(
            apps, device.gpu.spec, freqs, repetitions, progress=progress, method=method
        )
        return [None if result is None else [result] for result in results]
    serial = method or "serial"
    return [
        [characterize(app, device, freqs_mhz=freqs, repetitions=repetitions, method=serial)]
        for app in apps
    ]


def _assemble(
    apps: Sequence[Application],
    rows_per_app: Sequence[Optional[Sequence[CharacterizationResult]]],
    feature_names: Sequence[str],
    freqs: List[float],
    engine: Optional[CampaignEngine],
    mem_axis: bool = False,
) -> CampaignData:
    """One campaign from per-app result rows.

    With ``mem_axis`` each row is keyed by its memory clock, appended to
    the app's domain features as the :data:`MEM_FEATURE_NAME` column.
    """
    if mem_axis:
        feature_names = tuple(feature_names) + (MEM_FEATURE_NAME,)
    dataset = EnergyDataset(feature_names=tuple(feature_names))
    chars: Dict[FeatureKey, CharacterizationResult] = {}
    for app, rows in zip(apps, rows_per_app):
        if rows is None:
            # Baseline quarantined under a fault plan: the app's sweep is
            # dropped; engine.stats reports the loss (completeness()).
            continue
        for row in rows:
            features = app.domain_features
            if mem_axis:
                features += (float(row.mem_freq_mhz),)
            dataset.add_characterization(features, row)
            chars[features] = row
    return CampaignData(
        dataset=dataset,
        characterizations=chars,
        freqs_mhz=freqs,
        stats=None if engine is None else engine.stats,
        mem_freqs_mhz=sorted({f[-1] for f in chars}) if mem_axis else None,
    )


def build_cronos_campaign(
    device: SynergyDevice,
    grids: Sequence[Tuple[int, int, int]] = configs.CRONOS_GRID_SIZES,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    n_steps: int = configs.CRONOS_STEPS,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
    method: Optional[str] = None,
    freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignData:
    """Characterize Cronos over the grid sweep (paper §5.1 protocol)."""
    freqs = resolve_training_freqs(device, freq_count, freqs_mhz)
    apps = [CronosApplication.from_size(nx, ny, nz, n_steps=n_steps) for nx, ny, nz in grids]
    rows = _characterize_all(apps, device, freqs, repetitions, engine, progress, method)
    return _assemble(apps, rows, CRONOS_FEATURE_NAMES, freqs, engine)


def build_ligen_campaign(
    device: SynergyDevice,
    ligand_counts: Sequence[int] = configs.LIGEN_LIGAND_COUNTS,
    atom_counts: Sequence[int] = configs.LIGEN_ATOM_COUNTS,
    fragment_counts: Sequence[int] = configs.LIGEN_FRAGMENT_COUNTS,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
    method: Optional[str] = None,
    freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignData:
    """Characterize LiGen over the full ``(l, a, f)`` input grid."""
    freqs = resolve_training_freqs(device, freq_count, freqs_mhz)
    apps = [
        LigenApplication(n_ligands=ligands, n_atoms=atoms, n_fragments=fragments)
        for ligands in ligand_counts
        for atoms in atom_counts
        for fragments in fragment_counts
    ]
    rows = _characterize_all(apps, device, freqs, repetitions, engine, progress, method)
    return _assemble(apps, rows, LIGEN_FEATURE_NAMES, freqs, engine)


def build_mhd_campaign(
    device: SynergyDevice,
    grids: Sequence[Tuple[int, int, int]] = configs.MHD_GRID_SIZES,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    n_steps: int = configs.MHD_STEPS,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
    method: Optional[str] = None,
    freqs_mhz: Optional[Sequence[float]] = None,
    mem_freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignData:
    """Characterize the MHD workload over its grid sweep.

    With ``mem_freqs_mhz`` left ``None`` this is the same core-only
    protocol as the other builders (and bit-identical to it). Passing
    memory clocks (e.g. ``device.gpu.supported_memory_frequencies()``)
    switches to the 2-D ``(f_core, f_mem)`` grid: every app is swept at
    every (core, mem) pair, the dataset grows a trailing
    :data:`MEM_FEATURE_NAME` column, and ``characterizations`` is keyed
    by ``domain_features + (mem_freq_mhz,)``. Points measured at the
    device's reference memory clock reuse the exact task identities of a
    core-only campaign, so the two paths share caches and noise streams.
    """
    freqs = resolve_training_freqs(device, freq_count, freqs_mhz)
    apps = [
        MhdApplication.from_size(nr, ntheta, nz, n_steps=n_steps)
        for nr, ntheta, nz in grids
    ]
    if mem_freqs_mhz is None:
        rows = _characterize_all(apps, device, freqs, repetitions, engine, progress, method)
    else:
        # 2-D sweep: always runs through an engine (the (app x core x mem)
        # fan-out and the shared-baseline bookkeeping live there).
        engine = engine if engine is not None else CampaignEngine(jobs=1)
        rows = engine.characterize_grid(
            apps, device.gpu.spec, freqs, mem_freqs_mhz, repetitions, progress, method
        )
    mem_axis = mem_freqs_mhz is not None
    return _assemble(apps, rows, MHD_FEATURE_NAMES, freqs, engine, mem_axis=mem_axis)
