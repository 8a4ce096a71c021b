"""repro — Domain-specific energy modeling for drug discovery and MHD.

A full Python reproduction of Carpentieri et al., *Domain-Specific Energy
Modeling for Drug Discovery and Magnetohydrodynamics Applications*
(SC-W 2023), including every substrate the paper depends on:

- :mod:`repro.hw` — simulated DVFS-capable GPUs (NVIDIA V100, AMD MI100)
- :mod:`repro.kernels` — kernel IR, static features, micro-benchmarks
- :mod:`repro.synergy` — portable frequency-scaling/profiling API
- :mod:`repro.cronos` — finite-volume ideal-MHD code (Algorithm 1)
- :mod:`repro.ligen` — molecular docking & virtual screening (Algorithm 2)
- :mod:`repro.ml` — from-scratch regressors and model selection
- :mod:`repro.pareto` — Pareto fronts and front-quality metrics
- :mod:`repro.modeling` — general-purpose and domain-specific models
- :mod:`repro.experiments` — the paper's evaluation campaigns

Quickstart::

    from repro.synergy import Platform, characterize
    from repro.ligen import LigenApplication
    from repro.modeling import true_front

    device = Platform.default_device("v100", seed=7)
    app = LigenApplication(n_ligands=10000, n_atoms=89, n_fragments=20)
    sweep = characterize(app, device)
    print(true_front(sweep).freqs_mhz)
"""

__version__ = "1.0.0"

from repro.errors import (
    ConfigurationError,
    DatasetError,
    DeviceError,
    FrequencyError,
    KernelError,
    ModelNotFittedError,
    ReproError,
)

__all__ = [
    "ConfigurationError",
    "DatasetError",
    "DeviceError",
    "FrequencyError",
    "KernelError",
    "ModelNotFittedError",
    "ReproError",
    "__version__",
]
