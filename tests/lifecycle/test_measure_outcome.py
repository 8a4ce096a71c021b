"""Golden pins for the lifecycle observe step (``_measure_outcome``).

Each outcome is measured on a device seeded from (spec seed, epoch,
request); the pinned values are bit-exact, so any change to how the
device or its sensor streams are built shows here.
"""

import pytest

from repro.faults.drift import DriftedApplication
from repro.ligen.app import LigenApplication
from repro.lifecycle.loop import _measure_outcome
from repro.specs import LifecycleSpec

GOLDEN = {
    ("v100", "plain", 0, 0): (0.002935530898725663, 0.166),
    ("v100", "plain", 2, 17): (0.0029076181838035963, 0.169),
    ("v100", "plain", 7, 63): (0.002896023089798567, 0.168),
    ("v100", "drifted", 0, 0): (0.00293697008334459, 0.209),
    ("v100", "drifted", 2, 17): (0.0029090444111469073, 0.214),
    ("v100", "drifted", 7, 63): (0.0028974436657829947, 0.212),
    ("mi100", "plain", 0, 0): (0.008479490262483333, 0.981),
    ("mi100", "plain", 2, 17): (0.008435314854285213, 0.979),
    ("mi100", "plain", 7, 63): (0.008425083535996634, 0.972),
    ("mi100", "drifted", 0, 0): (0.008479504219533134, 1.031),
    ("mi100", "drifted", 2, 17): (0.008435328734474194, 1.029),
    ("mi100", "drifted", 7, 63): (0.008425097402510897, 1.022),
}


def _spec(device: str, tmp_path) -> LifecycleSpec:
    return LifecycleSpec.from_record(
        {
            "format": "repro.lifecycle",
            "schema_version": 1,
            "name": "golden",
            "seed": 11,
            "model": {"registry": "reg", "name": "adv"},
            "workload": {
                "app": "ligen",
                "device": device,
                "freq_count": 4,
                "repetitions": 1,
                "trees": 6,
                "ligand_counts": [64],
                "atom_counts": [31],
                "fragment_counts": [4],
            },
            "drift": {"enter_mape": 20.0, "exit_mape": 10.0},
            "epochs": 2,
            "requests_per_epoch": 4,
        },
        base_dir=str(tmp_path),
    )


def _app(kind: str):
    base = LigenApplication(n_ligands=64, n_atoms=31, n_fragments=4)
    return base if kind == "plain" else DriftedApplication(base, work_scale=4.0)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_measure_outcome_golden(key, tmp_path):
    device, kind, epoch, request = key
    got = _measure_outcome(_spec(device, tmp_path), _app(kind), 1000.0, epoch, request)
    assert got == GOLDEN[key]
