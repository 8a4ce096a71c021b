"""Property: one default device built alone measures like the full platform."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ligen.app import LigenApplication
from repro.synergy import Platform
from repro.synergy.runner import measure

APP = LigenApplication(n_ligands=64, n_atoms=31, n_fragments=4)


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    name=st.sampled_from(Platform.DEFAULT_DEVICES),
    ideal=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_default_device_measures_like_platform(seed, name, ideal):
    alone = Platform.default_device(name, seed=seed, ideal_sensors=ideal)
    full = Platform.default(seed=seed, ideal_sensors=ideal).get_device(name)
    assert alone.gpu.spec is full.gpu.spec
    for dev in (alone, full):
        dev.set_core_frequency(1000.0)
    t_a, e_a, times_a, energies_a = measure(APP, alone, 2)
    t_f, e_f, times_f, energies_f = measure(APP, full, 2)
    assert (t_a, e_a) == (t_f, e_f)
    assert times_a.tobytes() == times_f.tobytes()
    assert energies_a.tobytes() == energies_f.tobytes()


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_default_device_leaves_generator_seed_in_step(seed):
    """A generator seed loses only the draws up to the built device's own."""
    gens = [np.random.default_rng(seed) for _ in range(3)]
    Platform.default(seed=gens[0])
    Platform.default_device("mi100", seed=gens[1])
    Platform.default_device("v100", seed=gens[2])
    tail = gens[0].integers(0, 2**63 - 1)
    assert gens[1].integers(0, 2**63 - 1) == tail
    gens[2].integers(0, 2**63 - 1)  # the mi100 draw a full platform takes
    assert gens[2].integers(0, 2**63 - 1) == tail
