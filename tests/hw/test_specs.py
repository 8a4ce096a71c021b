"""Unit tests for device specifications."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.hw.device import SimulatedGPU, create_device
from repro.hw.specs import FrozenMapping, make_mi100_spec, make_v100_spec, scale_spec


class TestV100Spec:
    def test_paper_frequency_table(self):
        """§5.1: 196 core frequencies from 135 to 1597 MHz, mem at 1107."""
        spec = make_v100_spec()
        assert len(spec.core_freqs) == 196
        assert spec.core_freqs.min_mhz == pytest.approx(135.0)
        assert spec.core_freqs.max_mhz == pytest.approx(1597.0)
        assert spec.mem_freq_mhz == pytest.approx(1107.0)

    def test_has_default_clock(self):
        spec = make_v100_spec()
        assert spec.has_default_frequency
        assert spec.core_freqs.default_mhz is not None

    def test_tdp_reasonable(self):
        """Worst-case board power (full compute AND full memory activity,
        which no real kernel reaches simultaneously) should sit near but
        above the 300 W TDP."""
        assert 280.0 <= make_v100_spec().tdp_w <= 380.0

    def test_peak_bandwidth(self):
        assert make_v100_spec().mem_bandwidth_bytes_s == pytest.approx(900e9)

    def test_littles_law_consistency(self):
        """max_mlp x per_thread_mlp must sustain the peak bandwidth."""
        spec = make_v100_spec()
        in_flight = spec.max_mlp * spec.per_thread_mlp
        needed = spec.mem_bandwidth_bytes_s * spec.mem_latency_ns * 1e-9 / spec.bytes_per_access
        assert in_flight == pytest.approx(needed, rel=0.15)


class TestMI100Spec:
    def test_no_default_clock(self):
        spec = make_mi100_spec()
        assert not spec.has_default_frequency
        assert spec.core_freqs.default_mhz is None

    def test_vendor(self):
        assert make_mi100_spec().vendor == "amd"

    def test_special_fn_override_present(self):
        """The MI100's weak special-function throughput drives the LiGen
        slowdown of Figs 6-9."""
        spec = make_mi100_spec()
        assert spec.op_cost_overrides["special_fn"] > 10.0

    def test_littles_law_consistency(self):
        spec = make_mi100_spec()
        in_flight = spec.max_mlp * spec.per_thread_mlp
        needed = spec.mem_bandwidth_bytes_s * spec.mem_latency_ns * 1e-9 / spec.bytes_per_access
        assert in_flight == pytest.approx(needed, rel=0.15)


class TestSpecValidation:
    def test_bad_vendor_rejected(self):
        spec = make_v100_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, vendor="acme")

    def test_negative_power_rejected(self):
        spec = make_v100_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, p_clock_w=-1.0)

    def test_bad_coupling_rejected(self):
        spec = make_v100_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, mem_freq_coupling=1.5)

    def test_bad_idle_frac_rejected(self):
        spec = make_v100_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, active_idle_frac=-0.1)

    def test_bad_op_override_rejected(self):
        spec = make_v100_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, op_cost_overrides={"special_fn": 0.0})


class TestSharedSpecs:
    """``create_device`` shares one spec per name, so specs must be deeply immutable."""

    def test_create_device_shares_spec(self):
        assert create_device("v100").spec is create_device("NVIDIA V100").spec
        assert create_device("mi100").spec is create_device("amd").spec
        assert create_device("v100").spec is not create_device("mi100").spec

    def test_shared_spec_equals_fresh_spec(self):
        # FrequencyTable compares by identity, so compare signatures.
        assert create_device("mi100").spec.signature() == make_mi100_spec().signature()

    def test_cost_overrides_reject_mutation(self):
        overrides = create_device("mi100").spec.op_cost_overrides
        assert isinstance(overrides, FrozenMapping)
        assert overrides == {"special_fn": 36.0}
        with pytest.raises(TypeError):
            overrides["special_fn"] = 1.0
        with pytest.raises(TypeError):
            del overrides["special_fn"]

    def test_passed_dict_is_copied(self):
        costs = {"special_fn": 30.0}
        spec = dataclasses.replace(make_v100_spec(), op_cost_overrides=costs)
        costs["special_fn"] = 1.0
        assert spec.op_cost_overrides["special_fn"] == 30.0

    def test_frequency_array_rejects_mutation(self):
        table = create_device("v100").spec.core_freqs
        with pytest.raises(ValueError):
            table._freqs[0] = 1.0
        # The public accessor still hands out a private, writable copy.
        copy = table.freqs_mhz
        copy[0] = 1.0
        assert table.min_mhz == 135.0

    @pytest.mark.parametrize("name", ["v100", "mi100", "a100"])
    def test_spec_and_device_pickle_round_trip(self, name):
        gpu = create_device(name)
        for obj in (gpu.spec, gpu):
            back = pickle.loads(pickle.dumps(obj))
            spec = back if obj is gpu.spec else back.spec
            assert spec.signature() == gpu.spec.signature()
            assert isinstance(spec.op_cost_overrides, FrozenMapping)
            assert not spec.core_freqs._freqs.flags.writeable
        back = pickle.loads(pickle.dumps(gpu))
        assert isinstance(back, SimulatedGPU)
        np.testing.assert_array_equal(
            back.supported_frequencies(), gpu.supported_frequencies()
        )


class TestScaleSpec:
    def test_compute_scaling(self):
        spec = make_v100_spec()
        doubled = scale_spec(spec, compute=2.0)
        assert doubled.n_cores == 2 * spec.n_cores
        assert doubled.mem_bandwidth_gbs == spec.mem_bandwidth_gbs

    def test_bandwidth_scaling(self):
        spec = make_v100_spec()
        half = scale_spec(spec, bandwidth=0.5)
        assert half.mem_bandwidth_gbs == pytest.approx(450.0)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            scale_spec(make_v100_spec(), compute=0.0)
