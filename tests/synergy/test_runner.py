"""Unit tests for the characterization sweep runner."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.ir import KernelLaunch, KernelSpec
from repro.synergy.runner import FrequencySample, characterize, measure


class ToyApp:
    """Minimal Application: one compute-bound kernel per run."""

    name = "toy"

    def __init__(self, threads=500_000):
        self._launch = KernelLaunch(
            KernelSpec("toy_k", float_add=2000, float_mul=1000, global_access=8),
            threads=threads,
        )

    def run(self, gpu):
        gpu.launch(self._launch)


class TestCharacterize:
    def test_sweep_covers_requested_freqs(self, v100_dev, small_freqs):
        result = characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs, repetitions=2)
        assert len(result.samples) == len(small_freqs)
        snapped = [v100_dev.gpu.spec.core_freqs.snap(f) for f in small_freqs]
        assert np.allclose(result.freqs_mhz, snapped)

    def test_default_sweep_is_full_table(self, v100_dev):
        result = characterize(ToyApp(threads=200_000), v100_dev, repetitions=1)
        assert len(result.samples) == 196

    def test_baseline_label_nvidia(self, v100_dev, small_freqs):
        result = characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs, repetitions=1)
        assert result.baseline_label == "default configuration"
        assert result.baseline_freq_mhz == pytest.approx(1282.1, abs=0.5)

    def test_baseline_label_amd(self, mi100_dev):
        result = characterize(
            ToyApp(), mi100_dev, freqs_mhz=[300.0, 900.0, 1502.0], repetitions=1
        )
        assert result.baseline_label == "AMD auto freq"
        assert result.baseline_freq_mhz is None

    def test_speedup_is_one_at_default(self, ideal_v100_dev, small_freqs):
        result = characterize(ToyApp(), ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1)
        sample = result.sample_at(1282.0)
        idx = int(np.argmin(np.abs(result.freqs_mhz - sample.freq_mhz)))
        assert result.speedups()[idx] == pytest.approx(1.0, rel=1e-6)
        assert result.normalized_energies()[idx] == pytest.approx(1.0, rel=1e-6)

    def test_compute_bound_speedup_monotone(self, ideal_v100_dev, small_freqs):
        result = characterize(ToyApp(), ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1)
        assert np.all(np.diff(result.speedups()) > 0)

    def test_repetition_arrays_kept(self, v100_dev, small_freqs):
        result = characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs[:2], repetitions=4)
        s = result.samples[0]
        assert s.rep_times_s.shape == (4,)
        assert s.rep_energies_j.shape == (4,)
        assert s.time_s == pytest.approx(np.median(s.rep_times_s))

    def test_frequency_restored_after_sweep(self, v100_dev, small_freqs):
        characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs[:2], repetitions=1)
        assert v100_dev.gpu.pinned_frequency_mhz == v100_dev.default_frequency_mhz

    def test_duplicate_freqs_rejected(self, v100_dev):
        with pytest.raises(ConfigurationError):
            characterize(ToyApp(), v100_dev, freqs_mhz=[900.0, 900.2], repetitions=1)

    def test_invalid_repetitions(self, v100_dev, small_freqs):
        with pytest.raises(ValueError):
            characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs, repetitions=0)


class TestMeasure:
    def test_zero_repetitions_rejected(self, v100_dev):
        # The median of no runs used to come back as (nan, nan, ...) with
        # only a NumPy RuntimeWarning.
        with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
            measure(ToyApp(), v100_dev, 0)


class TestResultHelpers:
    @pytest.fixture
    def result(self, ideal_v100_dev, small_freqs):
        return characterize(ToyApp(), ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1)

    def test_sample_at_snaps(self, result):
        s = result.sample_at(1110.0)
        assert s.freq_mhz == pytest.approx(1102.2, abs=0.5)

    def test_sample_at_rejects_far_frequency(self, result):
        """Regression: a request beyond half a bin from any swept sample
        must raise, not silently return the nearest (wrong) sample."""
        # Nearest sample is 1597 MHz with a 147 MHz local bin, so anything
        # more than ~73.5 MHz above the top of the sweep must be refused.
        with pytest.raises(ConfigurationError):
            result.sample_at(3000.0)
        with pytest.raises(ConfigurationError):
            result.sample_at(1700.0)

    def test_sample_at_explicit_tolerance(self, result):
        with pytest.raises(ConfigurationError):
            result.sample_at(1110.0, tol_mhz=1.0)
        s = result.sample_at(3000.0, tol_mhz=2000.0)
        assert s.freq_mhz == pytest.approx(1597.0, abs=1.0)

    def test_best_energy_saving_respects_constraint(self, result):
        s = result.best_energy_saving(max_speedup_loss=0.10)
        idx = int(np.argmin(np.abs(result.freqs_mhz - s.freq_mhz)))
        assert result.speedups()[idx] >= 0.90

    def test_best_energy_saving_default_is_ten_percent(self, result):
        """Regression: the default used to be 1.0 (accept any slowdown),
        contradicting the documented 10% loss budget."""
        assert result.best_energy_saving().freq_mhz == pytest.approx(
            result.best_energy_saving(max_speedup_loss=0.1).freq_mhz
        )

    def test_best_energy_saving_infeasible(self, result):
        with pytest.raises(ConfigurationError):
            result.best_energy_saving(max_speedup_loss=-0.5)

    def test_best_energy_saving_rejects_loss_of_one_or_more(self, result):
        for bad in (1.0, 1.5):
            with pytest.raises(ConfigurationError):
                result.best_energy_saving(max_speedup_loss=bad)

    def test_power_and_spread(self, result):
        s = result.samples[0]
        assert s.power_w == pytest.approx(s.energy_j / s.time_s)
        assert s.time_spread >= 0.0


class TestFrequencySampleImmutability:
    def _sample(self, reps):
        return FrequencySample(
            freq_mhz=900.0,
            time_s=float(np.median(reps)),
            energy_j=10.0,
            rep_times_s=reps,
            rep_energies_j=np.asarray([10.0, 10.5, 9.5]),
        )

    def test_arrays_are_read_only(self):
        s = self._sample(np.asarray([1.0, 1.1, 0.9]))
        assert s.rep_times_s.flags.writeable is False
        assert s.rep_energies_j.flags.writeable is False
        with pytest.raises(ValueError):
            s.rep_times_s[0] = 99.0

    def test_input_array_is_copied(self):
        """Regression: samples used to alias the caller's buffer, so a
        caller-side mutation silently corrupted the stored measurement."""
        reps = np.asarray([1.0, 1.1, 0.9])
        s = self._sample(reps)
        reps[0] = 99.0
        assert s.rep_times_s[0] == pytest.approx(1.0)

    def test_characterize_samples_read_only(self, v100_dev, small_freqs):
        result = characterize(ToyApp(), v100_dev, freqs_mhz=small_freqs[:2], repetitions=2)
        for s in result.samples:
            assert s.rep_times_s.flags.writeable is False
