"""Portable device-management and energy-profiling API (SYnergy-style).

The paper profiles both applications through the SYnergy API, which wraps
the vendor libraries (NVML, ROCm-SMI, Level Zero) behind one portable
interface: enumerate devices, query/set core frequencies, and read energy.
This module provides the equivalent layer over :class:`repro.hw.device.
SimulatedGPU` — including the *measurement* imperfections (sensor noise)
that the real counters have, which the device itself does not model.

Typical use::

    platform = Platform.default()           # one V100 + one MI100
    dev = platform.get_device("v100")
    # or, building only the device that is measured (same streams):
    dev = Platform.default_device("v100")
    with dev.profile() as region:
        app.run(dev)
    print(region.time_s, region.energy_j)   # noisy readings
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DeviceError
from repro.hw.device import SimulatedGPU, create_device
from repro.hw.sensors import EnergySensor, TimeSensor
from repro.utils.rng import RandomState, as_generator, spawn_child

__all__ = ["ProfileRegion", "SynergyDevice", "Platform"]


class ProfileRegion:
    """A profiling region: reads device counters on entry and exit.

    Produced by :meth:`SynergyDevice.profile`; usable as a context manager.
    ``time_s`` / ``energy_j`` are the *measured* (noisy) values; the exact
    simulated values are kept as ``true_time_s`` / ``true_energy_j`` so
    tests can quantify sensor error.
    """

    def __init__(self, device: "SynergyDevice") -> None:
        self._device = device
        self._t0: Optional[float] = None
        self._e0: Optional[float] = None
        self.true_time_s: Optional[float] = None
        self.true_energy_j: Optional[float] = None
        self.time_s: Optional[float] = None
        self.energy_j: Optional[float] = None

    def __enter__(self) -> "ProfileRegion":
        self._t0 = self._device.gpu.time_counter_s
        self._e0 = self._device.gpu.energy_counter_j
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()

    def stop(self) -> None:
        """Finish the region and materialize measured values."""
        if self._t0 is None or self._e0 is None:
            raise DeviceError("profile region was never started")
        self.true_time_s = self._device.gpu.time_counter_s - self._t0
        self.true_energy_j = self._device.gpu.energy_counter_j - self._e0
        self.time_s = self._device.time_sensor.read(self.true_time_s)
        self.energy_j = self._device.energy_sensor.read(self.true_energy_j)


class SynergyDevice:
    """A device handle pairing a simulated GPU with its measurement sensors.

    Parameters
    ----------
    gpu:
        The underlying simulated device.
    seed:
        Seed for the sensor noise streams.
    ideal_sensors:
        When true, sensors are noiseless (useful for unit tests and for
        separating model error from measurement error in ablations).
    """

    def __init__(
        self,
        gpu: SimulatedGPU,
        seed: RandomState = None,
        ideal_sensors: bool = False,
    ) -> None:
        self.gpu = gpu
        rng = as_generator(seed)
        if ideal_sensors:
            self.energy_sensor = EnergySensor(rel_noise=0.0, quantum_j=1e-9, seed=spawn_child(rng, 0))
            self.time_sensor = TimeSensor(rel_noise=0.0, add_noise_s=0.0, seed=spawn_child(rng, 1))
        else:
            self.energy_sensor = EnergySensor(seed=spawn_child(rng, 0))
            self.time_sensor = TimeSensor(seed=spawn_child(rng, 1))

    # -- passthrough DVFS interface ------------------------------------
    @property
    def name(self) -> str:
        """Device name."""
        return self.gpu.name

    @property
    def vendor(self) -> str:
        """Device vendor."""
        return self.gpu.vendor

    def supported_frequencies(self) -> np.ndarray:
        """Supported core frequencies in MHz."""
        return self.gpu.supported_frequencies()

    @property
    def default_frequency_mhz(self) -> Optional[float]:
        """Default application clock (``None`` on auto-governed devices)."""
        return self.gpu.default_frequency_mhz

    def set_core_frequency(self, freq_mhz: float) -> float:
        """Pin the core clock (snapped); returns the actual frequency."""
        return self.gpu.set_core_frequency(freq_mhz)

    def reset_frequency(self) -> None:
        """Restore default clock / auto governor."""
        self.gpu.reset_frequency()

    def supported_memory_frequencies(self) -> np.ndarray:
        """Settable memory frequencies in MHz (single entry on v1 devices)."""
        return self.gpu.supported_memory_frequencies()

    @property
    def default_memory_frequency_mhz(self) -> float:
        """The reference (boot) memory clock."""
        return self.gpu.default_memory_frequency_mhz

    def set_memory_frequency(self, freq_mhz: float) -> float:
        """Pin the memory clock (snapped); returns the actual frequency."""
        return self.gpu.set_memory_frequency(freq_mhz)

    def reset_memory_frequency(self) -> None:
        """Restore the reference memory clock."""
        self.gpu.reset_memory_frequency()

    # -- profiling ------------------------------------------------------
    def profile(self) -> ProfileRegion:
        """Open a profiling region over the device's energy/time counters."""
        return ProfileRegion(self)


class Platform:
    """Device discovery: a named collection of :class:`SynergyDevice`.

    Mirrors SYCL platform/device enumeration. The default platform holds
    the paper's two devices, :attr:`DEFAULT_DEVICES`, in seeding order:
    the device at position ``i`` gets sensor stream
    ``spawn_child(rng, i)``, drawn ``i``-th from the platform seed.
    :meth:`default_device` builds one of them alone with that same
    stream, for callers that measure on one device only.
    """

    #: The paper's testbed in child-stream draw order.
    DEFAULT_DEVICES = ("v100", "mi100")

    def __init__(self, devices: Dict[str, SynergyDevice]) -> None:
        if not devices:
            raise DeviceError("platform must contain at least one device")
        self._devices = dict(devices)

    @classmethod
    def _default_streams(cls, seed: RandomState) -> Iterator[Tuple[str, np.random.Generator]]:
        """``(name, sensor seed)`` per default device, drawn lazily in order."""
        rng = as_generator(seed)
        for i, name in enumerate(cls.DEFAULT_DEVICES):
            yield name, spawn_child(rng, i)

    @classmethod
    def default(cls, seed: RandomState = None, ideal_sensors: bool = False) -> "Platform":
        """The paper's testbed: one V100 and one MI100."""
        return cls(
            {
                name: SynergyDevice(create_device(name), seed=child, ideal_sensors=ideal_sensors)
                for name, child in cls._default_streams(seed)
            }
        )

    @classmethod
    def default_device(
        cls, name: str, seed: RandomState = None, ideal_sensors: bool = False
    ) -> SynergyDevice:
        """One device of the default platform, built alone.

        Bitwise equivalent to
        ``Platform.default(seed, ideal_sensors).get_device(name)`` — same
        shared spec, same sensor streams — without building the other
        device. A generator ``seed`` only loses the draws up to and
        including this device's own.
        """
        key = name.strip().lower()
        if key not in cls.DEFAULT_DEVICES:
            raise DeviceError(f"no device {name!r}; available: {sorted(cls.DEFAULT_DEVICES)}")
        child = next(c for n, c in cls._default_streams(seed) if n == key)
        return SynergyDevice(create_device(key), seed=child, ideal_sensors=ideal_sensors)

    def device_names(self) -> List[str]:
        """Names of all devices on the platform."""
        return sorted(self._devices)

    def get_device(self, name: str) -> SynergyDevice:
        """Look up a device by name; raises :class:`DeviceError` if unknown."""
        key = name.strip().lower()
        if key not in self._devices:
            raise DeviceError(f"no device {name!r}; available: {self.device_names()}")
        return self._devices[key]
