"""Workload generation: all randomness decided once, deterministically."""

import hashlib

import numpy as np
import pytest

import repro.faults.fleet as faults_fleet
from repro.faults.fleet import fleet_failure_schedule
from repro.faults.injector import fault_hash_unit
from repro.fleet import build_workload
from repro.specs.fleet import FleetJobType

from tests.fleet.conftest import make_spec


class TestDeterminism:
    def test_same_spec_same_workload_bitwise(self):
        a = build_workload(make_spec(seed=5, gpu_failure_prob=0.05))
        b = build_workload(make_spec(seed=5, gpu_failure_prob=0.05))
        assert a.job_type.tobytes() == b.job_type.tobytes()
        assert a.arrival_tick.tobytes() == b.arrival_tick.tobytes()
        assert a.deadline_s.tobytes() == b.deadline_s.tobytes()
        assert a.failures.tobytes() == b.failures.tobytes()

    def test_seed_changes_arrivals(self):
        a = build_workload(make_spec(seed=1))
        b = build_workload(make_spec(seed=2))
        assert (
            a.n_jobs != b.n_jobs
            or a.job_type.tobytes() != b.job_type.tobytes()
            or a.arrival_tick.tobytes() != b.arrival_tick.tobytes()
        )


class TestArrivals:
    def test_horizon_bounds_every_arrival(self):
        w = build_workload(make_spec(ticks=40, arrival_horizon_ticks=12))
        assert w.n_jobs > 0
        assert int(w.arrival_tick.max()) < 12
        for t in range(12, 40):
            assert w.arrivals_by_tick[t].size == 0

    def test_arrivals_by_tick_partitions_the_jobs(self):
        w = build_workload(make_spec())
        ids = np.concatenate(w.arrivals_by_tick)
        assert ids.tolist() == list(range(w.n_jobs))
        for t, arriving in enumerate(w.arrivals_by_tick):
            assert np.all(w.arrival_tick[arriving] == t)

    def test_deadlines_are_absolute_from_arrival(self):
        spec = make_spec(tick_s=0.5)
        w = build_workload(spec)
        type_deadline = np.array([jt.deadline_s for jt in spec.job_types])
        expected = w.arrival_tick * spec.tick_s + type_deadline[w.job_type]
        assert w.deadline_s.tobytes() == expected.tobytes()

    def test_zero_rate_means_no_jobs(self):
        w = build_workload(make_spec(arrival_rate_per_tick=0.0))
        assert w.n_jobs == 0
        assert w.job_type.size == 0

    def test_single_type_workload_draws_only_it(self):
        spec = make_spec(
            job_types=(FleetJobType(name="only", features=(2.0,), deadline_s=9.0),),
        )
        w = build_workload(spec)
        assert np.all(w.job_type == 0)
        assert w.type_features == ((2.0,),)


class TestFailures:
    def test_fault_free_spec_has_no_schedule(self):
        assert build_workload(make_spec(gpu_failure_prob=0.0)).failures is None

    def test_schedule_shape_and_reuse_of_fault_hash_grid(self):
        spec = make_spec(gpu_failure_prob=0.05, seed=21)
        w = build_workload(spec)
        assert w.failures.shape == (spec.ticks, spec.gpus)
        assert w.failures.dtype == np.bool_
        expected = fleet_failure_schedule(
            spec.seed, spec.gpus, spec.ticks, spec.gpu_failure_prob
        )
        assert w.failures.tobytes() == expected.tobytes()

    def test_probability_scales_failure_density(self):
        lo = fleet_failure_schedule(0, 16, 50, 0.01).sum()
        hi = fleet_failure_schedule(0, 16, 50, 0.5).sum()
        assert hi > lo

    def test_zero_probability_short_circuits(self, monkeypatch):
        def boom(*args):
            raise AssertionError("hashed a fault-free schedule")

        monkeypatch.setattr(faults_fleet, "fault_hash_key", boom)
        grid = fleet_failure_schedule(0, 4, 10, 0.0)
        assert grid.shape == (10, 4)
        assert not grid.any()

    def test_unit_probability_fails_every_cell(self):
        w = build_workload(make_spec(gpu_failure_prob=1.0))
        assert w.failures.shape == (30, 4)
        assert w.failures.all()


class TestScheduleValidation:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 1.5, -0.2])
    def test_bad_probability_raises_through_build_workload(self, p):
        with pytest.raises(ValueError, match="probability"):
            build_workload(make_spec(gpu_failure_prob=p))

    def test_negative_gpu_count_raises_through_build_workload(self):
        with pytest.raises(ValueError, match="dimensions"):
            build_workload(make_spec(gpus=-1, gpu_failure_prob=0.1))

    @pytest.mark.parametrize("dims", [(-1, 5), (4, -1)])
    def test_negative_dimension_raises(self, dims):
        with pytest.raises(ValueError, match="dimensions"):
            fleet_failure_schedule(0, dims[0], dims[1], 0.1)

    def test_empty_grid_is_valid(self):
        assert fleet_failure_schedule(0, 0, 5, 0.1).shape == (5, 0)
        assert fleet_failure_schedule(0, 3, 0, 0.1).shape == (0, 3)


class TestCounterSchedule:
    @pytest.mark.parametrize("p", [0.001, 0.05, 0.5])
    def test_fire_rate_within_five_sigma(self, p):
        grid = fleet_failure_schedule(13, 1000, 200, p)
        n = grid.size
        assert abs(int(grid.sum()) - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p))

    def test_seed_decorrelates_the_grid(self):
        a = fleet_failure_schedule(1, 64, 50, 0.1)
        b = fleet_failure_schedule(2, 64, 50, 0.1)
        assert a.tobytes() != b.tobytes()

    def test_site_prefix_decorrelates_the_grid(self):
        a = fleet_failure_schedule(1, 64, 50, 0.1)
        b = fleet_failure_schedule(1, 64, 50, 0.1, site_prefix="rack.gpu")
        assert a.tobytes() != b.tobytes()

    def test_cells_do_not_depend_on_the_chunking(self):
        # > 64K cells, so the grid is mixed in several tick chunks
        wide = fleet_failure_schedule(5, 3000, 40, 0.05)
        for t in (0, 21, 22, 39):
            row = fleet_failure_schedule(5, 3000, t + 1, 0.05)[t]
            assert row.tobytes() == wide[t].tobytes()

    def test_golden_schedule_bits(self):
        # Pins the schedule's exact bits: a change here changes every
        # fault-injecting fleet's outcome and must be deliberate.
        fired = np.flatnonzero(fleet_failure_schedule(7, 64, 50, 0.02))
        digest = hashlib.sha256(fired.astype("<i8").tobytes()).hexdigest()
        assert digest == (
            "e3b4eacf45e79d29220bf5474c2631414db40da27929fd93eda8b2a26183b212"
        )

    def test_fault_hash_unit_values_are_unchanged(self):
        # Campaign chaos schedules derive from these draws; they must
        # stay bit-identical across fleet schedule changes.
        assert fault_hash_unit(0, "gpu.launch", 0) == 0.843221382505244
        assert fault_hash_unit(7, "fleet.gpu.3", 11) == 0.32581010033743985
        assert (
            fault_hash_unit(123456789, "task/sensor.energy#1", 42)
            == 0.7118463273757029
        )
        assert fault_hash_unit(-5, "worker", 2**40) == 0.6165698278564608
