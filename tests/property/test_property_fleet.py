"""Property-based fleet tests (hypothesis).

The central property is ISSUE 8's purity contract: a fleet simulation
is a pure function of ``(FleetSpec, seed)`` — bitwise identical across
repeated runs *and* across the vectorized/reference engines, for
arbitrary small fleets, workloads and fault rates. Everything the fleet
benchmark gates on at scale reduces to this.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.fleet import fleet_failure_schedule
from repro.fleet import diff_trajectories, simulate_fleet
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.specs.fleet import FleetJobType, FleetSpec


def _domain_model():
    ds = EnergyDataset(feature_names=("size",))
    for size in (1.0, 2.0, 3.0, 4.0):
        for f in (400.0, 700.0, 1000.0, 1282.0, 1500.0):
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=size * 1000.0 / f,
                    energy_j=size * (20.0 + f / 100.0),
                )
            )
    return DomainSpecificModel(
        ("size",),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=6, random_state=1),
        baseline_freq_mhz=1282.0,
    ).fit(ds)


# One fitted substrate for the whole module (read-only afterwards).
_MODEL = _domain_model()


@st.composite
def fleet_specs(draw):
    n_types = draw(st.integers(min_value=1, max_value=3))
    job_types = tuple(
        FleetJobType(
            name=f"type{i}",
            features=(float(draw(st.integers(min_value=1, max_value=4))),),
            deadline_s=draw(
                st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
            ),
            weight=float(draw(st.integers(min_value=1, max_value=3))),
        )
        for i in range(n_types)
    )
    return FleetSpec(
        name="property-fleet",
        gpus=draw(st.integers(min_value=1, max_value=4)),
        ticks=draw(st.integers(min_value=1, max_value=15)),
        job_types=job_types,
        arrival_rate_per_tick=draw(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
        ),
        arrival_horizon_ticks=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=10))
        ),
        tick_s=draw(st.sampled_from((0.25, 0.5, 1.0))),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        policy=draw(st.sampled_from(("advised", "static"))),
        static_freq_mhz=1000.0,
        freq_min_mhz=400.0,
        freq_max_mhz=1500.0,
        freq_points=5,
        gpu_failure_prob=draw(st.sampled_from((0.0, 0.05, 0.2))),
        repair_ticks=draw(st.integers(min_value=1, max_value=5)),
    )


@given(fleet_specs())
@settings(max_examples=15, deadline=None)
def test_simulation_is_a_pure_function_of_spec_and_seed(spec):
    a = simulate_fleet(spec, _MODEL, mode="vectorized")
    b = simulate_fleet(spec, _MODEL, mode="vectorized")
    assert diff_trajectories(a, b) == []


@given(fleet_specs())
@settings(max_examples=15, deadline=None)
def test_vectorized_engine_bitwise_equals_reference(spec):
    vec = simulate_fleet(spec, _MODEL, mode="vectorized")
    ref = simulate_fleet(spec, _MODEL, mode="reference")
    assert diff_trajectories(vec, ref) == []
    # the scalar totals derive from the same arrays, so they agree too
    vs, rs = vec.summary(), ref.summary()
    assert vs.pop("mode") != rs.pop("mode")
    assert vs == rs


@given(fleet_specs())
@settings(max_examples=10, deadline=None)
def test_energy_accounting_covers_the_whole_horizon(spec):
    """Every GPU's energy is at least the idle draw over its idle time
    and every completed job's energy is positive — no span is dropped."""
    res = simulate_fleet(spec, _MODEL, mode="vectorized")
    assert np.all(res.gpu_energy_j >= 0.0)
    horizon_s = spec.ticks * spec.tick_s
    # busy + down + idle spans partition the horizon, so busy never exceeds it
    assert np.all(res.gpu_busy_s <= horizon_s + 1e-9)


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    gpus=st.integers(min_value=0, max_value=40),
    ticks=st.integers(min_value=0, max_value=30),
    extra_gpus=st.integers(min_value=0, max_value=3000),
    extra_ticks=st.integers(min_value=0, max_value=40),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_failure_schedule_cells_are_independent_of_grid_shape(
    seed, gpus, ticks, extra_gpus, extra_ticks, p
):
    """Each cell is a pure function of ``(seed, g, t)``: a small grid is
    the top-left block of any larger one (whatever its tick chunking)."""
    small = fleet_failure_schedule(seed, gpus, ticks, p)
    big = fleet_failure_schedule(seed, gpus + extra_gpus, ticks + extra_ticks, p)
    assert small.shape == (ticks, gpus)
    assert small.tobytes() == big[:ticks, :gpus].tobytes()
