"""``campaign``: a replay characterization campaign against a result cache.

Set-up fills a fresh :class:`~repro.runtime.cache.ResultCache` with
core-only sweeps: Cronos grids and a LiGen ligands x atoms x fragments
grid on the V100, one MHD grid on the A100. Each timed pass copies that
cache to a fresh directory (untimed) and makes two calls groups through
``CampaignEngine(method="replay", jobs=1)``:

- **warm** re-characterizes the set-up sweeps, so every point is a hit;
- **cold** characterizes points the cache has not seen: the MHD
  (f_core x f_mem) grid through ``characterize_grid``, whose reference
  memory row must hit the 1-D entries, plus extra Cronos and LiGen
  inputs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, List

from harness import PassResult, now
from tracing import Hook

#: Candidate inputs. The seed picks the campaign noise seed and the
#: order inputs are swept in; the sets stay fixed so every seed costs
#: the same host work.
CRONOS_WARM = ((16, 8, 8), (24, 12, 12), (32, 16, 16), (40, 16, 16), (48, 24, 24))
CRONOS_COLD = ((20, 8, 8), (36, 16, 16))
LIGEN_LIGANDS_WARM = (16, 256, 4096)
LIGEN_LIGANDS_COLD = (1024,)
LIGEN_ATOMS = (31, 89)
LIGEN_FRAGMENTS = (4, 20)
MHD_GRID = (12, 24, 16)
CRONOS_STEPS = 4
MHD_STEPS = 4
FREQ_COUNT = 16
REPETITIONS = 3


def _result_key(result) -> str:
    """Every measured value of one sweep, as exact ``repr`` text."""
    rows = [(result.baseline_time_s, result.baseline_energy_j, result.mem_freq_mhz)]
    for s in result.samples:
        rows.append(
            (s.freq_mhz, s.mem_freq_mhz, s.time_s, s.energy_j,
             tuple(s.rep_times_s.tolist()), tuple(s.rep_energies_j.tolist()))
        )
    return repr(rows)


def _flatten(results) -> List[str]:
    out = []
    for item in results:
        for result in item if isinstance(item, list) else [item]:
            out.append(_result_key(result))
    return out


def _batch_counts(counts, args, kwargs, batch) -> None:
    counts["kernels.batch.launches"] += batch.n_launches
    counts["kernels.batch.unique"] += batch.n_unique


class Campaign:
    name = "campaign"
    work_unit = "sweep points"
    PER_LAYER = {
        "campaign.warm_points_per_s": ("1/s", "higher"),
        "campaign.cold_points_per_s": ("1/s", "higher"),
        "synergy.replay.record_s": ("s", "lower"),
        "synergy.replay.record_calls": ("count", "lower"),
        "kernels.batch.dedup_s": ("s", "lower"),
        "kernels.batch.launches": ("count", "lower"),
        "kernels.batch.unique": ("count", "lower"),
        "hw.perf.time_batch_s": ("s", "lower"),
        "hw.perf.time_batch_calls": ("count", "lower"),
        "hw.power.energy_batch_s": ("s", "lower"),
        "hw.power.energy_batch_calls": ("count", "lower"),
        "synergy.replay.measure_s": ("s", "lower"),
        "synergy.replay.measure_calls": ("count", "lower"),
        "runtime.cache.key_s": ("s", "lower"),
        "hw.specs.signature_s": ("s", "lower"),
        "runtime.cache.get_s": ("s", "lower"),
        "runtime.cache.hits": ("count", "higher"),
        "runtime.cache.misses": ("count", "lower"),
        "runtime.cache.bytes_read": ("bytes", "lower"),
        "runtime.cache.put_s": ("s", "lower"),
        "runtime.cache.writes": ("count", "lower"),
        "runtime.cache.bytes_written": ("bytes", "lower"),
        "runtime.engine.tasks": ("count", "lower"),
        "runtime.engine.quarantined": ("count", "lower"),
    }

    def __init__(self, seed: int, workdir) -> None:
        import numpy as np

        from repro.cronos.app import CronosApplication
        from repro.ligen.app import LigenApplication
        from repro.mhd.app import MhdApplication

        rng = np.random.default_rng(seed)
        self.campaign_seed = int(rng.integers(0, 2**31))

        def shuffled(items):
            return [items[i] for i in rng.permutation(len(items))]

        self.cronos_warm = shuffled(
            [CronosApplication.from_size(*g, n_steps=CRONOS_STEPS) for g in CRONOS_WARM]
        )
        self.cronos_cold = shuffled(
            [CronosApplication.from_size(*g, n_steps=CRONOS_STEPS) for g in CRONOS_COLD]
        )

        def ligen(ligands):
            return shuffled(
                [
                    LigenApplication(n_ligands=n, n_atoms=a, n_fragments=f)
                    for n in ligands
                    for a in LIGEN_ATOMS
                    for f in LIGEN_FRAGMENTS
                ]
            )

        self.ligen_warm = ligen(LIGEN_LIGANDS_WARM)
        self.ligen_cold = ligen(LIGEN_LIGANDS_COLD)
        self.mhd = [MhdApplication.from_size(*MHD_GRID, n_steps=MHD_STEPS)]
        self.workdir = workdir
        self.template = workdir / "template-cache"
        self.pass_dir = workdir / "pass-cache"

    # -- set-up ---------------------------------------------------------
    def _devices(self):
        from repro.experiments.datasets import default_training_freqs
        from repro.hw.device import SimulatedGPU
        from repro.hw.specs import make_a100_spec, make_v100_spec
        from repro.synergy.api import SynergyDevice

        out = {}
        for name, spec in (("v100", make_v100_spec()), ("a100", make_a100_spec())):
            device = SynergyDevice(SimulatedGPU(spec), seed=0)
            out[name] = (spec, default_training_freqs(device, FREQ_COUNT))
        return out

    def _engine(self, cache_dir, method="replay"):
        from repro.runtime.cache import ResultCache
        from repro.runtime.engine import CampaignEngine

        cache = None if cache_dir is None else ResultCache(cache_dir)
        return CampaignEngine(
            jobs=1, cache=cache, campaign_seed=self.campaign_seed, method=method
        )

    def _warm(self, engine):
        (v100, fv), (a100, fa) = self.devices["v100"], self.devices["a100"]
        return [
            engine.characterize_many(self.cronos_warm, v100, fv, REPETITIONS),
            engine.characterize_many(self.ligen_warm, v100, fv, REPETITIONS),
            engine.characterize_many(self.mhd, a100, fa, REPETITIONS),
        ]

    def _cold(self, engine):
        (v100, fv), (a100, fa) = self.devices["v100"], self.devices["a100"]
        return [
            engine.characterize_grid(self.mhd, a100, fa, None, REPETITIONS),
            engine.characterize_many(self.cronos_cold, v100, fv, REPETITIONS),
            engine.characterize_many(self.ligen_cold, v100, fv, REPETITIONS),
        ]

    def setup(self) -> None:
        self.devices = self._devices()
        shutil.rmtree(self.template, ignore_errors=True)
        engine = self._engine(self.template)
        self.setup_values = _flatten(r for group in self._warm(engine) for r in group)

    # -- timed pass -----------------------------------------------------
    def prepare(self):
        # Hard links are a safe copy: the cache never rewrites an entry in
        # place (``put`` replaces the path atomically with a new file).
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        shutil.copytree(self.template, self.pass_dir, copy_function=os.link)
        return self._engine(self.pass_dir)

    def run(self, engine) -> PassResult:
        t0 = now()
        warm = self._warm(engine)
        t1 = now()
        warm_stats = dict(
            points=engine.stats.tasks_total,
            misses=engine.stats.cache_misses,
            executed=engine.stats.executed,
        )
        cold = self._cold(engine)
        t2 = now()
        stats, cache = engine.stats, engine.cache.stats
        self.last_warm = _flatten(r for group in warm for r in group)
        cold_values = _flatten(r for group in cold for r in group)
        return PassResult(
            work=stats.tasks_total,
            attempted=stats.tasks_total,
            failed=stats.quarantined,
            # A digest, not the text: every pass is kept until the run ends,
            # and peak RSS must not grow with the number of passes.
            sim={"values": hashlib.sha256(repr(sorted(cold_values)).encode()).hexdigest()},
            counts={
                "tasks": stats.tasks_total,
                "quarantined": stats.quarantined,
                "warm_points": warm_stats["points"],
                "warm_misses": warm_stats["misses"],
                "warm_executed": warm_stats["executed"],
                "hits": cache.hits,
                "misses": cache.misses,
                "writes": cache.writes,
                "bytes_read": cache.bytes_read,
                "bytes_written": cache.bytes_written,
                "launches_recorded": stats.launches_recorded,
                "unique_launches": stats.unique_launches,
            },
            timings={"warm_s": t1 - t0, "cold_s": t2 - t1},
        )

    # -- checks and figures ---------------------------------------------
    def oracle(self, results: List[PassResult]):
        v100, fv = self.devices["v100"]
        counts = results[0].counts
        ref_row = 1 + len(self.devices["a100"][1])
        cold_hits = counts["hits"] - counts["warm_points"]
        serial = self._engine(None, method="serial")
        probes = [self.cronos_warm[0], self.ligen_warm[0]]
        serial_values = _flatten(serial.characterize_many(probes, v100, fv, REPETITIONS))
        replay_values = _flatten(self._engine(None).characterize_many(probes, v100, fv, REPETITIONS))
        yield "warm pass: every point is a cache hit", (
            counts["warm_misses"] == 0 and counts["warm_executed"] == 0
        )
        yield "warm pass: values bitwise equal to what set-up wrote", (
            self.last_warm == self.setup_values
        )
        yield "cold pass: 2-D reference-memory row hits the 1-D entries", (
            cold_hits == ref_row * len(self.mhd)
        )
        yield "serial == replay bitwise on one Cronos and one LiGen input", (
            serial_values == replay_values
            and replay_values
            == [self.setup_values[0], self.setup_values[len(self.cronos_warm)]]
        )
        yield "no point quarantined", all(r.failed == 0 for r in results)

    def figures(self, results: List[PassResult], walls) -> Dict:
        import statistics

        warm = statistics.median(r.counts["warm_points"] / r.timings["warm_s"] for r in results)
        cold = statistics.median(
            (r.work - r.counts["warm_points"]) / r.timings["cold_s"] for r in results
        )
        return {
            "campaign.warm_points_per_s": (warm, "1/s"),
            "campaign.cold_points_per_s": (cold, "1/s"),
        }

    def hooks(self):
        from repro.hw.perf import RooflineTimingModel
        from repro.hw.power import PowerModel
        from repro.hw.specs import DeviceSpec
        from repro.kernels.batch import KernelLaunchBatch
        from repro.runtime import engine
        from repro.runtime.cache import ResultCache

        return [
            Hook(engine, "record_launches", "synergy.replay.record"),
            Hook(KernelLaunchBatch, "from_launches", "kernels.batch.dedup", _batch_counts),
            Hook(RooflineTimingModel, "time_batch", "hw.perf.time_batch"),
            Hook(PowerModel, "energy_batch", "hw.power.energy_batch"),
            Hook(engine, "replay_measure", "synergy.replay.measure"),
            Hook(ResultCache, "key_for", "runtime.cache.key"),
            Hook(DeviceSpec, "signature", "hw.specs.signature"),
            Hook(ResultCache, "get", "runtime.cache.get"),
            Hook(ResultCache, "put", "runtime.cache.put"),
        ]

    def layer_counts(self, tracer, result: PassResult) -> Dict:
        calls, counts, c = tracer.calls, tracer.counts, result.counts
        return {
            "synergy.replay.record_calls": (calls["synergy.replay.record"], "count"),
            "kernels.batch.launches": (counts["kernels.batch.launches"], "count"),
            "kernels.batch.unique": (counts["kernels.batch.unique"], "count"),
            "hw.perf.time_batch_calls": (calls["hw.perf.time_batch"], "count"),
            "hw.power.energy_batch_calls": (calls["hw.power.energy_batch"], "count"),
            "synergy.replay.measure_calls": (calls["synergy.replay.measure"], "count"),
            "runtime.cache.hits": (c["hits"], "count"),
            "runtime.cache.misses": (c["misses"], "count"),
            "runtime.cache.bytes_read": (c["bytes_read"], "bytes"),
            "runtime.cache.writes": (c["writes"], "count"),
            "runtime.cache.bytes_written": (c["bytes_written"], "bytes"),
            "runtime.engine.tasks": (c["tasks"], "count"),
            "runtime.engine.quarantined": (c["quarantined"], "count"),
        }
