"""``serve``: closed-loop advice serving from a registered LiGen model.

Set-up trains a 30-tree LiGen domain model, registers it and resolves an
:class:`~repro.serving.AdvisorService` over a 25-point frequency grid
from the registry, then serves one pass untimed so the advice cache is
in its steady state. Each timed pass drives the same seeded request list
through ``run_load`` from two client threads, closed loop: each client
sends its next request when the previous answer arrives. Requests cycle
three objectives over a pool of feature tuples whose key working set is
about 1.5x the default 2,048-entry advice cache, so hits, misses and
LRU evictions are all live.
"""

from __future__ import annotations

import statistics
import threading
from typing import Dict, List

import numpy

from harness import PassResult, now, percentile
from tracing import Hook

POOL = 1000
REQUESTS = 4500
CLIENTS = 2
TREES = 30
FREQ_POINTS = 25
ORACLE_SAMPLE = 48
MODEL = "ligen-serve"


class _TimedClient:
    """Times each request at the client; failures are counted, not raised."""

    def __init__(self, service) -> None:
        self.service = service
        self.latencies: List[float] = []
        self.failed = 0
        self._lock = threading.Lock()

    def advise(self, features, objective):
        from repro.errors import ReproError

        t0 = now()
        try:
            advice = self.service.advise(features, objective)
        except ReproError:
            advice = None
        elapsed = now() - t0
        with self._lock:
            self.latencies.append(elapsed)
            self.failed += advice is None
        return advice


def _rows(counts, args, kwargs, result) -> None:
    counts["modeling.domain.predict_batch.rows"] += len(args[1])


class Serve:
    name = "serve"
    work_unit = "requests"
    #: Which requests miss, and so how often the model, objective and
    #: cache put run, depends on how the two clients interleave.
    TIMING_DEPENDENT = {
        "serving.cache.put",
        "modeling.domain.predict_batch",
        "modeling.domain.predict_batch.rows",
        "serving.objectives.evaluate",
    }
    PER_LAYER = {
        "serve.latency_p50_us": ("us", "lower"),
        "serve.latency_p99_us": ("us", "lower"),
        "serve.latency_samples": ("count", "higher"),
        "serving.cache.key_s": ("s", "lower"),
        "serving.cache.get_s": ("s", "lower"),
        "serving.cache.put_s": ("s", "lower"),
        "serving.cache.hit_ratio": ("ratio", "higher"),
        "serving.cache.evictions": ("count", "lower"),
        "modeling.domain.predict_batch_s": ("s", "lower"),
        "modeling.domain.predict_batch_calls": ("count", "lower"),
        "modeling.domain.predict_batch_rows": ("count", "lower"),
        "serving.objectives.evaluate_s": ("s", "lower"),
        "serving.objectives.evaluate_calls": ("count", "lower"),
        "serving.service.wait_s": ("s", "lower"),
        "serving.service.batch_size_mean": ("count", "higher"),
        "serving.service.coalesced": ("count", "higher"),
        "serving.registry.resolve_s": ("s", "lower"),
    }

    def __init__(self, seed: int, workdir) -> None:
        import numpy as np

        from repro.serving import Objective

        rng = np.random.default_rng(seed)
        ligands = rng.integers(2, 10001, size=POOL)
        fragments = rng.integers(4, 21, size=POOL)
        atoms = rng.integers(31, 90, size=POOL)
        pool = sorted({(float(l), float(f), float(a)) for l, f, a in zip(ligands, fragments, atoms)})
        objectives = [
            Objective.tradeoff(),
            Objective.min_energy_deadline(100.0),
            Objective.max_speedup_power(500.0),
        ]
        picks = rng.integers(0, len(pool), size=REQUESTS)
        self.requests = [(pool[int(p)], objectives[i % 3]) for i, p in enumerate(picks)]
        self.workdir = workdir
        self.train_seed = int(rng.integers(0, 2**31))

    def setup(self) -> None:
        import shutil

        import numpy as np

        from repro.experiments.datasets import build_ligen_campaign
        from repro.io import save_domain_model
        from repro.ligen.app import LIGEN_FEATURE_NAMES
        from repro.ml import RandomForestRegressor
        from repro.modeling import DomainSpecificModel
        from repro.serving import AdvisorService, ModelRegistry, run_load
        from repro.synergy import Platform

        device = Platform.default(seed=self.train_seed).get_device("v100")
        campaign = build_ligen_campaign(
            device, freq_count=6, repetitions=2, ligand_counts=(2, 256, 10000),
            atom_counts=(31, 89), fragment_counts=(4, 20),
        )
        model = DomainSpecificModel(
            LIGEN_FEATURE_NAMES,
            regressor_factory=lambda: RandomForestRegressor(
                n_estimators=TREES, random_state=self.train_seed % 2**31
            ),
        ).fit(campaign.dataset)
        registry_dir = self.workdir / "registry"
        shutil.rmtree(registry_dir, ignore_errors=True)
        registry = ModelRegistry(registry_dir)
        staged = self.workdir / "model.npz"
        save_domain_model(model, staged)
        registry.register(
            staged, MODEL, app="ligen", device_signature=device.gpu.spec.signature(),
            train_fingerprint=f"perfbench-serve-{self.train_seed}",
        )
        self.freqs = np.linspace(135.0, 1597.0, FREQ_POINTS)
        t0 = now()
        self.service = AdvisorService.from_registry(registry, MODEL, self.freqs)
        self.resolve_s = now() - t0
        # One untimed pass brings the advice cache to its steady state.
        run_load(_TimedClient(self.service), self.requests, workers=CLIENTS)

    def prepare(self):
        return _TimedClient(self.service)

    def run(self, client) -> PassResult:
        from repro.serving import run_load

        stats = self.service.stats
        before = (stats.requests, stats.cache_hits, stats.batches, stats.batch_size_sum,
                  stats.coalesced, self.service.cache.evictions)
        advice = run_load(client, self.requests, workers=CLIENTS)
        after = (stats.requests, stats.cache_hits, stats.batches, stats.batch_size_sum,
                 stats.coalesced, self.service.cache.evictions)
        requests, hits, batches, batched, coalesced, evictions = (
            a - b for a, b in zip(after, before)
        )
        self.last_advice = advice
        return PassResult(
            work=len(advice),
            attempted=len(advice),
            failed=client.failed,
            sim={"advice": hash(tuple(advice))},
            counts={"requests": requests},
            timings={
                # 8 bytes a sample: every pass is kept until the run ends, and
                # peak RSS must not grow with the number of passes.
                "latencies": numpy.array(client.latencies),
                "hit_ratio": hits / requests,
                "batch_size_mean": batched / batches,
                "coalesced": coalesced,
                "evictions": evictions,
            },
        )

    def oracle(self, results: List[PassResult]):
        from repro.ml.forest import reference_mode

        served = {}
        for (features, objective), advice in zip(self.requests, self.last_advice):
            served.setdefault((features, objective), advice)
        sample = list(served.items())[:ORACLE_SAMPLE]
        with reference_mode():
            walked = [
                objective.evaluate(self.service.model.predict_tradeoff(list(f), self.freqs))
                for (f, objective), _ in sample
            ]
        yield "served advice == per-tree reference walk on a sample", (
            walked == [advice for _, advice in sample]
        )
        yield "no request raised", all(r.failed == 0 for r in results)

    def figures(self, results: List[PassResult], walls) -> Dict:
        latencies = numpy.concatenate([r.timings["latencies"] for r in results])
        return {
            "serve.latency_p50_us": (percentile(latencies, 50) * 1e6, "us"),
            "serve.latency_p99_us": (percentile(latencies, 99) * 1e6, "us"),
            "serve.latency_samples": (len(latencies), "count"),
            "serve.hit_ratio": (statistics.median(r.timings["hit_ratio"] for r in results), "ratio"),
            "serve.batch_size_mean": (
                statistics.median(r.timings["batch_size_mean"] for r in results), "count"),
        }

    def hooks(self):
        from repro.modeling.domain import DomainSpecificModel
        from repro.serving import service
        from repro.serving.cache import AdviceKeyMaker, PredictionCache
        from repro.serving.objectives import Objective

        return [
            Hook(service, "quantize_features", "serving.cache.key"),
            Hook(AdviceKeyMaker, "key", "serving.cache.key"),
            Hook(PredictionCache, "get", "serving.cache.get"),
            Hook(PredictionCache, "put", "serving.cache.put"),
            Hook(DomainSpecificModel, "predict_tradeoff_batch", "modeling.domain.predict_batch", _rows),
            Hook(Objective, "evaluate", "serving.objectives.evaluate"),
            Hook(service.AdvisorService, "advise", "serving.service.wait"),
        ]

    def layer_counts(self, tracer, result: PassResult) -> Dict:
        calls, t = tracer.calls, result.timings
        return {
            "serving.cache.hit_ratio": (t["hit_ratio"], "ratio"),
            "serving.cache.evictions": (t["evictions"], "count"),
            "modeling.domain.predict_batch_calls": (calls["modeling.domain.predict_batch"], "count"),
            "modeling.domain.predict_batch_rows": (
                tracer.counts["modeling.domain.predict_batch.rows"], "count"),
            "serving.objectives.evaluate_calls": (calls["serving.objectives.evaluate"], "count"),
            "serving.service.batch_size_mean": (t["batch_size_mean"], "count"),
            "serving.service.coalesced": (t["coalesced"], "count"),
            "serving.registry.resolve_s": (self.resolve_s, "s"),
        }
