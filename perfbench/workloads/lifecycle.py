"""``lifecycle``: the closed drift -> retrain -> canary -> promote loop.

Set-up bootstraps v1 of a LiGen advisor into a template registry and
ledger. Each timed pass copies that template to a fresh directory
(untimed) and runs ``run_lifecycle(spec, closed_loop=True)``: 8 epochs x
64 served requests, each measured on a fresh platform, with a 4x work
drift injected at epoch 2 so that one drift event leads to one
retrained candidate, judged by the canary one epoch later and promoted.
The seed draws the spec seed, which sets the request picks,
measurement noise and retraining campaign seeds.
"""

from __future__ import annotations

import shutil
from typing import Dict, List

from harness import PassResult
from tracing import Hook

EPOCHS = 8
REQUESTS_PER_EPOCH = 64
INJECT_EPOCH = 2
WORK_SCALE = 4.0
MODEL = "ligen-advisor"


def _record(seed: int) -> Dict:
    return {
        "format": "repro.lifecycle",
        "schema_version": 1,
        "name": "perfbench-lifecycle",
        "seed": seed,
        "model": {"registry": "registry", "name": MODEL},
        "workload": {
            "app": "ligen",
            "device": "v100",
            "ligand_counts": [2, 256],
            "atom_counts": [31, 89],
            "fragment_counts": [4, 20],
            "freq_count": 6,
            "repetitions": 1,
            "trees": 12,
        },
        "drift": {
            "window": 64,
            "enter_mape": 20.0,
            "exit_mape": 10.0,
            "patience": 1,
            "min_samples": 4,
        },
        "canary": {"shadow_size": 32, "tolerance": 0.0},
        "injection": {"epoch": INJECT_EPOCH, "work_scale": WORK_SCALE},
        "epochs": EPOCHS,
        "requests_per_epoch": REQUESTS_PER_EPOCH,
    }


class Lifecycle:
    name = "lifecycle"
    work_unit = "measured outcomes"
    PER_LAYER = {
        "lifecycle.final_mape_pct": ("%", "lower"),
        "lifecycle.drift_events": ("count", "lower"),
        "lifecycle.promotions": ("count", "lower"),
        "lifecycle.retrain_s": ("s", "lower"),
        "lifecycle.retrain_calls": ("count", "lower"),
        "runtime.engine.characterize_s": ("s", "lower"),
        "modeling.domain.fit_s": ("s", "lower"),
        "serving.registry.register_s": ("s", "lower"),
        "synergy.platform.build_s": ("s", "lower"),
        "synergy.runner.measure_s": ("s", "lower"),
        "serving.service.advise_s": ("s", "lower"),
        "lifecycle.outcome_log.record_s": ("s", "lower"),
        "lifecycle.drift.observe_s": ("s", "lower"),
        "lifecycle.canary.consider_s": ("s", "lower"),
        "lifecycle.ledger.append_s": ("s", "lower"),
        "lifecycle.ledger.appends": ("count", "lower"),
        "lifecycle.ledger.replay_s": ("s", "lower"),
    }

    def __init__(self, seed: int, workdir) -> None:
        import numpy as np

        self.record = _record(int(np.random.default_rng(seed).integers(0, 2**31)))
        self.workdir = workdir
        self.template = workdir / "template"
        self.pass_dir = workdir / "pass"

    def _spec(self, base_dir):
        from repro.specs import LifecycleSpec

        return LifecycleSpec.from_record(self.record, base_dir=str(base_dir))

    def setup(self) -> None:
        from repro.lifecycle import CanaryController
        from repro.lifecycle.loop import build_retrainer, build_workload
        from repro.serving import ModelRegistry

        shutil.rmtree(self.template, ignore_errors=True)
        spec = self._spec(self.template)
        registry = ModelRegistry(self.template / "registry")
        retrainer = build_retrainer(spec, registry)
        manifest = retrainer.retrain(build_workload(spec), generation=0)
        CanaryController(registry, MODEL).record_register(
            manifest, retrainer.train_fingerprint(0)
        )

    def prepare(self):
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        shutil.copytree(self.template, self.pass_dir)
        return self._spec(self.pass_dir)

    def run(self, spec) -> PassResult:
        from repro.lifecycle import run_lifecycle

        result = run_lifecycle(spec, closed_loop=True)
        self.last = result
        outcomes = spec.epochs * spec.requests_per_epoch
        return PassResult(
            work=outcomes,
            attempted=outcomes,
            sim={"final_mape_pct": result.final_rolling_mape},
            counts={
                "drift_events": sum(1 for row in result.epochs if row["event"] == "drift"),
                "promotions": sum(1 for d in result.decisions if d.promoted),
                "final_version": result.final_version,
                "ledger_entries": result.ledger_state["entries"],
            },
        )

    def oracle(self, results: List[PassResult]):
        from repro.errors import LedgerError
        from repro.lifecycle import PromotionLedger

        ledger = PromotionLedger.for_model(self.pass_dir / "registry", MODEL)
        try:
            entries = ledger.entries()
            state = ledger.replay().as_record()
        except LedgerError:
            entries, state = [], None
        yield "ledger hash chain verifies and replays to the loop's state", (
            bool(entries) and state == self.last.ledger_state
        )
        promotes = [e["payload"] for e in entries if e["kind"] == "promote"]
        yield "every promotion had candidate MAPE <= incumbent MAPE", (
            bool(promotes)
            and all(p["candidate_mape"] <= p["incumbent_mape"] for p in promotes)
        )
        yield "one drift event led to one promotion", (
            results[0].counts["drift_events"] == 1 and results[0].counts["promotions"] == 1
        )

    def figures(self, results: List[PassResult], walls) -> Dict:
        return {"lifecycle.final_mape_pct": (results[0].sim["final_mape_pct"], "%")}

    def hooks(self):
        from repro.lifecycle import CanaryController, DriftMonitor, OutcomeLog, PromotionLedger
        from repro.lifecycle.retrain import Retrainer
        from repro.modeling.domain import DomainSpecificModel
        from repro.runtime.engine import CampaignEngine
        from repro.serving import ModelRegistry
        from repro.serving.service import AdvisorService
        from repro.synergy import runner
        from repro.synergy.api import Platform

        return [
            Hook(Retrainer, "retrain", "lifecycle.retrain"),
            Hook(CampaignEngine, "characterize_many", "runtime.engine.characterize"),
            Hook(DomainSpecificModel, "fit", "modeling.domain.fit"),
            Hook(ModelRegistry, "register", "serving.registry.register"),
            Hook(Platform, "default", "synergy.platform.build"),
            Hook(runner, "measure", "synergy.runner.measure"),
            Hook(AdvisorService, "advise", "serving.service.advise"),
            Hook(OutcomeLog, "record", "lifecycle.outcome_log.record"),
            Hook(DriftMonitor, "observe", "lifecycle.drift.observe"),
            Hook(CanaryController, "consider", "lifecycle.canary.consider"),
            Hook(PromotionLedger, "append", "lifecycle.ledger.append"),
            Hook(PromotionLedger, "replay", "lifecycle.ledger.replay"),
        ]

    def layer_counts(self, tracer, result: PassResult) -> Dict:
        return {
            "lifecycle.retrain_calls": (tracer.calls["lifecycle.retrain"], "count"),
            "lifecycle.ledger.appends": (tracer.calls["lifecycle.ledger.append"], "count"),
            "lifecycle.drift_events": (result.counts["drift_events"], "count"),
            "lifecycle.promotions": (result.counts["promotions"], "count"),
        }
