"""Fleet-wide frequency advice through the combined SoA forest pool.

One simulated tick may place dozens of jobs. The pre-SoA way to advise
them is one :meth:`~repro.modeling.DomainSpecificModel.predict_tradeoff`
call per job — ``4 x n_estimators`` per-tree Python walks each — which
is exactly what the naive reference engine does (and why it is slow).
The fleet advisor instead routes the distinct feature tuples of a
request through
:meth:`~repro.modeling.DomainSpecificModel.predict_tradeoff_batch` in a
single call — one traversal of the combined four-submodel
:class:`~repro.ml.soa.FlatForest` node pool. A fleet workload draws
jobs from a small set of job types, so the vectorized engine asks once
per run, for every job type of the spec, and gathers each tick's rows
from the resulting tables.

Bit-transparency: profiles are deterministic functions of the feature
tuple and the grid, and ``predict_tradeoff_batch`` is documented (and
property-tested) bit-identical to scalar ``predict_tradeoff``, so
batched advice equals the reference engine's uncached scalar calls
float-for-float.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["FleetAdvisor"]

FeatureKey = Tuple[float, ...]


class FleetAdvisor:
    """Per-job-type trade-off profiles over one fleet frequency grid."""

    def __init__(self, model, freqs_mhz: np.ndarray) -> None:
        self.model = model
        self.freqs_mhz = np.asarray(freqs_mhz, dtype=float)

    def profile(self, features: Sequence[float]):
        """Uncached scalar prediction — the naive reference path.

        Deliberately performs the full per-request model call every
        time, mirroring what a per-GPU object loop built on
        ``AdvisorService.advise`` would pay.
        """
        return self.model.predict_tradeoff(list(features), self.freqs_mhz)

    def profiles(self, features_batch: Sequence[FeatureKey]) -> List:
        """Profiles for a batch of feature tuples in one batched call.

        Returns one :class:`~repro.modeling.domain.TradeoffPrediction`
        per input row (rows may repeat). The distinct tuples are
        predicted together through ``predict_tradeoff_batch`` — a single
        combined-pool SoA traversal however many rows are asked for.
        """
        distinct = list(dict.fromkeys(features_batch))
        fresh = self.model.predict_tradeoff_batch(distinct, self.freqs_mhz)
        by_key = dict(zip(distinct, fresh))
        return [by_key[key] for key in features_batch]
