"""Unit tests for deterministic task-seed derivation."""

import numpy as np
import pytest

from repro.runtime.seeding import (
    Encoded,
    canonical_json,
    canonicalize,
    derive_task_seed,
    digest_matches,
    stable_digest,
)


class TestCanonicalize:
    def test_plain_scalars_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize("x") == "x"
        assert canonicalize(3) == 3
        assert canonicalize(1.5) == 1.5

    def test_numpy_scalars_and_arrays(self):
        assert canonicalize(np.float64(2.5)) == 2.5
        assert canonicalize(np.int32(7)) == 7
        assert canonicalize(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_numpy_bool_maps_to_bool(self):
        assert canonicalize(np.True_) is True
        assert canonicalize(np.False_) is False
        assert canonical_json({"on": np.True_}) == canonical_json({"on": True})

    def test_mapping_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_dataclass_by_field(self):
        from repro.ligen.docking import DockingParams

        payload = canonicalize(DockingParams.production())
        assert payload["num_restart"] == 32

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_non_finite_float_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_type_error_wins_over_non_finite(self):
        # As in the canonicalize-then-dump form: any unencodable type
        # anywhere raises TypeError, even after a NaN earlier on.
        with pytest.raises(TypeError):
            canonical_json([float("nan"), object()])


class TestEncoded:
    def test_fragment_spliced_verbatim(self):
        inner = {"b": [1, 2.5], "a": "x"}
        fragment = Encoded(canonical_json(inner))
        assert canonical_json({"k": fragment, "j": 1}) == canonical_json({"k": inner, "j": 1})
        assert canonical_json(fragment) == canonical_json(inner)

    def test_fragment_decodes_for_canonicalize(self):
        assert canonicalize(Encoded('{"a":[1,2.5]}')) == {"a": [1, 2.5]}

    def test_seed_and_digest_accept_fragments(self):
        fp = {"type": "toy", "config": {"n": 3}}
        assert derive_task_seed(5, Encoded(canonical_json(fp)), 135.0) == derive_task_seed(
            5, fp, 135.0
        )
        assert stable_digest(Encoded(canonical_json(fp))) == stable_digest(fp)


class TestDigestAndSeed:
    def test_digest_stable_across_calls(self):
        payload = {"device": "v100", "freq": 1282.1}
        assert stable_digest(payload) == stable_digest(dict(payload))

    def test_digest_changes_with_content(self):
        assert stable_digest({"freq": 1282.1}) != stable_digest({"freq": 1282.2})

    def test_seed_deterministic_and_distinct(self):
        a = derive_task_seed(42, {"app": "x"}, 135.0)
        b = derive_task_seed(42, {"app": "x"}, 135.0)
        c = derive_task_seed(42, {"app": "x"}, 142.5)
        d = derive_task_seed(43, {"app": "x"}, 135.0)
        assert a == b
        assert len({a, c, d}) == 3

    def test_digest_matches_rejects_uncanonical_values(self):
        value = {"time_s": 1.5}
        assert digest_matches(value, stable_digest(value))
        assert not digest_matches({"time_s": 2.0}, stable_digest(value))
        assert not digest_matches({"time_s": float("nan")}, stable_digest(value))
        assert not digest_matches({1: 2}, stable_digest(value))

    def test_seed_golden_pins(self):
        """Seeds pinned from the two-step encoder: reruns reproduce old noise."""
        assert derive_task_seed(7, "lifecycle-outcome", 3, 11) == 2294867011541769197
        from repro.cronos.app import CronosApplication
        from repro.runtime.engine import app_fingerprint

        fp = app_fingerprint(CronosApplication.from_size(16, 8, 8, n_steps=4))
        assert derive_task_seed(1234, fp, "baseline") == 7988596864364970479

    def test_seed_is_valid_numpy_seed(self):
        seed = derive_task_seed(0, "p")
        assert 0 <= seed < 2**63
        np.random.default_rng(seed)  # must not raise
