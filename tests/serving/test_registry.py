"""Unit tests for the versioned, digest-validated model registry."""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ArtifactError, ModelIntegrityError, RegistryError
from repro.serving import REGISTRY_SCHEMA_VERSION, ModelRegistry

from .conftest import SERVE_FREQS


class TestRegister:
    def test_first_version_is_v1(self, registry):
        manifest = registry.manifest("toy")
        assert manifest.version == 1
        assert manifest.ref == "toy:v1"
        assert manifest.app == "synthetic"

    def test_versions_auto_increment(self, registry, model_file):
        second = registry.register(model_file, "toy", app="synthetic")
        assert second.version == 2
        assert [m.ref for m in registry.list()] == ["toy:v1", "toy:v2"]

    def test_manifest_records_model_metadata(self, registry, fitted_model, model_file):
        manifest = registry.manifest("toy")
        assert manifest.feature_names == fitted_model.feature_names
        assert manifest.baseline_freq_mhz == fitted_model.baseline_freq_mhz
        data = model_file.read_bytes()
        assert manifest.artifact_sha256 == hashlib.sha256(data).hexdigest()
        assert manifest.artifact_bytes == len(data)

    def test_device_signature_and_fingerprint_recorded(self, registry, model_file):
        manifest = registry.register(
            model_file,
            "toy",
            device_signature={"name": "V100", "sm_count": 80},
            train_fingerprint="campaign-xyz",
        )
        assert manifest.device_signature_digest is not None
        assert manifest.train_fingerprint == "campaign-xyz"

    def test_invalid_name_rejected(self, registry, model_file):
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.register(model_file, "../escape")

    def test_missing_artifact_rejected(self, registry, tmp_path):
        with pytest.raises(RegistryError, match="cannot read"):
            registry.register(tmp_path / "nope.npz", "ghost")

    def test_junk_artifact_never_enters_registry(self, registry, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an npz at all")
        with pytest.raises(ArtifactError):
            registry.register(junk, "junk")
        assert all(m.name != "junk" for m in registry.list())


class TestResolve:
    def test_resolved_model_predicts_identically(self, registry, fitted_model):
        model, manifest = registry.resolve("toy")
        assert manifest.ref == "toy:v1"
        want = fitted_model.predict_tradeoff([4.0], SERVE_FREQS)
        got = model.predict_tradeoff([4.0], SERVE_FREQS)
        assert np.array_equal(want.speedups, got.speedups)
        assert np.array_equal(want.normalized_energies, got.normalized_energies)

    def test_unknown_name(self, registry):
        with pytest.raises(RegistryError, match="unknown model"):
            registry.resolve("missing")

    def test_unknown_name_error_names_the_searched_path(self, registry):
        """Zero registered versions: the typed error must say where it
        looked, so a wrong --root is diagnosable from the message alone."""
        with pytest.raises(RegistryError) as excinfo:
            registry.resolve("missing")
        message = str(excinfo.value)
        assert "no versions registered" in message
        assert str(registry.root / "missing") in message
        assert str(registry.root) in message

    def test_unknown_name_manifest_same_typed_error(self, registry):
        with pytest.raises(RegistryError, match="no versions registered"):
            registry.manifest("missing")

    def test_malformed_name_typed_error_on_resolve(self, registry):
        """The read path rejects traversal-style names before touching
        the filesystem — same typed error as the write path."""
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.resolve("../escape")

    def test_unknown_version(self, registry):
        with pytest.raises(RegistryError, match="no version v9"):
            registry.resolve("toy", 9)

    def test_default_is_latest(self, registry, model_file):
        registry.register(model_file, "toy")
        _, manifest = registry.resolve("toy")
        assert manifest.version == 2


class TestIntegrity:
    def _flip_byte(self, path, offset=100):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_flipped_artifact_byte_refused(self, registry):
        self._flip_byte(registry.artifact_path("toy", 1))
        with pytest.raises(ModelIntegrityError, match="digest mismatch"):
            registry.resolve("toy")

    def test_flipped_byte_anywhere_detected(self, registry):
        artifact = registry.artifact_path("toy", 1)
        for offset in (0, len(artifact.read_bytes()) - 1):
            original = artifact.read_bytes()
            self._flip_byte(artifact, offset)
            with pytest.raises(ModelIntegrityError):
                registry.resolve("toy")
            artifact.write_bytes(original)  # restore for the next offset
        registry.resolve("toy")  # pristine bytes serve again

    def test_verify_reports_tampering(self, registry):
        assert [r.ok for r in registry.verify()] == [True]
        self._flip_byte(registry.artifact_path("toy", 1))
        reports = registry.verify()
        assert len(reports) == 1
        assert not reports[0].ok
        assert "digest mismatch" in reports[0].error

    def test_verify_scopes_to_name_and_version(self, registry, model_file):
        registry.register(model_file, "toy")
        assert len(registry.verify()) == 2
        assert len(registry.verify(name="toy", version=1)) == 1

    def test_tampered_manifest_detected(self, registry):
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["manifest"]["app"] = "evil"
        path.write_text(json.dumps(record))
        with pytest.raises(ModelIntegrityError, match="manifest digest"):
            registry.resolve("toy")

    def test_non_finite_manifest_token_is_integrity_error(self, registry):
        # json.loads accepts NaN; it must read as tampering, not crash
        # the digest check with a raw ValueError.
        path = registry.manifest_path("toy", 1)
        text = path.read_text()
        path.write_text(text.replace('"baseline_freq_mhz":1282.0', '"baseline_freq_mhz":NaN'))
        assert path.read_text() != text
        with pytest.raises(ModelIntegrityError, match="manifest digest"):
            registry.resolve("toy")

    def test_future_schema_rejected(self, registry):
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["schema_version"] = REGISTRY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        with pytest.raises(RegistryError, match="schema"):
            registry.resolve("toy")

    def test_legacy_schema_key_accepted(self, registry):
        # Manifests written before the envelope converged on
        # 'schema_version' used 'schema'; they still load.
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["schema"] = record.pop("schema_version")
        path.write_text(json.dumps(record))
        model, manifest = registry.resolve("toy")
        assert manifest.name == "toy"

    def test_manifest_identity_cross_check(self, registry, tmp_path):
        # A manifest copied under the wrong version directory is rejected
        # even though its self-digest is intact.
        registry.register(registry.artifact_path("toy", 1), "toy")
        v1 = registry.manifest_path("toy", 1)
        v2 = registry.manifest_path("toy", 2)
        v2.write_text(v1.read_text())
        with pytest.raises(ModelIntegrityError, match="identifies itself"):
            registry.resolve("toy", 2)


class TestListing:
    def test_empty_registry(self, tmp_path):
        reg = ModelRegistry(tmp_path / "nowhere")
        assert reg.list() == []
        assert reg.verify() == []

    def test_list_sorted_by_name_and_version(self, registry, model_file):
        registry.register(model_file, "alpha")
        registry.register(model_file, "toy")
        assert [m.ref for m in registry.list()] == ["alpha:v1", "toy:v1", "toy:v2"]
