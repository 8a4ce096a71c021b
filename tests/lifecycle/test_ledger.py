"""Unit tests for the hash-chained promotion ledger."""

import json

import pytest

from repro.errors import LedgerError
from repro.lifecycle import LEDGER_KINDS, PromotionLedger


@pytest.fixture
def ledger(tmp_path):
    return PromotionLedger(tmp_path / "LEDGER.jsonl")


def _seed(ledger: PromotionLedger) -> None:
    ledger.append("register", {"name": "adv", "version": 1})
    ledger.append("register", {"name": "adv", "version": 2})
    ledger.append(
        "promote",
        {"name": "adv", "from_version": 1, "to_version": 2,
         "incumbent_mape": 9.0, "candidate_mape": 4.0, "shadow_size": 16},
    )


class TestAppend:
    def test_missing_ledger_reads_empty(self, ledger):
        assert ledger.entries() == []
        assert not ledger.path.exists()

    def test_entries_round_trip(self, ledger):
        _seed(ledger)
        entries = ledger.entries()
        assert [e["kind"] for e in entries] == ["register", "register", "promote"]
        assert [e["seq"] for e in entries] == [0, 1, 2]
        assert entries[0]["prev"] is None
        assert entries[1]["prev"] == entries[0]["digest"]
        assert entries[2]["prev"] == entries[1]["digest"]

    def test_unknown_kind_rejected(self, ledger):
        with pytest.raises(LedgerError, match="unknown ledger entry kind"):
            ledger.append("deploy", {})
        assert "deploy" not in LEDGER_KINDS

    def test_for_model_convention(self, tmp_path):
        led = PromotionLedger.for_model(tmp_path / "reg", "adv")
        assert led.path == tmp_path / "reg" / "adv" / "LEDGER.jsonl"

    def test_append_refuses_to_extend_corrupt_ledger(self, ledger):
        _seed(ledger)
        text = ledger.path.read_text()
        ledger.path.write_text(text.replace('"to_version":2', '"to_version":3'))
        with pytest.raises(LedgerError):
            ledger.append("register", {"name": "adv", "version": 3})


class TestTamperDetection:
    def test_edited_payload_breaks_digest_with_location(self, ledger):
        _seed(ledger)
        lines = ledger.path.read_text().splitlines()
        lines[1] = lines[1].replace('"version":2', '"version":7')
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match=r"LEDGER\.jsonl:2.*digest mismatch"):
            ledger.entries()

    def test_non_finite_token_breaks_digest(self, ledger):
        # json.loads accepts Infinity; it must read as tampering, not
        # crash the digest check with a raw ValueError.
        _seed(ledger)
        text = ledger.path.read_text()
        ledger.path.write_text(text.replace('"candidate_mape":4.0', '"candidate_mape":Infinity'))
        assert ledger.path.read_text() != text
        with pytest.raises(LedgerError, match=r"LEDGER\.jsonl:3.*digest mismatch"):
            ledger.entries()

    def test_dropped_line_breaks_chain(self, ledger):
        _seed(ledger)
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(LedgerError, match="seq.*out of order"):
            ledger.entries()

    def test_reordered_lines_break_chain(self, ledger):
        _seed(ledger)
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n")
        with pytest.raises(LedgerError):
            ledger.entries()

    def test_torn_final_line_rejected(self, ledger):
        _seed(ledger)
        text = ledger.path.read_text()
        ledger.path.write_text(text[:-20])
        with pytest.raises(LedgerError, match="not valid JSON"):
            ledger.entries()

    def test_foreign_json_rejected(self, ledger):
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(json.dumps({"hello": "world"}) + "\n")
        with pytest.raises(LedgerError, match="not a lifecycle-ledger entry"):
            ledger.entries()

    def test_future_schema_version_rejected(self, ledger):
        _seed(ledger)
        entry = json.loads(ledger.path.read_text().splitlines()[0])
        entry["schema_version"] = 99
        ledger.path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(LedgerError, match="schema_version"):
            ledger.entries()

    def test_blank_lines_are_tolerated(self, ledger):
        _seed(ledger)
        ledger.path.write_text(ledger.path.read_text().replace("\n", "\n\n"))
        assert len(ledger.entries()) == 3


class TestReplay:
    def test_empty_ledger_replays_to_no_state(self, ledger):
        state = ledger.replay()
        assert state.active_version is None
        assert state.previous_version is None
        assert state.quarantined == ()
        assert state.entries == 0

    def test_first_register_sets_active(self, ledger):
        ledger.append("register", {"name": "adv", "version": 1})
        ledger.append("register", {"name": "adv", "version": 2})
        state = ledger.replay()
        assert state.active_version == 1  # later registers don't move it
        assert state.entries == 2

    def test_promote_tracks_previous(self, ledger):
        _seed(ledger)
        state = ledger.replay()
        assert state.active_version == 2
        assert state.previous_version == 1

    def test_rollback_restores_and_clears_previous(self, ledger):
        _seed(ledger)
        ledger.append(
            "rollback",
            {"name": "adv", "from_version": 2, "to_version": 1,
             "incumbent_mape": None, "candidate_mape": None,
             "shadow_size": 0, "reason": "manual"},
        )
        state = ledger.replay()
        assert state.active_version == 1
        assert state.previous_version is None

    def test_quarantine_accumulates_sorted(self, ledger):
        ledger.append("register", {"name": "adv", "version": 1})
        ledger.append("quarantine", {"name": "adv", "version": 3, "reason": "x"})
        ledger.append("quarantine", {"name": "adv", "version": 2, "reason": "y"})
        assert ledger.replay().quarantined == (2, 3)

    def test_drift_entries_do_not_move_pointers(self, ledger):
        ledger.append("register", {"name": "adv", "version": 1})
        ledger.append(
            "drift", {"kind": "drift", "mape": 30.0, "threshold": 20.0, "observation": 5}
        )
        assert ledger.replay().active_version == 1

    def test_malformed_payload_version_is_typed_error(self, ledger):
        ledger.append("register", {"name": "adv"})  # no version field
        with pytest.raises(LedgerError, match="missing or malformed"):
            ledger.replay()

    def test_replay_is_pure_function_of_bytes(self, ledger, tmp_path):
        _seed(ledger)
        copy = PromotionLedger(tmp_path / "copy.jsonl")
        copy.path.write_bytes(ledger.path.read_bytes())
        assert copy.replay() == ledger.replay()
        assert copy.replay().as_record() == ledger.replay().as_record()
