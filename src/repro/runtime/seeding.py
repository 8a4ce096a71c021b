"""Deterministic seed derivation and canonical encoding for campaign tasks.

Parallel sweeps must not consume a shared RNG stream: the order in which
workers finish would then change the noise every point sees, and a
``--jobs 8`` run could never reproduce a ``--jobs 1`` run. Instead every
measurement task derives its own seed from the *campaign seed* plus the
task's identity (application fingerprint + sweep point), hashed through
SHA-256. The derivation depends only on values, never on execution
order, process ids, or wall-clock time — so a campaign is bit-identical
across worker counts, interruptions, and machines.

Seeds, cache keys and on-disk records all hash the *canonical JSON* of
a value (:func:`canonical_json`): sorted keys, no whitespace, floats as
``float.__repr__``, ASCII-escaped strings, no NaN or infinity. The
encoder writes that text in one pass. A part that recurs in many keys —
a device-spec signature or an application fingerprint repeated at every
sweep point — can be encoded once and wrapped in :class:`Encoded`; the
encoder then splices its text in verbatim, so a key costs O(point)
rather than O(device spec), and its bytes are exactly those of encoding
the original value in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, List, Mapping

import numpy as np

__all__ = [
    "Encoded",
    "canonicalize",
    "canonical_json",
    "stable_digest",
    "digest_matches",
    "derive_task_seed",
]

_encode_str = json.encoder.encode_basestring_ascii


class Encoded:
    """A value already in canonical JSON form (see :func:`canonical_json`).

    Build it as ``Encoded(canonical_json(value))``. Wherever it appears
    inside a value, :func:`canonical_json` emits ``text`` unchanged, so
    the result is byte-identical to encoding ``value`` itself there.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"Encoded({self.text!r})"


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON-able types, deterministically.

    Handles dataclasses (by field), mappings (sorted by key), sequences,
    sets (sorted), numpy scalars (including ``np.bool_``) and arrays, and
    :class:`Encoded` fragments (decoded back to plain types). Raises
    :class:`TypeError` for anything else, rather than silently producing
    an unstable repr.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, Encoded):
        return json.loads(value.text)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                raise TypeError(f"cannot canonicalize non-string mapping key {key!r}")
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(v) for v in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} value {value!r}")


def _encode_mapping(value: Mapping[str, Any], out: List[str]) -> None:
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"cannot canonicalize non-string mapping key {key!r}")
    out.append("{")
    first = True
    for key in sorted(value):
        if not first:
            out.append(",")
        first = False
        out.append(_encode_str(key))
        out.append(":")
        _encode(value[key], out)
    out.append("}")


def _encode_seq(items: Any, out: List[str]) -> None:
    out.append("[")
    first = True
    for item in items:
        if not first:
            out.append(",")
        first = False
        _encode(item, out)
    out.append("]")


def _encode(value: Any, out: List[str]) -> None:
    """Append the canonical JSON of ``value`` to ``out``.

    Accepts exactly the types :func:`canonicalize` does and converts
    them the same way, so every value maps to the text ``json.dumps``
    gives its canonical form.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"out of range float value {value!r} is not canonical JSON")
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(repr(int(value)))
    elif isinstance(value, Encoded):
        out.append(value.text)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _encode_mapping(
            {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, out
        )
    elif isinstance(value, Mapping):
        _encode_mapping(value, out)
    elif isinstance(value, np.ndarray):
        _encode_seq(value.tolist(), out)
    elif isinstance(value, (list, tuple)):
        _encode_seq(value, out)
    elif isinstance(value, (set, frozenset)):
        _encode_seq(sorted(canonicalize(v) for v in value), out)
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__} value {value!r}")


def canonical_json(value: Any) -> str:
    """The canonical JSON form of ``value`` (sorted keys, no whitespace).

    Byte-identical to ``json.dumps(canonicalize(value), sort_keys=True,
    separators=(",", ":"), allow_nan=False)``, written in one pass with
    no intermediate tree; :class:`Encoded` parts are spliced in verbatim.
    Non-finite floats raise :class:`ValueError`: a NaN in a cache key
    would compare unequal to itself and silently split the cache. A
    value that is not canonicalizable anywhere raises :class:`TypeError`
    instead, whatever else it holds.
    """
    out: List[str] = []
    try:
        _encode(value, out)
    except ValueError:
        # A TypeError anywhere in the value takes precedence, as it does
        # for the two-step form; canonicalize raises it if there is one.
        canonicalize(value)
        raise
    return "".join(out)


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def digest_matches(value: Any, digest: Any) -> bool:
    """Whether ``digest`` is the :func:`stable_digest` of ``value``.

    For integrity checks on records read back from disk. A value with no
    canonical form — a ``NaN`` or ``Infinity`` token, which ``json.loads``
    accepts but no writer emits — is itself evidence of corruption, so
    it never matches, rather than raising out of the reader.
    """
    try:
        return digest == stable_digest(value)
    except (TypeError, ValueError):
        return False


def derive_task_seed(campaign_seed: int, *key_parts: Any) -> int:
    """A 63-bit seed for one task, from the campaign seed and the task key.

    Different key parts give decorrelated streams; equal inputs always
    give the same seed (unlike :func:`repro.utils.rng.spawn_child`, no
    parent generator state is consumed). A part may be an
    :class:`Encoded` fragment, so a fingerprint shared by many tasks is
    encoded once.
    """
    h = hashlib.sha256()
    h.update(str(int(campaign_seed)).encode("utf-8"))
    for part in key_parts:
        h.update(b"\x1f")
        h.update(canonical_json(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1
