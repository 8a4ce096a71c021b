"""Property-based tests for the one-pass canonical JSON encoder.

Every seed, cache key and on-disk record in the repository hashes
``canonical_json`` text, so its bytes are a compatibility contract: they
must equal the two-step form ``json.dumps(canonicalize(v), ...)`` that
wrote every existing cache, for every input, and fail with the same
exception type where that form fails. The two-step form is kept here,
in the test, as the reference.
"""

import dataclasses
import json
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.runtime.seeding import Encoded, canonical_json, canonicalize


def reference_json(value: Any) -> str:
    """The two-step encoder every cache before the one-pass one used."""
    return json.dumps(
        canonicalize(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def outcome(encode, value):
    """The encoded text, or the type of the error encoding raised."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@dataclasses.dataclass
class Pair:
    left: Any
    right: Any


texts = st.text(
    alphabet=st.characters(blacklist_categories=()), max_size=8
) | st.sampled_from(["", "ascii", "Grüße", "日本語", " ", "\ud800", '"\\\n\t'])
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1e300, 5e-324])
ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    st.booleans().map(np.bool_),
)
hashable_scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
scalars = st.one_of(hashable_scalars, numpy_scalars)
numpy_arrays = arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int32, np.bool_]),
    shape=array_shapes(min_dims=0, max_dims=2, max_side=3),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.sets(hashable_scalars, max_size=4),
        st.frozensets(st.integers() | texts, max_size=4),
        st.builds(Pair, children, children),
    )


values = st.recursive(st.one_of(scalars, numpy_arrays), containers, max_leaves=20)

#: Values the reference rejects with TypeError, mixed into the trees.
rejected = st.one_of(
    st.just(object()),
    st.dictionaries(st.integers(), scalars, min_size=1, max_size=2),
    st.just(Pair),
)
values_with_rejects = st.recursive(
    st.one_of(scalars, numpy_arrays, rejected), containers, max_leaves=12
)


def fragmentize(value, rnd):
    """``value`` with random encodable subtrees replaced by ``Encoded``."""
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        value = {k: fragmentize(v, rnd) for k, v in value.items()}
    elif isinstance(value, list):
        value = [fragmentize(v, rnd) for v in value]
    elif isinstance(value, tuple):
        value = tuple(fragmentize(v, rnd) for v in value)
    elif isinstance(value, Pair):
        value = Pair(fragmentize(value.left, rnd), fragmentize(value.right, rnd))
    if rnd.random() < 0.3:
        try:
            return Encoded(canonical_json(value))
        except (TypeError, ValueError):
            pass
    return value


@given(values)
@settings(max_examples=400, deadline=None)
def test_encoder_matches_two_step_reference(value):
    assert outcome(canonical_json, value) == outcome(reference_json, value)


@given(values_with_rejects)
@settings(max_examples=200, deadline=None)
def test_error_types_match_reference(value):
    assert outcome(canonical_json, value) == outcome(reference_json, value)


@given(values, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_encoded_fragments_splice_to_reference_bytes(value, rnd):
    assert outcome(canonical_json, fragmentize(value, rnd)) == outcome(reference_json, value)
