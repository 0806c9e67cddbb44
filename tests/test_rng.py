from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptqsd.errors import DomainError
from adaptqsd.rng import StreamKey, _digest_key, rewind, stream

_PARTS = st.one_of(st.integers(-10**6, 10**6), st.text(st.characters(codec="utf-8",
                                                                   exclude_characters="/"),
                                                      max_size=6))
_LINEAGES = st.lists(_PARTS, max_size=4).map(tuple)


def test_same_key_same_stream():
    key = StreamKey(seed=42, lineage=("fv", 3, "window"))
    a = stream(key).random(64)
    b = stream(key).random(64)
    np.testing.assert_array_equal(a, b)


def test_sibling_streams_differ():
    root = StreamKey(seed=42)
    a = stream(root.child("a")).random(1000)
    b = stream(root.child("b")).random(1000)
    assert not np.array_equal(a, b)
    # no obvious correlation either
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_int_and_string_lineage_parts_are_distinct():
    root = StreamKey(seed=0)
    a = stream(root.child(1)).random(8)
    b = stream(root.child("1")).random(8)
    assert not np.array_equal(a, b)


def test_child_extends_lineage():
    key = StreamKey(seed=7, lineage=("x",))
    assert key.child(2, "y").lineage == ("x", 2, "y")
    assert key.child(2).seed == 7


def test_lineage_rejects_non_scalar_parts():
    with pytest.raises(DomainError):
        StreamKey(seed=0, lineage=((1, 2),))


def test_seed_separates_streams():
    a = stream(StreamKey(seed=1, lineage=("w",))).random(16)
    b = stream(StreamKey(seed=2, lineage=("w",))).random(16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("spliced, parts", [(("a/sb",), ("a", "b")), (("x/i3",), ("x", 3))])
def test_lineage_rejects_separator_in_strings(spliced, parts):
    # a spliced lineage would digest to the same bytes as its split form
    with pytest.raises(DomainError):
        StreamKey(seed=0, lineage=spliced)
    with pytest.raises(DomainError):
        StreamKey(seed=0).child(*spliced)
    assert StreamKey(seed=0, lineage=parts).lineage == parts


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), a=_LINEAGES, b=_LINEAGES)
def test_distinct_lineages_have_distinct_digests(seed, a, b):
    ka, kb = StreamKey(seed, a), StreamKey(seed, b)
    assert (_digest_key(ka) == _digest_key(kb)) == (ka == kb)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), lineage=_LINEAGES, part=_PARTS)
def test_stream_is_a_function_of_the_key_and_children_differ(seed, lineage, part):
    key = StreamKey(seed, lineage)
    draws = stream(key).random(8)
    np.testing.assert_array_equal(draws, stream(StreamKey(seed, tuple(lineage))).random(8))
    assert not np.array_equal(draws, stream(key.child(part)).random(8))


def test_lineage_string_must_encode_as_utf8():
    # the digest hashes UTF-8 bytes; a lone surrogate must fail at construction
    with pytest.raises(DomainError):
        StreamKey(seed=1, lineage=("a", "\ud800"))
    with pytest.raises(DomainError):
        StreamKey(seed=1).child("x\udfff")
    stream(StreamKey(seed=1, lineage=("\u00e9t\u00e9", "\U0001f600")))


def test_rewind_draws_what_a_fresh_stream_draws():
    """A used generator, rewound to a key, draws exactly what stream(key)
    draws, whatever it had buffered: integers(0, 7, 3) leaves a 32-bit half
    of its last 64-bit output buffered."""
    gen = stream(StreamKey(seed=3, lineage=("old",)))
    gen.standard_normal(5)
    gen.random(3)
    gen.poisson(2.5, 4)
    gen.integers(0, 7, 3)
    assert gen.bit_generator.state["has_uint32"] == 1
    key = StreamKey(seed=4, lineage=("w", 9))
    fresh = stream(key)
    assert rewind(gen, key) is gen
    for draw in (lambda g: g.integers(0, 7, 3), lambda g: g.standard_normal(7),
                 lambda g: g.random(5), lambda g: g.poisson(np.array([0.5, 3.0, 40.0])),
                 lambda g: g.integers(0, 2**40, 2)):
        np.testing.assert_array_equal(draw(gen), draw(fresh))
    # a None generator gets a fresh stream
    np.testing.assert_array_equal(rewind(None, key).random(4), stream(key).random(4))
