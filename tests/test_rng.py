from __future__ import annotations

import numpy as np
import pytest

from adaptqsd.errors import DomainError
from adaptqsd.rng import StreamKey, stream


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

