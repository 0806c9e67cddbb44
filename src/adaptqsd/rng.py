"""Deterministic stream management on counter-based Philox generators.

Every random draw in the package flows through a StreamKey: a master seed
plus a lineage tuple naming the consumer (e.g. (seed, ("fv", step, "noise"))).
Keys map to independent Philox streams through a SHA-256 digest, so any
component can be replayed in isolation and adding a consumer never perturbs
the draws of existing ones.

stream(key) builds a fresh generator at the start of key's stream. A caller
that opens one stream after another, such as the window driver, which opens
a stream per window, can instead rewind a generator it already holds:
rewind(gen, key) resets gen's Philox counter, key and buffered output to
exactly the state a fresh stream(key) starts in, so it draws exactly what
stream(key) draws, without building a new bit generator.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["StreamKey", "stream", "rewind"]

Lineage = tuple[int | str, ...]


@dataclass(frozen=True)
class StreamKey:
    """Master seed plus a lineage path naming one logical random stream."""

    seed: int
    lineage: Lineage = field(default_factory=tuple)

    def __post_init__(self):
        for part in self.lineage:
            if not isinstance(part, (int, str)):
                raise DomainError("lineage entries must be ints or strings")
            if isinstance(part, str):
                # "/" separates parts in the digest; inside a part it would let
                # ("a/sb",) and ("a", "b") share one stream
                if "/" in part:
                    raise DomainError("lineage strings must not contain '/'")
                try:
                    part.encode()  # the digest hashes UTF-8; lone surrogates have none
                except UnicodeEncodeError as exc:
                    raise DomainError("lineage strings must be encodable as UTF-8") from exc

    def child(self, *parts: int | str) -> "StreamKey":
        return StreamKey(self.seed, self.lineage + tuple(parts))


def _digest_key(key: StreamKey) -> int:
    h = hashlib.sha256()
    h.update(str(int(key.seed)).encode())
    for part in key.lineage:
        h.update(b"/")
        h.update(("i" + str(part) if isinstance(part, int) else "s" + part).encode())
    return int.from_bytes(h.digest()[:16], "little")


def stream(key: StreamKey) -> np.random.Generator:
    """Fresh generator for this key; same key always yields the same stream."""
    return np.random.Generator(np.random.Philox(key=_digest_key(key)))


_WORDS = 2**64 - 1
_ZEROS = (0, 0, 0, 0)


def rewind(gen: np.random.Generator | None, key: StreamKey) -> np.random.Generator:
    """gen, a generator made by stream, reset to the start of key's stream
    (stream(key) itself when gen is None): its draws are exactly those of a
    fresh stream(key)."""
    if gen is None:
        return stream(key)
    k = _digest_key(key)
    # a fresh Philox(key=k): counter 0, key k in two 64-bit words, low first,
    # no buffered output and no buffered 32-bit half
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZEROS, "key": (k & _WORDS, k >> 64)},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
                               "uinteger": 0}
    return gen
