"""Deterministic stream management on counter-based Philox generators.

Every random draw in the package flows through a StreamKey: a master seed
plus a lineage tuple naming the consumer (e.g. (seed, ("fv", step, "noise"))).
Keys map to independent Philox streams through a SHA-256 digest, so any
component can be replayed in isolation and adding a consumer never perturbs
the draws of existing ones.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["StreamKey", "stream"]

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
