"""Deterministic keyed random streams.

Every stochastic quantity in the package is drawn from a counter-based
generator (Philox) keyed by ``(master_seed, *tokens)``. A stream depends only
on its key, never on call order, worker count or platform, which is what makes
wafer builds, noisy writes and measurement noise reproducible and mergeable.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORD = (1 << 64) - 1  # a Philox key is two 64-bit words, low word first


def stream_key(master_seed: int, *tokens) -> int:
    """128-bit Philox key derived from the seed and an arbitrary token path."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(master_seed)).encode())
    for t in tokens:
        h.update(b"\x1f")
        h.update(str(t).encode())
    return int.from_bytes(h.digest(), "little")


def stream(master_seed: int, *tokens) -> np.random.Generator:
    """Independent generator for the given token path."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *tokens)))


def stream_normals(master_seed: int, token_paths, n: int) -> np.ndarray:
    """Standard normals with one row per token path: row i is
    ``stream(master_seed, *token_paths[i]).standard_normal(n)``.

    One bit generator draws every row. Setting its key and zeroing its
    counter takes about a microsecond; building a Philox takes about 20,
    most of it a seed sequence drawn from OS entropy and then discarded.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # as built: counter 0, nothing buffered
    token_paths = list(token_paths)
    out = np.empty((len(token_paths), n))
    for row, tokens in zip(out, token_paths):
        key = stream_key(master_seed, *tokens)
        state["state"]["key"] = np.array([key & _WORD, key >> 64], dtype=np.uint64)
        bitgen.state = state
        gen.standard_normal(out=row)
    return out
