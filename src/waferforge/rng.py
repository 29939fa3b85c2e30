"""Deterministic keyed random streams.

Every stochastic quantity in the package is drawn from a counter-based
generator (Philox) keyed by ``(master_seed, *tokens)``. A stream depends only
on its key, never on call order, worker count or platform, which is what makes
wafer builds, noisy writes and measurement noise reproducible and mergeable.
"""

from __future__ import annotations

import hashlib
import threading

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


class Rekeyed:
    """One Philox bit generator re-keyed per token path.

    ``keyed.stream(master_seed, *tokens)`` returns a generator that draws
    exactly what ``stream(master_seed, *tokens)`` draws, and stays valid
    until the next ``stream`` call re-keys it. Setting the key and zeroing
    the counter and buffer takes about a microsecond; building a Philox
    takes about 20, most of it a seed sequence drawn from OS entropy and
    then discarded. The Philox is built on the first ``stream`` call, so a
    caller that draws nothing (a wafer without memory faults) never builds
    it or imports ``numpy.random``. Not for use from several threads at once.
    """

    def __init__(self):
        self._bitgen = None

    def stream(self, master_seed: int, *tokens) -> np.random.Generator:
        if self._bitgen is None:
            self._bitgen = np.random.Philox(key=0)
            self._gen = np.random.Generator(self._bitgen)
            # as built: counter 0, nothing buffered; held as lists of ints,
            # which the state setter reads faster than uint64 arrays
            state = self._bitgen.state
            self._state = {**state, "buffer": state["buffer"].tolist(),
                           "state": {k: v.tolist() for k, v in state["state"].items()}}
        key = stream_key(master_seed, *tokens)
        self._state["state"]["key"] = [key & _WORD, key >> 64]
        self._bitgen.state = self._state
        return self._gen


# one Rekeyed per thread, built on a thread's first keyed draw (a forked
# child takes its parent's, which re-keying resets like a new one)
_local = threading.local()


def _keyed() -> Rekeyed:
    keyed = getattr(_local, "keyed", None)
    if keyed is None:
        keyed = _local.keyed = Rekeyed()
    return keyed


def stream_normals(master_seed: int, token_paths, n: int) -> np.ndarray:
    """Standard normals with one row per token path: row i is
    ``stream(master_seed, *token_paths[i]).standard_normal(n)``, drawn by
    the calling thread's ``Rekeyed`` generator."""
    keyed = _keyed()
    token_paths = list(token_paths)
    out = np.empty((len(token_paths), n))
    for row, tokens in zip(out, token_paths):
        keyed.stream(master_seed, *tokens).standard_normal(out=row)
    return out


def stream_words(master_seed: int, token_paths, n: int) -> np.ndarray:
    """Raw 64-bit Philox words with one row per token path: row i is
    ``stream(master_seed, *token_paths[i]).bit_generator.random_raw(n)``,
    drawn by the calling thread's ``Rekeyed`` generator."""
    keyed = _keyed()
    token_paths = list(token_paths)
    out = np.empty((len(token_paths), n), dtype=np.uint64)
    for row, tokens in zip(out, token_paths):
        row[:] = keyed.stream(master_seed, *tokens).bit_generator.random_raw(n)
    return out
