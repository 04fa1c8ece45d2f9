"""Deterministic seeding for replicated runs.

Every replica of every named experiment gets its own PCG64 generator. The
seed is derived by a fixed integer mix so that results do not depend on
which thread or process happened to execute a replica:

    h    = fnv1a64(utf8(name))                 # 64-bit FNV-1a offset basis
    s0   = splitmix64(master_seed XOR h)
    seed = splitmix64(s0 XOR replica_index)

Replica results are always merged in replica-index order, which makes every
report byte-reproducible from (master seed, experiment name, grid) alone.

A replica's generator is np.random.Generator(np.random.PCG64(seed)). Most
of that constructor's cost is numpy's SeedSequence(seed), which hashes the
seed into the four 64-bit words PCG64 is set from (generate_state(4,
uint64)). replica_generators computes those words for a whole replica
range in one pass of array arithmetic and hands each PCG64 its row through
numpy's public ISeedSequence interface, so every generator starts in the
state PCG64(seed) gives. The pass follows SeedSequence's fixed schedule
(numpy/random/bit_generator.pyx) for an entropy of two 32-bit words, the
seed's low then high half, and a pool of four:

* fill: pool[i] = hashmix(entropy[i]), with 0 as entropy beyond two words;
* mix: for each source word in order, each other word in ascending order
  becomes mix(word, hashmix(source));
* output: word i of eight is hashmix'(pool[i % 4]), and 64-bit word k is
  word 2k as its low half and word 2k + 1 as its high half.

hashmix xors a running constant into its input, advances the constant by
one multiplication and multiplies by it, then xors the result with itself
shifted right by 16; hashmix' does the same from a second constant, and
mix(x, y) is z ^ z >> 16 for z = L*x - R*y. All arithmetic is mod 2**32.
The running constants do not depend on the seed, so they are computed
once. numpy turns a seed
below 2**32 into one entropy word and fills the second from 0, which is
what a zero high half gives, so no seed needs a case of its own.
RngStream.generator() keeps numpy's own PCG64(seed), the reference the
tests hold the range path to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def splitmix64(x):
    """One splitmix64 output step: on a Python int in [0, 2**64), or
    elementwise on a uint64 array, whose arithmetic wraps by itself."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of text."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _mix(master_seed: int, name: str, replicas):
    """The documented seed mix of replicas, a Python int or a uint64 array
    of replica indices."""
    return splitmix64(splitmix64((master_seed & _MASK64) ^ fnv1a64(name))
                      ^ replicas)


def replica_seeds(master_seed: int, name: str, r0: int, r1: int) -> list[int]:
    """The seeds of replicas r0..r1-1, 0 <= r0, as Python ints."""
    return _mix(master_seed, name, np.arange(r0, r1, dtype=np.uint64)).tolist()


def replica_seed(master_seed: int, name: str, replica: int) -> int:
    """The seed of one replica, in Python integers."""
    return _mix(master_seed, name, replica & _MASK64)


def _hashmix_constants(init: int, mult: int, count: int) -> np.ndarray:
    """hashmix's xor and multiply constants for its first count calls, as
    two (count, 1) columns."""
    xors, mults, h = [], [], init
    for _ in range(count):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    return np.array([xors, mults], dtype=np.uint32)[..., None]


# SeedSequence's constants (numpy/random/bit_generator.pyx). The columns
# broadcast over the replica axis, as do the 0-d shifts.
_FILL_X, _FILL_M = _hashmix_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_X, _OUT_M = _hashmix_constants(0x8B51F9DD, 0x58F38DED, 8).reshape(
    2, 2, 4, 1)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT16 = np.array(16, dtype=np.uint32)
_SHIFT32 = np.array(32, dtype=np.uint64)
# The pool lives in a ring of eight rows, row k holding word k % 4, so
# that the three words source s mixes into are the slice s+1 .. s+3, in
# ring order; each gets the constants numpy gives it in ascending word
# order. Before source s >= 2, the ring row the slice ends on is refreshed
# from the row where its word was written last, and one more refresh after
# the last source leaves words 0..3 in rows 4..7.


def _round_constants(s: int) -> tuple[np.ndarray, np.ndarray]:
    ring = [(s + k) % 4 for k in (1, 2, 3)]
    calls = [4 + 3 * s + sorted(ring).index(d) for d in ring]
    return _FILL_X[calls], _FILL_M[calls]


_ROUNDS = [_round_constants(s) for s in range(4)]


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each uint64
    seed, as the rows of an (R, 4) uint64 array (see the module docstring)."""
    ring = np.zeros((8, seeds.size), dtype=np.uint32)
    ring[0] = seeds  # the cast keeps the low half
    ring[1] = seeds >> _SHIFT32
    pool = ring[:4]
    pool ^= _FILL_X[:4]
    pool *= _FILL_M[:4]
    pool ^= pool >> _SHIFT16
    ring[4:7] = ring[:3]
    for s, (x, m) in enumerate(_ROUNDS):
        if s >= 2:
            ring[s + 3] = ring[s - 1]
        h = ring[s] ^ x
        h *= m
        h ^= h >> _SHIFT16
        h *= _MIX_R
        dst = ring[s + 1:s + 4]
        dst *= _MIX_L
        dst -= h
        dst ^= dst >> _SHIFT16
    ring[7] = ring[3]
    out = ring[4:] ^ _OUT_X  # (2, 4, R): output word 4j + k
    out *= _OUT_M
    out ^= out >> _SHIFT16
    # word 2t is the low half of 64-bit word t, whatever the byte order
    words = out[:, 1::2].astype(np.uint64) << _SHIFT32
    words |= out[:, 0::2]
    return words.reshape(4, -1).T.copy()


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words (and
    nothing else: it does not spawn)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
        return self.words


def _generators(seeds: np.ndarray) -> list[np.random.Generator]:
    """np.random.Generator(np.random.PCG64(seed)) for each uint64 seed,
    seeded in one pass."""
    return [np.random.Generator(np.random.PCG64(_StateWords(w)))
            for w in _pcg64_words(seeds)]


def replica_generators(master_seed: int, name: str, r0: int,
                       r1: int) -> list[np.random.Generator]:
    """The generators of replicas r0..r1-1, 0 <= r0, each in the state of
    RngStream(master_seed, name, r).generator(), seeded in one pass."""
    return _generators(_mix(master_seed, name,
                            np.arange(r0, r1, dtype=np.uint64)))


@dataclass(frozen=True)
class RngStream:
    """A deterministic pseudo-random stream for one replica.

    Identical (master_seed, name, replica) triples yield identical output
    sequences on every platform and regardless of thread scheduling; PCG64
    is pinned as the bit generator.
    """

    master_seed: int
    name: str = ""
    replica: int = 0

    @property
    def seed(self) -> int:
        return replica_seed(self.master_seed, self.name, self.replica)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))
