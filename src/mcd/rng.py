"""Deterministic seeding for replicated runs.

Every replica of every named experiment gets its own PCG64 generator. The
seed is derived by a fixed integer mix so that results do not depend on
which thread or process happened to execute a replica:

    h    = fnv1a64(utf8(name))                 # 64-bit FNV-1a offset basis
    s0   = splitmix64(master_seed XOR h)
    seed = splitmix64(s0 XOR replica_index)

Replica results are always merged in replica-index order, which makes every
report byte-reproducible from (master seed, experiment name, grid) alone.

A replica's generator is np.random.Generator(np.random.PCG64(seed)), and
most of its cost is numpy's SeedSequence(seed), which hashes the seed into
the four 64-bit words PCG64 starts from. replica_generators computes those
words for a whole replica range at once, running SeedSequence's own loops
(numpy/random/bit_generator.pyx) on uint32 arrays, one element per
replica, from an entropy of the seed's low and high halves (numpy fills
the pool beyond a seed below 2**32 from 0, as a zero high half does), and
hands each PCG64 its words through numpy's ISeedSequence interface.
RngStream.generator() keeps numpy's own PCG64(seed), the reference the
tests hold the range path to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_GAMMA, _MUL1, _MUL2 = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                  0x94D049BB133111EB], dtype=np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 output step, elementwise on a uint64 array."""
    z = x + _GAMMA
    z = (z ^ z >> 30) * _MUL1
    z = (z ^ z >> 27) * _MUL2
    return z ^ z >> 31


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of text."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _mix(master_seed: int, name: str, replicas: np.ndarray) -> np.ndarray:
    """The documented seed mix of a uint64 array of replica indices."""
    key = np.array([(master_seed & _MASK64) ^ fnv1a64(name)], dtype=np.uint64)
    return splitmix64(splitmix64(key) ^ replicas)


def replica_seed(master_seed: int, name: str, replica: int) -> int:
    """The seed of one replica, as a Python int."""
    return int(_mix(master_seed, name,
                    np.array([replica & _MASK64], dtype=np.uint64))[0])


def _hash_consts(init: int, mult: int, calls: int) -> list:
    """hashmix's (xor, multiplier) pair in each of its first calls: its
    hash_const before and after the call updates it."""
    h = np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF
                  for k in range(calls + 1)], dtype=np.uint32)
    return list(zip(h[:-1], h[1:]))


# SeedSequence's constants (numpy/random/bit_generator.pyx): INIT_A and
# MULT_A for the 4 + 12 hashmix calls of mix_entropy on a pool of four,
# INIT_B and MULT_B for the 8 of generate_state(4, uint64).
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.array([0xCA01F9DD, 0x4973F715, 16],
                                             dtype=np.uint32)


def _hashmix(value: np.ndarray, hash_const) -> np.ndarray:
    """numpy's hashmix, hash_const an iterator over its constants."""
    x, m = next(hash_const)
    value = (value ^ x) * m
    value ^= value >> _XSHIFT
    return value


def _mix32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix(x, y)."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed."""
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds, seeds >> np.uint64(32)  # low halves
    hash_const = iter(_HASH_A)
    mixer = [_hashmix(word, hash_const) for word in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = _mix32(mixer[i_dst],
                                      _hashmix(mixer[i_src], hash_const))
    hash_const = iter(_HASH_B)
    state = [_hashmix(mixer[i % 4], hash_const) for i in range(8)]
    # word k is state words 2k (low half) and 2k + 1, in any byte order
    words = np.array(state[1::2], dtype=np.uint64) << np.uint64(32)
    words |= np.array(state[0::2])
    return words.T.copy()


class _StateWords(ISeedSequence):
    """Hands PCG64 its precomputed state words (and does not spawn)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
        return self.words


def _generators(seeds: np.ndarray) -> list[np.random.Generator]:
    """np.random.Generator(np.random.PCG64(seed)) for each uint64 seed."""
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
