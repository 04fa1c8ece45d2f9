"""Deterministic seeding for replicated runs.

Every replica of every named experiment gets its own PCG64 generator. The
seed is derived by a fixed integer mix so that results do not depend on
which thread or process happened to execute a replica:

    h    = fnv1a64(utf8(name))                 # 64-bit FNV-1a offset basis
    s0   = splitmix64(master_seed XOR h)
    seed = splitmix64(s0 XOR replica_index)

Replica results are always merged in replica-index order, which makes every
report byte-reproducible from (master seed, experiment name, grid) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 output step for the 64-bit input x."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of text."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def replica_seeds(master_seed: int, name: str, r0: int, r1: int) -> list[int]:
    """The documented (master, name, replica) -> 64-bit seed mix for
    replicas r0..r1-1, hashing the name once."""
    s0 = splitmix64((master_seed & _MASK64) ^ fnv1a64(name))
    return [splitmix64(s0 ^ (r & _MASK64)) for r in range(r0, r1)]


def replica_seed(master_seed: int, name: str, replica: int) -> int:
    """The seed of one replica (replica_seeds of a one-replica range)."""
    return replica_seeds(master_seed, name, replica, replica + 1)[0]


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
