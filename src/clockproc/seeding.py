"""Deterministic stream derivation for reproducible parallel Monte Carlo.

Every random draw in the package comes from a counter-based generator whose
64-bit key is derived by hashing ``(master_seed, purpose_tag, index)``.
Replicas therefore own independent streams regardless of scheduling, batch
size, or thread count, and any single stream can be reproduced in isolation.
Philox is counter-based, so a stream can also be opened at any offset, which
lets one reader draw two stretches of a stream side by side.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["resolve_seeds", "keyed_generator", "stream_position", "StreamFamily", "ReplicaStreams"]

_MASK64 = (1 << 64) - 1


def resolve_seeds(master_seed: int, purpose: str, index: int) -> int:
    """Derive the 64-bit stream seed for ``(master_seed, purpose, index)``.

    The derivation is a SHA-256 hash of the canonically packed triple, so it
    is collision-resistant across purposes and indices and stable across
    platforms and processes.
    """
    if not isinstance(master_seed, int) or not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master_seed must be an integer in [0, 2^64); got {master_seed!r}")
    if not isinstance(index, int) or not 0 <= index <= _MASK64:
        raise ValueError(f"index must be an integer in [0, 2^64); got {index!r}")
    payload = (
        struct.pack("<Q", master_seed)
        + purpose.encode("utf-8")
        + b"\x00"
        + struct.pack("<Q", index)
    )
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def keyed_generator(seed: int, position: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed, ``position`` 64-bit
    draws into its stream.

    Philox turns counter k into the stream's draws 4(k-1) .. 4k-1, so the
    generator skips ``position // 4`` counters and then the first
    ``position % 4`` draws of the next: it gives what a fresh generator of
    the same key gives after ``position`` draws.
    """
    bit_generator = np.random.Philox(key=seed)
    if position:
        bit_generator.advance(position // 4)
        bit_generator.random_raw(position % 4)
    return np.random.Generator(bit_generator)


def stream_position(rng: np.random.Generator) -> int:
    """How many 64-bit draws a :func:`keyed_generator` has given: the
    ``position`` at which a new generator of its key goes on from it.

    Doubles, and the draws built from them (``random``, ``poisson``, ...),
    take whole 64-bit draws; a 32-bit draw buffers the other half of its
    draw, which no position can hold, so such a state is refused.
    """
    state = rng.bit_generator.state
    if state["bit_generator"] != "Philox" or state["has_uint32"]:
        raise ValueError("only a Philox stream holding no 32-bit half has a position")
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + state["buffer_pos"] - 4


@dataclass(frozen=True)
class StreamFamily:
    """A named family of derived streams under one master seed.

    ``generator(i, kind)`` hands out the stream for replica ``i``; distinct
    ``kind`` suffixes give independent substreams of the same replica (e.g.
    walk steps vs. waiting-time draws), which keeps extended simulations
    prefix-stable: drawing more from one substream never shifts the other.
    """

    master_seed: int
    purpose: str

    def seed_for(self, index: int, kind: str | None = None) -> int:
        purpose = self.purpose if kind is None else f"{self.purpose}/{kind}"
        return resolve_seeds(self.master_seed, purpose, index)

    def generator(self, index: int, kind: str | None = None) -> np.random.Generator:
        return keyed_generator(self.seed_for(index, kind))

    def replica(self, index: int) -> "ReplicaStreams":
        return ReplicaStreams(
            walk=self.generator(index, "walk"),
            noise=self.generator(index, "noise"),
        )


@dataclass
class ReplicaStreams:
    """The two substreams of one replica: walk steps and waiting-time noise."""

    walk: np.random.Generator
    noise: np.random.Generator
