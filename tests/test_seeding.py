"""Stream derivation: golden vectors, determinism, substream separation."""

import json
import pathlib

import numpy as np
import pytest

from clockproc.parallel import ordered_map
from clockproc.seeding import (
    StreamFamily,
    keyed_generator,
    resolve_seeds,
    stream_position,
)
from reference_estimators import replica_streams

GOLDEN = pathlib.Path(__file__).parent / "golden" / "seed_vectors.json"


def test_golden_seed_vectors():
    """Frozen derivation vectors; a change here breaks replay of old manifests."""
    table = json.loads(GOLDEN.read_text())["vectors"]
    assert table, "golden vector file is empty"
    for key, expected in table.items():
        master, purpose, index = key.split(":")
        assert resolve_seeds(int(master), purpose, int(index)) == expected


def test_resolve_seeds_deterministic_and_distinct():
    seen = set()
    for master in (0, 1, 2**64 - 1):
        for purpose in ("env", "walk", "noise"):
            for index in (0, 1, 17):
                s = resolve_seeds(master, purpose, index)
                assert s == resolve_seeds(master, purpose, index)
                assert 0 <= s < 2**64
                seen.add(s)
    # 27 derivations, no collisions
    assert len(seen) == 27


def test_resolve_seeds_separates_purpose_from_index():
    # "ab", 1 and "ab1", 0 must not alias: the purpose is length-delimited
    assert resolve_seeds(5, "ab", 1) != resolve_seeds(5, "ab1", 0)
    assert resolve_seeds(5, "ab", 10) != resolve_seeds(5, "ab1", 0)


def test_resolve_seeds_rejects_out_of_range():
    with pytest.raises(ValueError):
        resolve_seeds(-1, "env", 0)
    with pytest.raises(ValueError):
        resolve_seeds(2**64, "env", 0)
    with pytest.raises(ValueError):
        resolve_seeds(0, "env", -1)


def test_keyed_generator_reproducible():
    a = keyed_generator(12345).random(8)
    b = keyed_generator(12345).random(8)
    c = keyed_generator(12346).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 10, 4003])
def test_generator_placed_at_an_offset_continues_the_sequential_stream(offset):
    """Philox hands out four 64-bit draws per counter: a generator placed at
    ``offset`` (every residue mod 4) gives the doubles that drawing
    ``offset`` of them and going on gives, and it stands at ``offset``."""
    sequential = keyed_generator(2024)
    sequential.random(offset)
    assert stream_position(sequential) == offset
    placed = keyed_generator(2024, offset)
    assert stream_position(placed) == offset
    assert placed.random(9).tobytes() == sequential.random(9).tobytes()
    assert stream_position(placed) == stream_position(sequential) == offset + 9


@pytest.mark.parametrize("lam", [3.0, 631.0])
def test_stream_position_after_poisson_draws_places_the_next_generator(lam):
    """Poisson counts take a variable number of doubles (one method below
    lam = 10, another above); the position read after them places a second
    generator where the first goes on, and one placed further on reads the
    stream's later doubles side by side with the first."""
    rng = keyed_generator(77)
    counts = rng.poisson(lam, size=200)
    base = stream_position(rng)
    total = int(counts.sum())
    ahead = keyed_generator(77, base + total)
    expected = keyed_generator(77, base).random(2 * total + 5)
    first, second = rng.random(total), ahead.random(total)
    assert np.concatenate([first, second]).tobytes() == expected[: 2 * total].tobytes()
    # the second generator ends where sequential draws leave the stream
    assert ahead.random(5).tobytes() == expected[2 * total :].tobytes()


def test_stream_position_refuses_a_buffered_32_bit_half():
    """A 32-bit draw keeps the other half of its 64-bit draw for the next
    one; no position holds that half, so the state is refused."""
    rng = keyed_generator(5)
    rng.integers(0, 2**31, dtype=np.int32)
    with pytest.raises(ValueError, match="32-bit"):
        stream_position(rng)
    with pytest.raises(ValueError):
        stream_position(np.random.default_rng(5))


def test_stream_family_matches_resolve_seeds():
    fam = StreamFamily(7, "env")
    assert fam.seed_for(3) == resolve_seeds(7, "env", 3)
    assert fam.seed_for(3, "walk") == resolve_seeds(7, "env/walk", 3)


def test_replica_streams_are_decoupled():
    """Walk and noise draws of one replica come from unrelated streams."""
    streams = StreamFamily(99, "replica").replica(4)
    walk = streams.walk.random(16)
    noise = streams.noise.random(16)
    assert not np.array_equal(walk, noise)
    # consuming one stream leaves the other untouched
    again = StreamFamily(99, "replica").replica(4)
    again.walk.random(1000)
    assert np.array_equal(again.noise.random(16), noise)


def test_replica_streams_from_seed_alias():
    a = replica_streams(31)
    b = StreamFamily(31, "replica").replica(0)
    assert np.array_equal(a.walk.random(4), b.walk.random(4))
    assert np.array_equal(a.noise.random(4), b.noise.random(4))


def test_ordered_map_matches_serial():
    def work(i):
        rng = keyed_generator(resolve_seeds(11, "map", i))
        return float(rng.random())

    serial = ordered_map(work, 20, threads=1)
    threaded = ordered_map(work, 20, threads=4)
    assert serial == threaded
    assert len(serial) == 20


def test_ordered_map_propagates_errors():
    def boom(i):
        if i == 3:
            raise RuntimeError("worker failure")
        return i

    with pytest.raises(RuntimeError):
        ordered_map(boom, 8, threads=2)
    assert ordered_map(lambda i: i, 0, threads=4) == []
