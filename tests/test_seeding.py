"""Stream derivation: golden vectors, determinism, substream separation."""

import json
import pathlib

import numpy as np
import pytest

from clockproc.parallel import ordered_map
from clockproc.seeding import ReplicaStreams, StreamFamily, keyed_generator, resolve_seeds

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
    a = ReplicaStreams.from_seed(31)
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
