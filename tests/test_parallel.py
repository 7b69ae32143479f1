"""The one-ahead prefetch helper: serial items, serial stream order, joined
threads; and the row-block rule: blocks that tile the rows in order."""

import threading

import numpy as np
import pytest

from clockproc.parallel import prefetch, row_blocks
from clockproc.seeding import keyed_generator


def state(rng):
    """A Philox generator's ``bit_generator.state``, its arrays as lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def draws(rng, count=7, threads_seen=None):
    """``count`` rows of Philox draws, noting the thread that draws each."""
    for _ in range(count):
        if threads_seen is not None:
            threads_seen.append(threading.get_ident())
        yield rng.integers(0, 1 << 20, size=5)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_prefetch_yields_the_serial_items_and_leaves_the_serial_stream(threads):
    serial_rng, rng = keyed_generator(31), keyed_generator(31)
    serial = list(draws(serial_rng))
    items = list(prefetch(draws(rng), threads))
    assert len(items) == len(serial)
    assert all(np.array_equal(a, b) for a, b in zip(items, serial))
    assert state(rng) == state(serial_rng)


def test_prefetch_starts_no_thread_at_one_thread():
    before = threading.active_count()
    seen = []
    for _ in prefetch(draws(keyed_generator(3), threads_seen=seen), 1):
        assert threading.active_count() == before
    assert set(seen) == {threading.get_ident()}


def test_prefetch_draws_on_one_helper_thread_and_joins_it():
    before = threading.active_count()
    seen = []
    assert len(list(prefetch(draws(keyed_generator(3), threads_seen=seen), 2))) == 7
    assert len(set(seen)) == 1 and seen[0] != threading.get_ident()
    assert threading.active_count() == before


def test_prefetch_propagates_an_exception_and_joins_its_thread():
    def failing():
        yield from range(3)
        raise RuntimeError("item failure")

    before = threading.active_count()
    got = []
    with pytest.raises(RuntimeError, match="item failure"):
        for item in prefetch(failing(), 2):
            got.append(item)
    assert got == [0, 1, 2]
    assert threading.active_count() == before


def test_prefetch_joins_its_thread_when_the_consumer_stops_early():
    before = threading.active_count()
    items = prefetch(draws(keyed_generator(5)), 2)
    next(items)
    assert threading.active_count() == before + 1
    items.close()
    assert threading.active_count() == before
    for _ in prefetch(draws(keyed_generator(5)), 3):
        break
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "count, width, budget, sizes",
    [
        (0, 3, 100, []),  # no rows, no blocks
        (5, 101, 100, [1, 1, 1, 1, 1]),  # a row wider than the budget
        (4, 1, 1, [1, 1, 1, 1]),  # a budget of one
        (12, 3, 12, [4, 4, 4]),  # an exact multiple
        (10, 3, 14, [4, 4, 2]),  # a ragged last block
    ],
)
def test_row_blocks_tile_the_rows_in_order(count, width, budget, sizes):
    blocks = row_blocks(count, width, budget)
    edges = [0] + [hi for _, hi in blocks]
    assert blocks == list(zip(edges, edges[1:]))  # in order, no gap, no overlap
    assert edges[-1] == count
    assert [hi - lo for lo, hi in blocks] == sizes
    assert all(size == max(1, budget // width) for size in sizes[:-1])
