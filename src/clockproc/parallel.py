"""Deterministic fan-out over independent replica indices, one-ahead prefetch,
and ``row_blocks``, the one rule every chunk loop of the package cuts rows by.

``ordered_map`` work items receive only their index; any randomness must
come from streams derived from that index, so the result list is identical
for every thread count and the reduction order is fixed by construction.

``prefetch`` computes the next item of one iterator on a single helper
thread while the caller consumes the current one.  The iterator runs on one
thread at a time, in its own order, so a stream it draws from is drawn in
serial order; a stream the caller draws from must not be drawn by the
iterator.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

__all__ = ["ordered_map", "prefetch"]

_DONE = object()


def ordered_map(fn: Callable[[int], T], count: int, threads: int = 1) -> list[T]:
    """Apply ``fn`` to 0..count-1, returning results in index order.

    With ``threads`` > 1 the work runs on a thread pool (the heavy lifting in
    this package happens inside numpy, which releases the GIL); results are
    still collected in index order, so outputs are byte-identical to the
    serial path.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative; got {count}")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(fn, range(count)))


def prefetch(items: Iterable[T], threads: int = 1) -> Iterator[T]:
    """Yield ``items`` in order, computing item i+1 on one helper thread
    while the caller consumes item i.

    The items and the order in which they are computed are the serial ones;
    only one item is computed ahead.  An exception raised computing an item
    is raised to the caller in its place.  The helper is joined when the
    iterator ends, raises or is closed; with ``threads`` <= 1 no thread is
    started.
    """
    if threads <= 1:
        yield from items
        return
    source = iter(items)
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(next, source, _DONE)
        while (ready := [ahead.result()])[0] is not _DONE:
            ahead = helper.submit(next, source, _DONE)
            # popped, so no name here holds the item while the caller does
            yield ready.pop()


def row_blocks(count: int, width: int, budget: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges over rows 0..count-1 in order, each of as many rows
    ``width`` units wide as fit in ``budget`` (at least one), the last of the rest."""
    rows = max(1, budget // width)
    return [(lo, min(count, lo + rows)) for lo in range(0, count, rows)]
