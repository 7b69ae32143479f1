"""Deterministic fan-out over independent replica indices.

Work items receive only their index; any randomness must come from streams
derived from that index, so the result list is identical for every thread
count and the reduction order is fixed by construction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["ordered_map"]


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
