"""Work bound of the Eq. 8 recency query: counter-based, no wall clock.

``TravelTimeStore.recent`` walks its exit-ordered index backward from
``now`` and stops once every route on the segment has been seen, so its
work tracks the routes on the segment.  The linear oracle filters and
sorts the whole entry window, so its work tracks the records in it.
"""

from __future__ import annotations

import pytest

from repro.core.arrival import TravelTimeRecord, TravelTimeStore
from repro.core.server.reference import TraversalCounter, linear_recent

pytestmark = pytest.mark.perf

_NOW = 36_000.0
_WINDOW_S = 1800.0
_ROUTES = ("L", "S", "N")


def _segment(records_per_route: int) -> TravelTimeStore:
    """One segment, three routes, every traversal inside the window."""
    store = TravelTimeStore()
    n = records_per_route * len(_ROUTES)
    headway = (_WINDOW_S - 120.0) / n
    for i in range(n):
        t_enter = _NOW - _WINDOW_S + i * headway
        store.add(
            TravelTimeRecord(
                route_id=_ROUTES[i % len(_ROUTES)],
                segment_id="s",
                t_enter=t_enter,
                t_exit=t_enter + 90.0 + (i % 7),
            )
        )
    return store


def _visits(store: TravelTimeStore) -> tuple[int, int]:
    kw = dict(now=_NOW, window_s=_WINDOW_S, max_count=5, per_route_latest=True)
    before = store.index_visits
    indexed = store.recent("s", **kw)
    counter = TraversalCounter()
    linear = linear_recent(store, "s", counter=counter, **kw)
    assert indexed == linear
    assert len(indexed) == len(_ROUTES)
    return store.index_visits - before, counter.records


def test_recent_visits_stay_flat_as_window_records_grow_10x():
    small_index, small_linear = _visits(_segment(10))
    large_index, large_linear = _visits(_segment(100))
    assert large_index <= 1.5 * small_index
    assert large_linear >= 10 * small_linear
