"""The exit-ordered recency index against the linear oracle.

``TravelTimeStore.recent`` walks a per-segment index sorted by exit time;
``reference.linear_recent`` is the filter / stable-sort / dedup form it
replaced.  Eq. 8 averages residuals in the order ``recent`` returns them,
so the two must agree record for record — same objects, same order —
including every tie, long traversal and window edge.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrival import TravelTimeRecord, TravelTimeStore
from repro.core.arrival.history import _MAX_TRAVERSAL_S
from repro.core.server.persistence import store_from_dict, store_to_dict
from repro.core.server.reference import linear_recent

# A coarse time grid makes equal t_enter and equal t_exit common; the
# durations include zero and traversals longer than the scan bound.
_GRID_S = 150.0
_DURATIONS = (0.0, 30.0, 150.0, 600.0, 3600.0, 3750.0, 5400.0)
assert max(_DURATIONS) > _MAX_TRAVERSAL_S

records_st = st.lists(
    st.builds(
        lambda seg, route, k, tt: TravelTimeRecord(
            route_id=route,
            segment_id=seg,
            t_enter=k * _GRID_S,
            t_exit=k * _GRID_S + tt,
        ),
        st.sampled_from(["s0", "s1"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 40),
        st.sampled_from(_DURATIONS),
    ),
    max_size=60,
)

query_st = st.tuples(
    st.one_of(
        st.sampled_from([-900.0, 0.0, 6000.0, 12_000.0, 20_000.0]),
        st.integers(0, 80).map(lambda k: k * _GRID_S),
        st.floats(-1000.0, 15_000.0, allow_nan=False),
    ),
    st.sampled_from([0.0, 150.0, 1800.0, 3600.0, 9000.0]),
    st.sampled_from([None, 1, 5, 0, -1]),
    st.booleans(),
)


def _assert_same(
    store: TravelTimeStore, queries, segments=("s0", "s1", "missing")
) -> None:
    for now, window_s, max_count, per_route in queries:
        for sid in segments:
            kw = dict(
                now=now,
                window_s=window_s,
                max_count=max_count,
                per_route_latest=per_route,
            )
            got = store.recent(sid, **kw)
            want = linear_recent(store, sid, **kw)
            assert len(got) == len(want), (sid, kw)
            assert all(g is w for g, w in zip(got, want)), (sid, kw)


@settings(max_examples=300, deadline=None)
@given(
    records_st,
    st.randoms(use_true_random=False),
    st.lists(query_st, min_size=1, max_size=8),
    st.data(),
)
def test_indexed_recent_matches_linear_oracle(records, rnd, queries, data):
    # Also ask just after each traversal ends, where window edges and
    # long traversals meet the data.
    for r in records:
        _, window_s, max_count, per_route = data.draw(query_st)
        offset = data.draw(st.sampled_from([0.0, 75.0, window_s]))
        queries.append((r.t_exit + offset, window_s, max_count, per_route))
    shuffled = list(records)
    rnd.shuffle(shuffled)  # out-of-order adds
    store = TravelTimeStore()
    for r in shuffled:
        store.add(r)
    _assert_same(store, queries)

    kept = store.filtered(lambda r: r.route_id != "d")
    _assert_same(kept, queries)

    restored = store_from_dict(store_to_dict(store))
    _assert_same(restored, queries)
    # The round trip keeps the tie order, not just the set of answers.
    for now, window_s, max_count, per_route in queries:
        kw = dict(
            now=now,
            window_s=window_s,
            max_count=max_count,
            per_route_latest=per_route,
        )
        assert restored.recent("s0", **kw) == store.recent("s0", **kw)


def test_ties_follow_entry_then_insertion_order():
    # Same exit time for all four; two share an entry time too.
    first = TravelTimeRecord("a", "s", t_enter=100.0, t_exit=500.0)
    second = TravelTimeRecord("b", "s", t_enter=100.0, t_exit=500.0)
    earlier = TravelTimeRecord("c", "s", t_enter=50.0, t_exit=500.0)
    later = TravelTimeRecord("d", "s", t_enter=400.0, t_exit=500.0)
    store = TravelTimeStore()
    for r in (first, later, second, earlier):
        store.add(r)
    got = store.recent("s", now=600.0, window_s=1000.0)
    assert [r.route_id for r in got] == ["c", "a", "b", "d"]


def test_long_traversal_is_skipped_not_a_stop():
    # The long one finishes inside the window but entered before the
    # scan floor; the older short one behind it must still be found.
    long_tt = TravelTimeRecord("a", "s", t_enter=0.0, t_exit=5000.0)
    short = TravelTimeRecord("b", "s", t_enter=4500.0, t_exit=4600.0)
    store = TravelTimeStore([long_tt, short])
    got = store.recent("s", now=5000.0, window_s=600.0)
    assert got == [short]
    assert got == linear_recent(store, "s", now=5000.0, window_s=600.0)


def test_random_city_day_matches_oracle():
    rnd = random.Random(7)
    store = TravelTimeStore()
    for _ in range(2000):
        t0 = rnd.uniform(0.0, 36_000.0)
        store.add(
            TravelTimeRecord(
                route_id=rnd.choice("LSNX"),
                segment_id=rnd.choice(["s0", "s1", "s2"]),
                t_enter=t0,
                t_exit=t0 + rnd.choice([40.0, 75.0, 120.0, 4000.0]),
            )
        )
    queries = [
        (rnd.uniform(0.0, 40_000.0), w, m, p)
        for w in (600.0, 1800.0)
        for m in (None, 1, 5)
        for p in (True, False)
        for _ in range(10)
    ]
    _assert_same(store, queries, segments=("s0", "s1", "s2"))
