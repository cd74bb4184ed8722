"""Travel-time records and their store.

Everything in Section IV is a computation over segment travel times:
``Th(i, j, l)`` — historical means per segment/route/time-slot — and
``Tr(i, k, l)`` — the most recent traversals of a segment by buses of any
route.  :class:`TravelTimeStore` is the container both live behind.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.mobility.traffic import DAY_S

# No single-segment traversal plausibly lasts longer than this; used only
# to bound the recency scan, never to drop data outright.
_MAX_TRAVERSAL_S = 3600.0


@dataclass(frozen=True, slots=True)
class TravelTimeRecord:
    """One bus's observed travel time over one road segment."""

    route_id: str
    segment_id: str
    t_enter: float
    t_exit: float
    source: str = "observed"

    def __post_init__(self) -> None:
        if self.t_exit < self.t_enter:
            raise ValueError("negative travel time")

    @property
    def travel_time(self) -> float:
        return self.t_exit - self.t_enter

    @property
    def time_of_day(self) -> float:
        """Seconds-of-day of the segment entry."""
        return self.t_enter % DAY_S

    @property
    def day(self) -> int:
        return int(self.t_enter // DAY_S)


class TravelTimeStore:
    """Per-segment, time-ordered travel-time records.

    Supports the two access patterns of the predictor: historical
    aggregation filtered by route and time-slot, and "who traversed this
    segment most recently" queries.

    Each segment keeps its records twice, by reference: in entry order
    (what aggregation, ``records``, ``filtered`` and checkpoints read, so
    float sums and serialised bytes follow one fixed order) and in exit
    order, the index :meth:`recent` walks backward from ``now``.
    """

    def __init__(self, records: Iterable[TravelTimeRecord] = ()) -> None:
        self._by_segment: dict[str, list[TravelTimeRecord]] = {}
        self._entry_times: dict[str, list[float]] = {}
        # Exit-ordered index: (t_exit asc, t_enter desc, newest add first),
        # so a backward walk yields exactly the order of a stable sort of
        # the entry-ordered list by descending exit time.
        self._by_exit: dict[str, list[TravelTimeRecord]] = {}
        self._exit_times: dict[str, list[float]] = {}
        self._routes: dict[str, set[str]] = {}
        #: Bumped by every :meth:`add`; lets a reader that memoises
        #: aggregates over this store tell that it changed.
        self.revision = 0
        #: Index entries :meth:`recent` has examined — a machine-independent
        #: work counter, not state.
        self.index_visits = 0
        for r in records:
            self.add(r)

    def add(self, record: TravelTimeRecord) -> None:
        sid = record.segment_id
        lst = self._by_segment.setdefault(sid, [])
        times = self._entry_times.setdefault(sid, [])
        i = bisect.bisect_right(times, record.t_enter)
        lst.insert(i, record)
        times.insert(i, record.t_enter)
        by_exit = self._by_exit.setdefault(sid, [])
        exits = self._exit_times.setdefault(sid, [])
        # Among equal exit times the index runs t_enter descending and,
        # within equal t_enter, newest first: the new record goes before
        # every tie that entered no later than it did.
        j = bisect.bisect_right(exits, record.t_exit)
        while (
            j > 0
            and exits[j - 1] == record.t_exit
            and by_exit[j - 1].t_enter <= record.t_enter
        ):
            j -= 1
        by_exit.insert(j, record)
        exits.insert(j, record.t_exit)
        self._routes.setdefault(sid, set()).add(record.route_id)
        self.revision += 1

    def add_many(self, records: Iterable[TravelTimeRecord]) -> None:
        for r in records:
            self.add(r)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_segment.values())

    def segment_ids(self) -> list[str]:
        return list(self._by_segment)

    def records(self, segment_id: str) -> list[TravelTimeRecord]:
        """All records of a segment, ordered by entry time."""
        return list(self._by_segment.get(segment_id, ()))

    def routes_on(self, segment_id: str) -> set[str]:
        return set(self._routes.get(segment_id, ()))

    def mean_travel_time(
        self,
        segment_id: str,
        *,
        route_id: str | None = None,
        accept: Callable[[TravelTimeRecord], bool] | None = None,
    ) -> float | None:
        """Mean travel time with optional route and record filters.

        This is the estimator ``E(Th(i, j)) = mu_ij`` of Eq. 4; ``accept``
        typically restricts to one time slot.  Returns None with no data.
        """
        total, n = 0.0, 0
        for r in self._by_segment.get(segment_id, ()):
            if route_id is not None and r.route_id != route_id:
                continue
            if accept is not None and not accept(r):
                continue
            total += r.travel_time
            n += 1
        return total / n if n else None

    def recent(
        self,
        segment_id: str,
        *,
        now: float,
        window_s: float,
        max_count: int | None = None,
        per_route_latest: bool = True,
    ) -> list[TravelTimeRecord]:
        """The latest completed traversals of a segment before ``now``.

        Only records that *finished* (``t_exit <= now``) within
        ``window_s`` count — the "J buses of K' routes most recently
        passing by" of Section IV.  With ``per_route_latest`` each route
        contributes only its most recent traversal (the freshest evidence
        per route).  The result is newest-first: ``t_exit`` descending,
        then ``t_enter`` ascending, then insertion order.

        Walks the exit-ordered index backward from ``now`` and stops at
        ``max_count``, at the window floor, or — per route — once every
        route on the segment has been seen, so the cost is bounded by the
        routes on the segment rather than the records in the window.
        """
        if max_count is not None and max_count < 1:
            # Keep slice semantics: 0 gives [], -1 drops the oldest.
            return self.recent(
                segment_id,
                now=now,
                window_s=window_s,
                per_route_latest=per_route_latest,
            )[:max_count]
        exits = self._exit_times.get(segment_id)
        if not exits:
            return []
        by_exit = self._by_exit[segment_id]
        all_routes = len(self._routes[segment_id])
        oldest_exit = now - window_s
        # A record entering long before the window cannot have finished
        # inside it (bounded by a generous max traversal time).
        oldest_enter = now - window_s - _MAX_TRAVERSAL_S
        out: list[TravelTimeRecord] = []
        seen: set[str] = set()
        start = i = bisect.bisect_right(exits, now)
        while i > 0:
            i -= 1
            r = by_exit[i]
            if r.t_exit < oldest_exit:
                break
            if r.t_enter < oldest_enter:
                continue
            if per_route_latest:
                if r.route_id in seen:
                    continue
                seen.add(r.route_id)
            out.append(r)
            if len(out) == max_count or len(seen) == all_routes:
                break
        self.index_visits += start - i
        return out

    def filtered(
        self, accept: Callable[[TravelTimeRecord], bool]
    ) -> "TravelTimeStore":
        """A new store containing the records ``accept`` keeps."""
        return TravelTimeStore(
            r
            for lst in self._by_segment.values()
            for r in lst
            if accept(r)
        )
