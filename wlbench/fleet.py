"""The seeded bus fleet every workload replays.

The city is built from the library's own primitives (``RoadNetwork``,
``BusRoute``, ``RoadSVD.from_distance``):

* ``CORRIDORS`` straight corridors of ``SEGMENTS`` x ``SEGMENT_M`` road,
  each lined with APs every ``AP_SPACING_M``; corridors sit far apart, so
  they never share radio space;
* three routes per corridor (``ROUTE_SHAPES``) that overlap on shared
  segments, as in the paper's Table I, so Eq. 8 averages residuals from
  several routes on each segment;
* corridor stops every ``STOP_SPACING_M``; a stop id is shared by every
  route of its corridor that serves it, so stops served by two or three
  routes are hubs;
* buses dispatched every ``HEADWAY_S`` per route from 07:30, each
  uploading a proximity pseudo-RSS scan every ``REPORT_EVERY_S``.

The seed draws each route's dispatch phase and the order in which its
buses take the three speeds.  The road layout, the AP layout and the
simulated span are fixed, so every seed builds a fleet of nearly the
same size.  Speeds are chosen so that a
bus advances a whole divisor of ``SEGMENT_M`` per scan, starting half a
step into the route: every scan then lies at least 37.5 m from a segment
boundary, further than the SVD positioning error, and the generator can
predict exactly which segment traversals the server will extract.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.core.arrival.history import TravelTimeRecord, TravelTimeStore
from repro.core.server.server import WiLocatorServer
from repro.core.svd.road_svd import RoadSVD
from repro.geometry import Point
from repro.pipeline.wal import report_to_dict
from repro.radio.ap import AccessPoint, make_bssid
from repro.radio.environment import Reading
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import BusRoute, BusStop
from repro.sensing.reports import ScanReport

CORRIDORS = 8
SEGMENTS = 8
SEGMENT_M = 600.0
STOP_SPACING_M = 300.0
AP_SPACING_M = 100.0
AP_RANGE_M = 250.0
SVD_STEP_M = 10.0
START_T = 7.5 * 3600.0
SPAN_S = 3600.0
REPORT_EVERY_S = 10.0
HEADWAY_S = 120.0
STEPS_M = (75.0, 100.0, 120.0)
"""Metres advanced per scan (7.5, 10 and 12 m/s); each divides SEGMENT_M."""
BATCH_REPORTS = 24
"""Reports per ``POST /v1/scans`` request: over 1,000 batches per hour."""
HISTORY_MPS = (9.0, 8.0, 7.0)
"""Speeds of the synthetic history at 07:00, 07:30 and 08:00, less
``HISTORY_ROUTE_STEP_MPS`` for each later route shape of a corridor: the
slots before and after 08:00 and the routes sharing a segment have
different means, so Eq. 8 depends on the slot and route it looks up."""
HISTORY_ROUTE_STEP_MPS = 0.5

# (name, first segment, last segment, stop stride) of each corridor route.
ROUTE_SHAPES = (("L", 0, 7, 1), ("S", 0, 5, 1), ("N", 2, 7, 2))


@dataclass(frozen=True)
class Trip:
    """One bus run: dispatched at ``t0``, advancing ``step_m`` per scan."""

    session_key: str
    route_id: str
    corridor: int
    t0: float
    step_m: float
    arc0_m: float
    """Corridor position of the route's start."""
    route_len_m: float

    def arc_at(self, j: int) -> float:
        """True route arc of scan ``j``."""
        return self.step_m * (j + 0.5)

    @property
    def total_scans(self) -> int:
        # step_m divides the route length, so the last scan is half a
        # step short of the terminal.
        return int(self.route_len_m // self.step_m)

    def scans_before(self, t_end: float) -> int:
        """How many scans the bus uploads at or before ``t_end``."""
        if t_end < self.t0:
            return 0
        by_time = int((t_end - self.t0) // REPORT_EVERY_S) + 1
        return min(by_time, self.total_scans)


@dataclass(frozen=True)
class ExpectedCounts:
    """What the server must hold after ingesting a report prefix."""

    reports: int
    sessions_opened: int
    traversals: int

    def end_counts(self, replicated: int = 0) -> dict[str, int]:
        """The end counts every workload checks.  On a cluster a traversal
        lives on its own shard and once more on each shard a delta
        replicated it to: ``replicated`` of them."""
        return {
            "sessions opened": self.sessions_opened,
            "traversals extracted": self.traversals,
            "live records": self.traversals + replicated,
        }


class Fleet:
    """Routes, SVDs, history and the time-ordered scan stream of one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.end_t = START_T + SPAN_S
        self.network = RoadNetwork()
        self.routes: dict[str, BusRoute] = {}
        self.svds: dict[str, RoadSVD] = {}
        self.known_bssids: set[str] = set()
        self.history = TravelTimeStore()
        self.corridor_aps: list[list[AccessPoint]] = []
        self.corridor_y: list[float] = []
        self.route_stops: dict[str, list[tuple[str, float]]] = {}
        """route id -> [(stop id, route arc)] in route order."""
        self.stop_routes: dict[str, list[str]] = {}
        for c in range(CORRIDORS):
            self._build_corridor(c)
        self.hub_stops = sorted(
            stop for stop, rids in self.stop_routes.items() if len(rids) >= 2
        )
        self.trips: list[Trip] = []
        for route_id in self.routes:
            phase = rng.randrange(int(HEADWAY_S / REPORT_EVERY_S)) * REPORT_EVERY_S
            phase += rng.randrange(int(REPORT_EVERY_S))
            # every route runs each speed equally often, in a seeded order
            steps = rng.sample(STEPS_M, len(STEPS_M))
            corridor = int(route_id[1:3])
            shape = route_id[3]
            first_seg = next(s for s in ROUTE_SHAPES if s[0] == shape)[1]
            route_len = self.routes[route_id].length
            n = 0
            while START_T + phase + n * HEADWAY_S <= self.end_t:
                self.trips.append(
                    Trip(
                        session_key=f"bus:{route_id}:{n:03d}",
                        route_id=route_id,
                        corridor=corridor,
                        t0=START_T + phase + n * HEADWAY_S,
                        step_m=steps[n % len(steps)],
                        arc0_m=first_seg * SEGMENT_M,
                        route_len_m=route_len,
                    )
                )
                n += 1

    # -- city ---------------------------------------------------------------

    def _build_corridor(self, c: int) -> None:
        y = c * 10_000.0
        self.corridor_y.append(y)
        seg_ids = []
        for i in range(SEGMENTS):
            sid = f"C{c:02d}s{i}"
            self.network.add_straight_segment(
                sid,
                f"C{c:02d}n{i}",
                Point(i * SEGMENT_M, y),
                f"C{c:02d}n{i + 1}",
                Point((i + 1) * SEGMENT_M, y),
            )
            seg_ids.append(sid)
        n_aps = int(SEGMENTS * SEGMENT_M / AP_SPACING_M)
        aps = [
            AccessPoint(
                bssid=make_bssid(c * 1000 + i),
                ssid=f"C{c}AP{i}",
                position=Point(AP_SPACING_M * (i + 0.5), y + 15.0),
            )
            for i in range(n_aps)
        ]
        self.corridor_aps.append(aps)
        self.known_bssids.update(ap.bssid for ap in aps)
        per_segment_stops = int(SEGMENT_M / STOP_SPACING_M)
        for shape, (name, lo, hi, stride) in enumerate(ROUTE_SHAPES):
            route_id = f"C{c:02d}{name}"
            segs = seg_ids[lo : hi + 1]
            stops: list[BusStop] = []
            arcs: list[tuple[str, float]] = []
            first = lo * per_segment_stops
            last = (hi + 1) * per_segment_stops
            for k in range(first, last + 1):
                if k % stride:
                    continue
                pos = k * STOP_SPACING_M
                seg_index = min(int(pos // SEGMENT_M), hi)
                stop_id = f"C{c:02d}k{k:02d}"
                stops.append(
                    BusStop(
                        stop_id=stop_id,
                        segment_id=seg_ids[seg_index],
                        offset=pos - seg_index * SEGMENT_M,
                    )
                )
                arcs.append((stop_id, pos - lo * SEGMENT_M))
                self.stop_routes.setdefault(stop_id, []).append(route_id)
            route = BusRoute(route_id, self.network, segs, stops)
            self.routes[route_id] = route
            self.route_stops[route_id] = arcs
            self.svds[route_id] = RoadSVD.from_distance(
                route, aps, order=2, step_m=SVD_STEP_M, max_range_m=AP_RANGE_M
            )
            for sid in segs:
                for j in range(3):
                    t_enter = 7 * 3600.0 + j * 1800.0
                    self.history.add(
                        TravelTimeRecord(
                            route_id=route_id,
                            segment_id=sid,
                            t_enter=t_enter,
                            t_exit=t_enter
                            + SEGMENT_M / (HISTORY_MPS[j] - HISTORY_ROUTE_STEP_MPS * shape),
                            source="synthetic",
                        )
                    )

    def _readings(self, corridor: int, pos: float) -> tuple[Reading, ...]:
        aps = self.corridor_aps[corridor]
        here = Point(pos, self.corridor_y[corridor])
        lo = max(0, int((pos - AP_RANGE_M) // AP_SPACING_M))
        hi = min(len(aps), int((pos + AP_RANGE_M) // AP_SPACING_M) + 1)
        visible = []
        for ap in aps[lo:hi]:
            d = here.distance_to(ap.position)
            if d <= AP_RANGE_M:
                visible.append(Reading(ap.bssid, ap.ssid, -d))
        visible.sort(key=lambda r: (-r.rss_dbm, r.bssid))
        return tuple(visible)

    def scan_stream(self) -> list[ScanReport]:
        """Every scan of the span, in report-time order."""
        out: list[ScanReport] = []
        for trip in self.trips:
            for j in range(trip.scans_before(self.end_t)):
                out.append(
                    ScanReport(
                        device_id=f"dev:{trip.session_key}",
                        session_key=trip.session_key,
                        route_id=trip.route_id,
                        t=trip.t0 + j * REPORT_EVERY_S,
                        readings=self._readings(
                            trip.corridor, trip.arc0_m + trip.arc_at(j)
                        ),
                    )
                )
        out.sort(key=lambda r: (r.t, r.session_key))
        return out

    # -- servers ------------------------------------------------------------

    def new_server(self) -> WiLocatorServer:
        """A virgin server over this city (history shared read-only)."""
        return WiLocatorServer(
            routes=self.routes,
            svds=self.svds,
            known_bssids=self.known_bssids,
            history=self.history,
        )

    def svd_counts(self) -> tuple[int, int]:
        """Match-cache hits and misses summed over every route's SVD."""
        hits = misses = 0
        for svd in self.svds.values():
            info = svd.cache_info()
            hits += info["hits"]
            misses += info["misses"]
        return hits, misses

    def clear_match_caches(self) -> None:
        """Empty every SVD's match cache, so each pass starts cold alike."""
        for svd in self.svds.values():
            svd.clear_match_cache()

    # -- requests -----------------------------------------------------------

    def scan_batches(self) -> list[list[ScanReport]]:
        """The stream cut into fixed-size ``POST /v1/scans`` batches."""
        reports = self.scan_stream()
        return [
            reports[i : i + BATCH_REPORTS]
            for i in range(0, len(reports), BATCH_REPORTS)
        ]

    # -- predictions --------------------------------------------------------

    def expected(self, t_end: float) -> ExpectedCounts:
        """Counts after ingesting every report with ``t <= t_end``.

        A segment's traversal is extracted once a fix lies past its end;
        the route's last segment never is, because buses stop reporting
        before the terminal.
        """
        reports = sessions = traversals = 0
        for trip in self.trips:
            n = trip.scans_before(t_end)
            if n == 0:
                continue
            reports += n
            sessions += 1
            last_arc = trip.arc_at(n - 1)
            traversals += sum(
                1
                for i in range(1, int(trip.route_len_m // SEGMENT_M))
                if last_arc > i * SEGMENT_M
            )
        return ExpectedCounts(reports, sessions, traversals)

    def position_at(self, trip: Trip, t: float) -> float | None:
        """True route arc of a bus's latest scan at or before ``t``."""
        n = trip.scans_before(t)
        return trip.arc_at(n - 1) if n else None


def http_request(method: str, target: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 request as raw bytes."""
    head = f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return (head + "\r\n").encode("latin-1") + body


def scan_request(batch: list[ScanReport]) -> bytes:
    """``POST /v1/scans`` carrying one batch."""
    body = json.dumps(
        {"reports": [report_to_dict(r) for r in batch]}, separators=(",", ":")
    ).encode("utf-8")
    return http_request("POST", "/v1/scans", body)
