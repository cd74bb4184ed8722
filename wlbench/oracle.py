"""Output checks: expected response bytes and the failure tally.

Rider reads are checked byte for byte against answers rebuilt from the
linear reference implementations in ``repro.core.server.reference`` (the
seed's scans over every route, stop and session ever opened), encoded
with the same wire codec and HTTP encoder the front door uses.  Those
answers come from a twin server that ingests the same scans and serves
no timed read, and whose arrival predictions are recomputed here by
linear scans (:class:`LinearPredictor`), so no cache or index of the
server under test, nor its predictor, decides what is expected.  The
cluster is checked against a single-server twin instead (see
``workloads.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.arrival.history import TravelTimeRecord
from repro.core.arrival.predictor import ArrivalPrediction, ArrivalTimePredictor
from repro.core.server.api import LivePosition
from repro.core.server.reference import (
    TraversalCounter,
    linear_active_sessions,
    linear_departures,
    linear_plan_trip,
)
from repro.core.server.server import WiLocatorServer
from repro.serving.http import Response, encode_response
from repro.mobility.traffic import DAY_S
from repro.roadnet.route import BusRoute, BusStop
from repro.serving.wire import to_wire

from decks import Card
from fleet import Fleet


class LinearPredictor:
    """Eq. 8 and Eq. 9 recomputed by linear scans over a predictor's records.

    Historical means sum every historical record of the segment on each
    call, and the recent set is found by scanning every live record of
    the segment, so no mean cache, bisect window or prediction shortcut
    of :class:`ArrivalTimePredictor` takes part.  Additions are made in
    the same order as there, so a correct predictor matches it exactly.
    """

    def __init__(self, predictor: ArrivalTimePredictor) -> None:
        if predictor.route_residual_scale or not predictor.use_recent:
            raise ValueError("the reference covers plain Eq. 8 only")
        self.history = predictor.history
        self.live = predictor.live
        self.slots = predictor.slots
        self.window_s = predictor.recent_window_s
        self.max_recent = predictor.max_recent

    def _mean(self, segment_id: str, route_id: str | None, slot: int | None) -> float | None:
        total, n = 0.0, 0
        for r in self.history.records(segment_id):
            if route_id is not None and r.route_id != route_id:
                continue
            if slot is not None and self.slots.slot_of(r.t_enter) != slot:
                continue
            total += r.travel_time
            n += 1
        return total / n if n else None

    def _historical(self, segment_id: str, route_id: str, t: float) -> float | None:
        slot = self.slots.slot_of(t)
        for rid, sl in ((route_id, slot), (route_id, None), (None, slot), (None, None)):
            value = self._mean(segment_id, rid, sl)
            if value is not None:
                return value
        return None

    def _segment_time(self, segment_id: str, route_id: str, t: float) -> float | None:
        th = self._historical(segment_id, route_id, t)
        if th is None:
            return None
        done = [
            r for r in self.live.records(segment_id)
            if t - self.window_s <= r.t_exit <= t
        ]
        done.sort(key=lambda r: -r.t_exit)
        latest: dict[str, TravelTimeRecord] = {}
        for r in done:
            latest.setdefault(r.route_id, r)
        residuals = []
        for r in list(latest.values())[: self.max_recent]:
            th_k = self._historical(segment_id, r.route_id, r.t_enter)
            if th_k is not None:
                residuals.append(r.travel_time - th_k)
        correction = sum(residuals) / len(residuals) if residuals else 0.0
        return max(th + correction, 0.25 * th)

    def _advance(self, segment_id: str, route_id: str, cursor: float, fraction: float) -> float | None:
        remaining = fraction
        for _ in range(32):
            if remaining <= 1e-12:
                break
            tp = self._segment_time(segment_id, route_id, cursor)
            if tp is None:
                return None
            if self.slots.num_slots == 1:
                return cursor + tp * remaining
            to_boundary = self.slots.slot_span(self.slots.slot_of(cursor))[1] - cursor % DAY_S
            if tp * remaining <= to_boundary:
                return cursor + tp * remaining
            remaining -= to_boundary / tp
            cursor += to_boundary + 1e-9
        return cursor

    def predict_arrival(
        self, route: BusRoute, current_arc: float, t: float, stop: BusStop
    ) -> ArrivalPrediction | None:
        stop_arc = route.stop_arc_length(stop)
        if stop_arc <= current_arc + 1e-9:
            return None
        cursor = t
        segments_ahead = 0
        for seg in route.segments:
            seg_start = route.segment_start_arc(seg.segment_id)
            span_from = max(current_arc, seg_start)
            span_to = min(stop_arc, seg_start + seg.length)
            if span_to <= span_from:
                if seg_start > stop_arc:
                    break
                continue
            advanced = self._advance(
                seg.segment_id, route.route_id, cursor, (span_to - span_from) / seg.length
            )
            if advanced is None:
                return None
            cursor = advanced
            segments_ahead += 1
            if span_to >= stop_arc:
                break
        stops_ahead = sum(
            1
            for s in route.stops
            if current_arc + 1e-9 < route.stop_arc_length(s) <= stop_arc + 1e-9
        )
        return ArrivalPrediction(
            route_id=route.route_id,
            stop_id=stop.stop_id,
            t_query=t,
            t_arrival=cursor,
            segments_ahead=segments_ahead,
            stops_ahead=stops_ahead,
        )


def reference_server(fleet: Fleet) -> WiLocatorServer:
    """A twin that ingests the seed's whole span and answers by Eq. 8/9 scans."""
    twin = fleet.new_server()
    twin.ingest_many(fleet.scan_stream())
    twin.predictor = LinearPredictor(twin.predictor)
    return twin


def digest(raw: bytes) -> bytes:
    """What a checked response is kept as until its check runs."""
    return hashlib.blake2b(raw, digest_size=16).digest()


def ok_response(body: dict) -> bytes:
    """The exact bytes the front door sends for a 200 with ``body``."""
    return encode_response(Response(200, body))


def scan_ack(n: int) -> bytes:
    """The ack of a fully accepted batch of ``n`` reports."""
    return ok_response({"submitted": n, "accepted": n})


def linear_answer(server: WiLocatorServer, card: Card, now: float) -> bytes:
    """The response a correct server gives, from the linear reference."""
    if card.kind == "departures":
        entries = linear_departures(server, card.a, now, max_entries=10)
        return ok_response({"departures": [to_wire(e) for e in entries]})
    if card.kind == "trip_plan":
        options = linear_plan_trip(server, card.a, card.b, now)
        return ok_response({"options": [to_wire(o) for o in options]})
    if card.kind == "positions":
        positions = {}
        for session in linear_active_sessions(server, now, TraversalCounter()):
            last = session.trajectory.last
            if last is None:
                continue
            positions[session.session_key] = to_wire(
                LivePosition(
                    session_key=session.session_key,
                    route_id=session.route_id,
                    x=last.point.x,
                    y=last.point.y,
                    lat=None,
                    lon=None,
                    t=last.t,
                )
            )
        return ok_response({"positions": positions})
    session = server.sessions[card.a]
    route = server.routes[session.route_id]
    stop = next(s for s in route.stops if s.stop_id == card.b)
    last = session.trajectory.last
    pred = server.predictor.predict_arrival(route, last.arc_length, last.t, stop)
    return ok_response({"arrival": to_wire(pred)})


def is_ok(raw: bytes) -> bool:
    return raw.startswith(b"HTTP/1.1 200 ")


@dataclass
class Tally:
    """Operations attempted and failed, plus every failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.problems.append(f"{name}: {detail}" if detail else name)
        return ok

    def check_counts(self, label: str, got: dict[str, int], want: dict[str, int]) -> None:
        """One check per end count: ``got[name]`` must equal ``want[name]``."""
        for name, value in want.items():
            self.check(f"{label}{name}", got[name] == value, f"{got[name]} != {value}")

    def compare(self, name: str, got: bytes, want: bytes) -> bool:
        """Count one checked response as failed unless it matches exactly."""
        if got == want:
            return True
        self.failed += 1
        self.problems.append(f"{name}: response differs from the reference")
        return False


def self_test(got: bytes) -> bool:
    """Show that a corrupted response is counted as a failed operation."""
    tally = Tally(attempted=1)
    corrupted = got[:-2] + bytes([got[-2] ^ 0x01]) + got[-1:]
    tally.compare("self-test", corrupted, got)
    clean = Tally(attempted=1)
    clean.compare("self-test", got, got)
    return tally.failed == 1 and clean.failed == 0
