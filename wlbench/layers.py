"""Trace points and the per-layer metrics computed from them.

Every span wraps a public function of one layer; the span names group
into the layers of the repository (``serving.http``, ``serving.app``,
``guard``, ``pipeline``, ``core``, ``arrival``, ``api``, ``index``,
``cluster``).  :func:`layer_metrics` turns span totals into the
per-layer metrics that ``BENCHMARK.json`` lists; every workload reports
all of them, with zero calls (and zero time) for layers it bypasses.
"""

from __future__ import annotations

from pathlib import Path

import repro.pipeline.durable as durable_module
import repro.serving.app as app_module
import repro.serving.http as http_module
from repro.cluster.bus import DeltaBus
from repro.cluster.router import ClusterRouter
from repro.core.arrival.history import TravelTimeStore
from repro.core.arrival.predictor import ArrivalTimePredictor
from repro.core.positioning.locator import SVDPositioner
from repro.core.server.api import RiderAPI
from repro.core.server.server import WiLocatorServer
from repro.core.server.session import BusSession
from repro.guard.admission import IngestGuard
from repro.pipeline.batcher import MicroBatcher
from repro.pipeline.wal import WalWriter
from repro.roadnet.index import RouteIndex
from repro.serving.app import ENDPOINTS, ServingApp

READ_ENDPOINTS = ("departures", "trip_plan", "positions", "arrival")
_ENDPOINT_OF_PATH = {ep.path: ep.name for ep in ENDPOINTS}

_ROUTER_CALLS = ("departures", "plan_trip", "live_positions", "predict_arrival", "ingest_many")


def _dispatch_name(args: tuple) -> str:
    return "serving.app.dispatch." + _ENDPOINT_OF_PATH.get(args[1].path, "other")


def _count_rejects(tracer, args, decision) -> None:
    if not decision:
        tracer.count("guard.rejected")


def _count_batch(tracer, args, n) -> None:
    if n:
        tracer.count("pipeline.batches")
        tracer.count("pipeline.batched_reports", n)


def _checkpoint_size(tracer, args, path) -> None:
    tracer.counts["pipeline.checkpoint_bytes_last"] = Path(path).stat().st_size


def _count_keys(tracer, args, keys) -> None:
    tracer.count("index.route_keys", len(keys))


def _count_active(tracer, args, sessions) -> None:
    tracer.count("index.route_active", len(sessions))


def _count_delivered(tracer, args, n) -> None:
    tracer.count("cluster.deltas_delivered", n)


def trace_points(backend_class: type) -> list[tuple]:
    """Every ``(owner, attribute, span name[, after])`` to patch.

    ``backend_class`` is the serving backend whose ``metrics_snapshot``
    the scan handler calls for its counter-delta ack.
    """
    return [
        (http_module, "parse_request", "serving.http.parse"),
        (http_module, "encode_response", "serving.http.encode"),
        (ServingApp, "dispatch", _dispatch_name),
        (app_module, "to_wire", "serving.wire.to_wire"),
        (backend_class, "metrics_snapshot", "serving.app.ack_snapshot"),
        (IngestGuard, "admit", "guard.admit", _count_rejects),
        (WalWriter, "flush", "pipeline.wal_flush"),
        (MicroBatcher, "flush", "pipeline.batch_flush", _count_batch),
        (durable_module, "write_checkpoint", "pipeline.checkpoint", _checkpoint_size),
        (WiLocatorServer, "ingest_admitted", "core.ingest"),
        (BusSession, "process", "core.position_fix"),
        (SVDPositioner, "locate", "core.locate"),
        (ArrivalTimePredictor, "predict_arrival", "arrival.predict"),
        (TravelTimeStore, "recent", "arrival.recent"),
        (TravelTimeStore, "add", "arrival.store_add"),
        (RiderAPI, "departures", "api.departures"),
        (RiderAPI, "plan_trip", "api.plan_trip"),
        (RiderAPI, "live_positions", "api.live_positions"),
        (RouteIndex, "active_session_keys", "index.active_session_keys"),
        (RouteIndex, "session_keys_on_route", "index.session_keys_on_route", _count_keys),
        (WiLocatorServer, "sessions_on_route", "core.sessions_on_route", _count_active),
        *((ClusterRouter, name, f"cluster.router.{name}") for name in _ROUTER_CALLS),
        (DeltaBus, "pump", "cluster.bus_pump", _count_delivered),
    ]


def layer_metrics(totals: dict, counts: dict, ctx: dict) -> dict[str, float]:
    """The per-layer metric values from span totals, counts and run context.

    ``totals`` maps span name -> [calls, total s, self s]; ``ctx`` carries
    the workload's request, read and report counts, the end state and
    the process figures.
    """

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us(name: str) -> float:
        return 1e6 * per(total(name), calls(name))

    def self_us(name: str) -> float:
        return 1e6 * per(self_s(name), calls(name))

    requests = ctx["requests"]
    reads = ctx["reads"]
    reports = ctx["reports"]
    scans = ctx["scan_requests"]
    router_reads = sum(
        calls(f"cluster.router.{name}") for name in ("departures", "plan_trip", "live_positions")
    )
    router_calls = sum(calls(f"cluster.router.{name}") for name in _ROUTER_CALLS)
    router_self = sum(self_s(f"cluster.router.{name}") for name in _ROUTER_CALLS)
    api_calls = calls("api.departures") + calls("api.plan_trip") + calls("api.live_positions")
    out = {
        "serving.http.parse_us": us("serving.http.parse"),
        "serving.http.encode_us": us("serving.http.encode"),
        "serving.http.bytes_in": per(counts.get("serving.http.bytes_in", 0), requests),
        "serving.http.bytes_out": per(counts.get("serving.http.bytes_out", 0), requests),
        "serving.app.dispatch_self_us.scans": self_us("serving.app.dispatch.scans"),
        "serving.app.ack_snapshot_calls": per(calls("serving.app.ack_snapshot"), scans),
        "serving.app.ack_snapshot_us": us("serving.app.ack_snapshot"),
        "serving.wire.to_wire_us": us("serving.wire.to_wire"),
        "serving.socket.overhead_us": ctx.get("socket_overhead_us", 0.0),
        "serving.socket.requests": ctx.get("socket_requests", 0),
        "guard.admit_us": us("guard.admit"),
        "guard.admit_calls": calls("guard.admit"),
        "guard.admit_calls_per_report": per(calls("guard.admit"), reports),
        "guard.reject_share": per(counts.get("guard.rejected", 0), calls("guard.admit")),
        "pipeline.wal_flush_us": us("pipeline.wal_flush"),
        "pipeline.wal_flushes": calls("pipeline.wal_flush"),
        "pipeline.wal_bytes_per_report": per(ctx.get("wal_bytes", 0), reports),
        "pipeline.batch_size_mean": per(
            counts.get("pipeline.batched_reports", 0), counts.get("pipeline.batches", 0)
        ),
        "pipeline.checkpoint_ms": 1e3 * per(total("pipeline.checkpoint"), calls("pipeline.checkpoint")),
        "pipeline.checkpoints": calls("pipeline.checkpoint"),
        "pipeline.checkpoint_bytes_last": counts.get("pipeline.checkpoint_bytes_last", 0),
        "pipeline.checkpoint_share": per(total("pipeline.checkpoint"), total("request")),
        "core.ingest_self_us": self_us("core.ingest"),
        "core.position_fix_us": us("core.position_fix"),
        "core.locate_us": us("core.locate"),
        "core.svd_match_hit_rate": ctx.get("svd_hit_rate", 0.0),
        "core.traversals_per_report": per(ctx.get("traversals", 0), reports),
        "core.sessions_open": ctx.get("sessions_open", 0),
        "core.live_records": ctx.get("live_records", 0),
        "arrival.predict_calls": calls("arrival.predict"),
        "arrival.predict_calls_per_read": per(calls("arrival.predict"), reads),
        "arrival.predict_us": us("arrival.predict"),
        "arrival.recent_calls_per_read": per(calls("arrival.recent"), reads),
        "arrival.recent_us": us("arrival.recent"),
        "arrival.store_add_us": us("arrival.store_add"),
        "api.departures_us": us("api.departures"),
        "api.plan_trip_us": us("api.plan_trip"),
        "api.live_positions_us": us("api.live_positions"),
        "api.sessions_examined_per_read": per(ctx.get("sessions_examined", 0), reads),
        "index.active_session_keys_us": us("index.active_session_keys"),
        "index.active_share": per(
            counts.get("index.route_active", 0), counts.get("index.route_keys", 0)
        ),
        "cluster.router_self_us": 1e6 * per(router_self, router_calls),
        "cluster.fanout_per_read": per(api_calls, router_reads),
        "cluster.bus_pumps": calls("cluster.bus_pump"),
        "cluster.bus_pump_us": us("cluster.bus_pump"),
        "cluster.deltas_per_pump": per(
            counts.get("cluster.deltas_delivered", 0), calls("cluster.bus_pump")
        ),
        "cluster.bus_lag": per(counts.get("cluster.bus_lag", 0), calls("cluster.bus_pump")),
        "process.gc_pause_ms": ctx.get("gc_pause_ms", 0.0),
        "process.gc_gen2_collections": ctx.get("gc_gen2", 0),
        "process.cpu_share": ctx.get("cpu_share", 0.0),
        "trace.overhead_ratio": ctx.get("overhead_ratio", 0.0),
        "trace.unattributed_share": per(self_s("request"), total("request")),
    }
    for ep in READ_ENDPOINTS:
        out[f"serving.app.dispatch_self_us.{ep}"] = self_us(f"serving.app.dispatch.{ep}")
    return out
