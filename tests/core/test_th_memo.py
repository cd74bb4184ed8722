"""Lifetime of the predictor's resolved-``Th`` memo.

``ArrivalTimePredictor`` memoises ``Th(i, j, l)`` per (segment, route,
slot) for one revision of one history store.  Whatever happens to the
serving state — a model install, a shadow predictor beside the serving
one, an elastic prune that replaces ``history`` and a handoff that adds
records to it in place — a warm predictor must answer byte for byte
like a cold one built from the same state.
"""

from __future__ import annotations

import pytest

from repro.cluster.plan import ShardPlan
from repro.core.arrival.history import TravelTimeRecord
from repro.core.arrival.predictor import ArrivalTimePredictor
from repro.elastic.engine import ReshardEngine
from repro.elastic.machine import COMMITTED
from repro.eval.synth_city import build_linear_city, build_overlap_city
from repro.lifecycle.model import TrainedModel

from tests.elastic.conftest import TWO_SHARDS, build_durable, feed


def _cold(predictor: ArrivalTimePredictor) -> ArrivalTimePredictor:
    """A fresh predictor over the same history, slots, knobs and live."""
    cold = ArrivalTimePredictor(
        predictor.history,
        predictor.slots,
        recent_window_s=predictor.recent_window_s,
        max_recent=predictor.max_recent,
        use_recent=predictor.use_recent,
        route_residual_scale=predictor.route_residual_scale,
    )
    cold.live = predictor.live
    return cold


def _fixes(servers) -> list[tuple[str, str, float, float]]:
    """(session, route, arc, t) of every bus's last fix."""
    out = []
    for server in servers:
        for key in sorted(server.sessions):
            session = server.sessions[key]
            last = session.trajectory.last
            if last is not None:
                out.append((key, session.route_id, last.arc_length, last.t))
    return out


def _board(predictor, routes, fixes) -> list[tuple[str, str, str]]:
    """Every stop ahead of every fix, now and half an hour on."""
    out = []
    for key, route_id, arc, t in fixes:
        for dt in (0.0, 1800.0):
            for p in predictor.predict_all_stops(routes[route_id], arc, t + dt):
                out.append((key, p.stop_id, repr(p.t_arrival)))
    return out


def _assert_like_cold(predictor, routes, fixes) -> None:
    warm = _board(predictor, routes, fixes)
    assert warm
    assert warm == _board(_cold(predictor), routes, fixes)


def _late_traversals(predictor, routes, t) -> None:
    """Fresh Eq. 8 evidence on every route's first segment."""
    for route in routes.values():
        seg = route.segments[0].segment_id
        predictor.observe(
            TravelTimeRecord(route.route_id, seg, t_enter=t - 300.0, t_exit=t)
        )


@pytest.fixture()
def linear_city():
    city = build_linear_city(
        num_routes=3,
        sessions_per_route=3,
        reports_per_session=6,
        stops_per_route=6,
        segments_per_route=5,
        route_length_m=1500.0,
        hub_every=3,
        aps_per_route=8,
        move_m_per_report=180.0,
    )
    city.replay()
    return city


@pytest.mark.lifecycle
def test_model_install_answers_like_a_cold_predictor(linear_city):
    server, routes = linear_city.server, linear_city.routes
    fixes = _fixes([server])
    _board(server.predictor, routes, fixes)  # warm the serving memo
    first = sorted(routes)[0]
    model = TrainedModel(
        history=server.predictor.history.filtered(
            lambda r: r.route_id != first
        ),
        slots=server.slots,
        delta_state=server.delta.state_dict(),
    )
    model.install(server, version="m-next")
    _assert_like_cold(server.predictor, routes, fixes)
    _late_traversals(server.predictor, routes, linear_city.now)
    _assert_like_cold(server.predictor, routes, fixes)


@pytest.mark.lifecycle
def test_shadow_predictor_answers_like_a_cold_predictor(linear_city):
    server, routes = linear_city.server, linear_city.routes
    fixes = _fixes([server])
    _board(server.predictor, routes, fixes)
    last = sorted(routes)[-1]
    model = TrainedModel(
        history=server.predictor.history.filtered(
            lambda r: r.route_id != last
        ),
        slots=server.slots,
        delta_state=server.delta.state_dict(),
    )
    shadow = model.shadow_predictor(server)
    assert shadow.live is server.predictor.live
    _assert_like_cold(shadow, routes, fixes)
    _late_traversals(server.predictor, routes, linear_city.now)
    _assert_like_cold(shadow, routes, fixes)
    _assert_like_cold(server.predictor, routes, fixes)


@pytest.mark.elastic
@pytest.mark.cluster
def test_elastic_prune_then_handoff_answers_like_a_cold_predictor(tmp_path):
    city = build_overlap_city(
        num_pairs=2,
        feeder_sessions=2,
        query_sessions=2,
        feeder_reports=6,
        query_reports=2,
    )
    routes = city.routes
    router = build_durable(
        city,
        ShardPlan.from_assignment(TWO_SHARDS, routes),
        tmp_path / "cluster",
    )
    feed(router, city)
    fixes = _fixes(node.core for node in router.nodes.values())
    # Shard 1 serves B00 and B01; its memo is warm for both.
    core = router.nodes[1].core
    _board(core.predictor, routes, fixes)

    split = {"A00": 0, "A01": 0, "B00": 2, "B01": 1}
    engine = ReshardEngine(
        router,
        ShardPlan.from_assignment(split, routes),
        tmp_path / "split",
        data_root=tmp_path / "cluster",
    )
    assert engine.run(now=city.now) == COMMITTED
    # The prune replaced shard 1's history without B00's segments; asking
    # about B00 anyway memoises the answers of the pruned store.
    assert core.predictor is router.nodes[1].core.predictor
    _assert_like_cold(core.predictor, routes, fixes)

    merge = ReshardEngine(
        router,
        ShardPlan.from_assignment(TWO_SHARDS, routes),
        tmp_path / "merge",
    )
    assert merge.run(now=city.now) == COMMITTED
    # The handoff added B00's history back in place.
    assert core.predictor is router.nodes[1].core.predictor
    _assert_like_cold(core.predictor, routes, fixes)
