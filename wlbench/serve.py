"""The server process of ``front_door_mixed``.

Builds the seed's city, a 4-shard in-memory ``ClusterRouter`` over it and
the asyncio ``HttpServer`` front door, prints ``port <n>`` once it
listens, and serves until its stdin closes.  It then writes a JSON
summary (peak RSS, end state, and with ``--trace 1`` the span totals) to
``--out`` and exits.

Each ``reset`` line on stdin, sent between passes while no request is in
flight, prints the finished pass's summary as one JSON line and replaces
the cluster with a fresh, empty one (cold match caches, peak RSS
restarted), so the next pass starts from the state the first one did
without a new process.

The delta bus has no scheduler of its own, so this deployment pumps it
once after every scan batch, inside that batch's request: a read that
follows sees every traversal replicated, as the single-server twin does.

    python3 wlbench/serve.py --seed 1 --trace 0 --out summary.json
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

import checkout

SHARDS = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkout.require_src()

    from repro.cluster.build import build_cluster
    from repro.cluster.plan import ShardPlan
    from repro.cluster.router import ClusterRouter
    from repro.serving.app import make_app
    from repro.serving.http import HttpServer

    from fleet import Fleet
    from layers import trace_points
    from spans import GcWatch, Tracer

    fleet = Fleet(args.seed)
    live: dict = {}

    def rebuild() -> None:
        gc.unfreeze()
        live.clear()
        gc.collect()
        fleet.clear_match_caches()
        router = build_cluster(fleet.new_server(), ShardPlan.build(fleet.routes, SHARDS))
        live.update(router=router, app=make_app(router))
        gc.collect()
        gc.freeze()
        checkout.reset_peak_rss()

    def pass_summary() -> dict:
        nodes = live["router"].nodes.values()
        return {
            "vmhwm_kb": checkout.status_kb("VmHWM"),
            "live_records": sum(len(n.core.predictor.live) for n in nodes),
            "sessions_open": sum(len(n.core.sessions) for n in nodes),
        }

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(trace_points(ClusterRouter))

    def dispatch(request):
        router = live["router"]
        response = live["app"].dispatch(request)
        if request.path == "/v1/scans":
            if tracer is not None:
                tracer.count("cluster.bus_lag", router.bus.backlog())
            router.pump()
        return response

    http = HttpServer(dispatch)
    handle_s: list[float] = []
    clock: dict[str, float] = {}
    if tracer is not None:
        plain_handle = http.handle_bytes

        def handle(raw: bytes) -> bytes:
            if not clock:
                clock.update(cpu=time.process_time(), wall=time.perf_counter())
            t0 = time.perf_counter()
            resp = tracer.request(plain_handle, raw)
            handle_s.append(time.perf_counter() - t0)
            tracer.count("serving.http.bytes_in", len(raw))
            tracer.count("serving.http.bytes_out", len(resp))
            clock.update(cpu1=time.process_time(), wall1=time.perf_counter())
            return resp

        http.handle_bytes = handle

    rebuild()
    with GcWatch() as watch:
        asyncio.run(_serve(http, rebuild, pass_summary))

    summary = pass_summary()
    if tracer is not None:
        tracer.uninstall()
        hits, misses = fleet.svd_counts()
        summary.update(
            totals=tracer.totals,
            counts=tracer.counts,
            handle_s=handle_s,
            counters=live["router"].metrics_snapshot()["totals"],
            svd_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            gc_pause_ms=1e3 * watch.pause_s,
            gc_gen2=watch.gen2,
            cpu_share=(clock["cpu1"] - clock["cpu"]) / (clock["wall1"] - clock["wall"]),
        )
        tracer.dump(checkout.SCRATCH / f"spans-front_door_mixed-{args.seed}.jsonl")
    args.out.write_text(json.dumps(summary))
    return 0


async def _serve(http, rebuild, pass_summary) -> None:
    port = await http.start("127.0.0.1", 0)
    print(f"port {port}", flush=True)
    loop = asyncio.get_running_loop()
    while (line := await loop.run_in_executor(None, sys.stdin.buffer.readline)) == b"reset\n":
        finished = pass_summary()
        rebuild()
        print(json.dumps(finished), flush=True)
    await http.stop()


if __name__ == "__main__":
    sys.exit(main())
