"""The three workloads, each timed as whole passes of a fixed unit of work.

A pass is the same work on every commit: its size comes from the seed
and the simulated time only.  Passes repeat until the run's ``seconds``
are used up, taking turns on the run's CPUs.  Every pass sends the same
sequence of requests, and the gated throughput and median come from
each request position's fastest pass (:func:`best_of_passes`); the
pooled figures over every timed request are printed beside them.

* ``fleet_ingest`` — one pass replays the simulated hour of scans, in
  fixed-size ``POST /v1/scans`` batches, into a fresh
  :class:`DurableServer` (WAL on, fsync off, micro-batcher, periodic
  checkpoints) through ``HttpServer.handle_bytes``.
* ``rider_reads`` — set-up ingests the hour into a plain server; a pass
  is one shuffled deck of rider GETs through ``handle_bytes``.
* ``front_door_mixed`` — one server process serves a 4-shard in-memory
  cluster, emptied between passes; a pass sends it, over one keep-alive
  socket, the hour's scan batches interleaved with reads at each
  batch's time.  Client and server share one CPU per pass.

The collector runs (untimed) before every pass, so each pass starts
from the same heap.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.pipeline.durable import DurableServer
from repro.pipeline.wal import read_wal
from repro.serving.app import make_app
from repro.serving.http import HttpServer

import checkout
from decks import Card, Step, mixed_stream, rider_deck, rider_now
from fleet import Fleet, scan_request
from layers import layer_metrics, trace_points
from oracle import Tally, digest, is_ok, linear_answer, reference_server, scan_ack, self_test
from spans import GcWatch, Tracer

SETUP_REPEATS = {"fleet_ingest": 5, "rider_reads": 3, "front_door_mixed": 3}
"""Set-up runs this many times; ``setup_s`` is the median.
``fleet_ingest``'s set-up is short, so five cost less than
``rider_reads``' three."""
CHECK_EVERY = 37
"""Every 37th read is byte-compared with a reference answer."""
REFERENCE_DECKS = 3
"""Traced rider runs time this many decks untraced first, for the
tracing overhead ratio."""
MAX_BATCH = 64
CHECKPOINT_EVERY = 7200
"""Committed reports between checkpoints: 3 per simulated hour, so
checkpoint batches stay under a third of the slowest 1 %."""
WARM_BATCHES = 60
START_TIMEOUT_S = 120.0
"""How long a front_door_mixed server process may take to start."""


@dataclass
class Outcome:
    """What one run measured and checked."""

    tally: Tally = field(default_factory=Tally)
    e2e: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    """metric name -> (value, unit, samples)"""
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def add_latencies(out: Outcome, prefix: str, lat: list[float]) -> None:
    """``<prefix>_p50_ms`` and, from 1,000 samples, ``<prefix>_p99_ms``."""
    if not lat:
        return
    lat = sorted(lat)
    out.e2e[f"{prefix}_p50_ms"] = (1e3 * percentile(lat, 0.50), "ms", len(lat))
    if len(lat) >= 1000:
        out.e2e[f"{prefix}_p99_ms"] = (1e3 * percentile(lat, 0.99), "ms", len(lat))


def best_of_passes(lat: list[float], per_pass: int) -> list[float]:
    """Each request position's fastest latency over the run's passes.

    Every pass sends the same sequence of requests, so position ``i``
    carries the same work in each.  On a shared host whose CPUs slow
    down for stretches of a second or more, the fastest of several
    passes is the request's cost without the neighbours' interference,
    and it moves far less between runs than any figure that pools the
    slow samples.
    """
    passes = [lat[i : i + per_pass] for i in range(0, len(lat), per_pass)]
    return [min(column) for column in zip(*passes)]


def add_common(
    out: Outcome, setups: list[float], lat: list[float], per_pass: int, peak_kb: float, peaks: int
) -> None:
    """The gated metrics, from the best of passes; pooled figures beside them."""
    best = best_of_passes(lat, per_pass)
    n = len(lat)
    out.e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    out.e2e["requests_per_s"] = (len(best) / sum(best), "req/s", n)
    out.e2e["latency_p50_ms"] = (1e3 * percentile(sorted(best), 0.50), "ms", n)
    out.e2e["peak_rss_mb"] = (peak_kb / 1024.0, "MB", peaks)
    out.e2e["pooled_requests_per_s"] = (n / sum(lat), "req/s", n)
    add_latencies(out, "pooled_latency", lat)
    by_cpu: dict[int, list[float]] = {}
    for turn, i in enumerate(range(0, n, per_pass)):
        cpu = checkout.CPUS[turn % len(checkout.CPUS)]
        by_cpu.setdefault(cpu, []).append(1e3 * statistics.median(lat[i : i + per_pass]))
    out.notes.append(
        "pass p50 ms by CPU: "
        + "; ".join(
            f"cpu{cpu} n={len(v)} min={min(v):.3f} median={statistics.median(v):.3f} max={max(v):.3f}"
            for cpu, v in sorted(by_cpu.items())
        )
    )


def timed_setups(build: Callable[[], tuple], repeats: int) -> tuple[tuple, list[float]]:
    """Run ``build`` ``repeats`` times from the same heap; keep the last."""
    times = []
    state: tuple = ()
    for turn in range(repeats):
        checkout.pin_cpu(turn)
        state = ()
        gc.collect()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()
    return state, times


class TracedPhase:
    """The span wrappers, collector watch and CPU clock of a traced phase."""

    def __init__(self, backend_class: type) -> None:
        self.tracer = Tracer()
        self.tracer.install(trace_points(backend_class))
        self.watch = GcWatch().__enter__()
        self.cpu0, self.wall0 = time.process_time(), time.perf_counter()

    def finish(self) -> dict:
        ctx = {
            "gc_pause_ms": 1e3 * self.watch.pause_s,
            "gc_gen2": self.watch.gen2,
            "cpu_share": (time.process_time() - self.cpu0) / (time.perf_counter() - self.wall0),
        }
        self.watch.__exit__()
        self.tracer.uninstall()
        return ctx


def _collect(phase: TracedPhase | None) -> None:
    """The untimed collection before a pass; never counted as the program's."""
    if phase is None:
        gc.collect()
    else:
        phase.watch.collect()


def end_counts(counters: dict, live: int) -> dict[str, int]:
    """The end counts every workload checks, as the program reports them."""
    return {
        "sessions opened": counters.get("ingest.sessions_opened", 0),
        "traversals extracted": counters.get("ingest.traversals_extracted", 0),
        "live records": live,
    }


# -- fleet_ingest -------------------------------------------------------------


def expected_checkpoints(sizes: list[int]) -> int:
    """Checkpoints ``DurableServer`` writes when each batch commits whole."""
    since = written = 0
    for n in sizes:
        since += n
        if since >= CHECKPOINT_EVERY:
            written += 1
            since = 0
    return written


def fleet_ingest(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    def build() -> tuple:
        fleet = Fleet(seed)
        batches = fleet.scan_batches()
        sizes = [len(b) for b in batches]
        raws = [scan_request(b) for b in batches]
        harness_kb = (sys.getsizeof(raws) + sum(map(sys.getsizeof, raws))) / 1024
        acks = [scan_ack(n) for n in sizes]
        return fleet, raws, sizes, acks, harness_kb

    (fleet, raws, sizes, acks, harness_kb), setups = timed_setups(
        build, SETUP_REPEATS["fleet_ingest"]
    )
    # Warm-up, untimed: it writes to disk, whose speed is not the program's.
    _ingest_pass(fleet, raws[:WARM_BATCHES], acks, scratch / "warm", Tally(), None, [])
    expected = fleet.expected(fleet.end_t)
    want = expected.end_counts() | {
        "WAL records": expected.reports,
        "checkpoints written": expected_checkpoints(sizes),
    }
    checkout.reset_peak_rss()

    out = Outcome()
    tally = out.tally
    lat: list[float] = []
    traced_lat: list[float] = []
    phase: TracedPhase | None = None
    ctx: dict = {"wal_bytes": 0, "traversals": 0}
    passes = 0
    start = time.perf_counter()
    while passes < 1 + trace or time.perf_counter() - start < seconds:
        checkout.pin_cpu(passes)
        _collect(phase)
        if trace and passes == 1:
            phase = TracedPhase(DurableServer)
            svd0 = fleet.svd_counts()
        tracer = phase.tracer if phase is not None else None
        got = _ingest_pass(
            fleet, raws, acks, scratch / f"pass{passes}", tally, tracer,
            lat if phase is None else traced_lat,
            disk_check=passes == 0,
        )
        tally.check_counts(f"pass {passes}: ", got, want)
        if phase is not None:
            ctx["wal_bytes"] += got["wal bytes"]
            ctx["traversals"] += got["traversals extracted"]
            ctx.update(sessions_open=got["sessions opened"], live_records=got["live records"])
        passes += 1
    tally.attempted = passes * len(raws)
    if phase is not None:
        ctx.update(phase.finish())
        hits, misses = (a - b for a, b in zip(fleet.svd_counts(), svd0))
        traced_passes = passes - 1
        ctx.update(
            requests=len(traced_lat),
            reads=0,
            reports=traced_passes * sum(sizes),
            scan_requests=len(traced_lat),
            svd_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            overhead_ratio=(sum(traced_lat) / traced_passes) / sum(lat),
        )
        out.layers = layer_metrics(phase.tracer.totals, phase.tracer.counts, ctx)
        phase.tracer.dump(checkout.SCRATCH / f"spans-fleet_ingest-{seed}.jsonl")
        return out
    add_common(out, setups, lat, len(raws), checkout.status_kb("VmHWM") - harness_kb, 1)
    add_latencies(out, "scan", lat)
    reports = passes * sum(sizes)
    out.e2e["reports_per_s"] = (reports / sum(lat), "reports/s", reports)
    out.notes.append(f"passes={passes} batches/pass={len(raws)} reports/pass={sum(sizes)}")
    return out


def _ingest_pass(
    fleet: Fleet,
    raws: list[bytes],
    acks: list[bytes],
    data_dir: Path,
    tally: Tally,
    tracer: Tracer | None,
    lat: list[float],
    *,
    disk_check: bool = False,
) -> dict:
    """One hour of scans into a fresh durable server; returns end counts."""
    fleet.clear_match_caches()
    server = fleet.new_server()
    durable = DurableServer(
        server,
        data_dir,
        max_batch=MAX_BATCH,
        max_delay_s=60.0,
        checkpoint_every=CHECKPOINT_EVERY,
        fsync=False,
        recover=False,
    )
    handle = HttpServer(make_app(durable).dispatch).handle_bytes
    perf = time.perf_counter
    for raw, ack in zip(raws, acks):
        t0 = perf()
        resp = handle(raw) if tracer is None else tracer.request(handle, raw)
        lat.append(perf() - t0)
        if tracer is not None:
            tracer.count("serving.http.bytes_in", len(raw))
            tracer.count("serving.http.bytes_out", len(resp))
        if resp != ack:
            tally.failed += 1
            tally.check("scan ack", False, resp[-80:].decode("latin-1"))
    durable.close(checkpoint=False)
    counters = server.metrics.counters
    wal_dir = data_dir / "wal"
    got = end_counts(counters, len(server.predictor.live)) | {
        "WAL records": counters.get("wal.appends", 0),
        "checkpoints written": counters.get("checkpoint.writes", 0),
        "wal bytes": sum(p.stat().st_size for p in wal_dir.iterdir()),
    }
    if disk_check:
        got["WAL records"] = read_wal(wal_dir).salvaged
    shutil.rmtree(data_dir)
    return got


# -- rider_reads --------------------------------------------------------------


def rider_reads(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    def build() -> tuple:
        fleet = Fleet(seed)
        server = fleet.new_server()
        server.ingest_many(fleet.scan_stream())
        deck = rider_deck(fleet, seed)
        handle = HttpServer(make_app(server).dispatch).handle_bytes
        for i, card in enumerate(deck.cards_for(0)):  # warm-up: mean cache, index heap
            handle(card.request(rider_now(fleet, i, 0)))
        return fleet, server, deck, handle

    (fleet, server, deck, handle), setups = timed_setups(build, SETUP_REPEATS["rider_reads"])
    checkout.reset_peak_rss()

    out = Outcome()
    tally = out.tally
    lat: list[float] = []
    by_kind: dict[str, list[float]] = {}
    samples: list[tuple[Card, float, bytes]] = []
    """(card, now, response digest) of every checked read"""
    first_sample = b""
    traced_lat: list[float] = []
    phase: TracedPhase | None = None
    perf = time.perf_counter
    passes = 0
    start = perf()
    while passes < REFERENCE_DECKS * (1 + trace) or perf() - start < seconds:
        checkout.pin_cpu(passes)
        _collect(phase)
        if trace and passes == REFERENCE_DECKS:
            phase = TracedPhase(type(server))
            handle = HttpServer(make_app(server).dispatch).handle_bytes
            examined0 = server.metrics.counter("query.traversals")
        tracer = phase.tracer if phase is not None else None
        cards = deck.cards_for(passes + 1)
        nows = [rider_now(fleet, i, passes + 1) for i in range(len(cards))]
        raws = [card.request(now) for card, now in zip(cards, nows)]
        sink = lat if tracer is None else traced_lat
        for i, raw in enumerate(raws):
            t0 = perf()
            resp = handle(raw) if tracer is None else tracer.request(handle, raw)
            dt = perf() - t0
            sink.append(dt)
            if tracer is None:
                by_kind.setdefault(cards[i].kind, []).append(dt)
            else:
                tracer.count("serving.http.bytes_in", len(raw))
                tracer.count("serving.http.bytes_out", len(resp))
            if not is_ok(resp):
                tally.failed += 1
                tally.check(f"read {cards[i].target(nows[i])}", False, resp[:40].decode("latin-1"))
            elif (passes * len(cards) + i) % CHECK_EVERY == 0:
                samples.append((cards[i], nows[i], digest(resp)))
                first_sample = first_sample or resp
        passes += 1
    tally.attempted = passes * len(cards)
    peak_kb = checkout.status_kb("VmHWM")
    if phase is not None:
        ctx = phase.finish()
        untraced = sum(lat) / len(lat)
        ctx.update(
            requests=len(traced_lat),
            reads=len(traced_lat),
            reports=0,
            scan_requests=0,
            sessions_examined=server.metrics.counter("query.traversals") - examined0,
            sessions_open=len(server.sessions),
            live_records=len(server.predictor.live),
            overhead_ratio=(sum(traced_lat) / len(traced_lat)) / untraced,
        )
        out.layers = layer_metrics(phase.tracer.totals, phase.tracer.counts, ctx)
        phase.tracer.dump(checkout.SCRATCH / f"spans-rider_reads-{seed}.jsonl")

    # Checked after timing and after the peak is read: the twin would
    # otherwise count towards the serving process's memory.
    reference = reference_server(fleet)
    for card, now, kept in samples:
        tally.compare(f"read {card.target(now)}", kept, digest(linear_answer(reference, card, now)))
    tally.check("reads checked", bool(samples))
    tally.check("self-test", bool(first_sample) and self_test(first_sample))
    tally.check_counts(
        "",
        end_counts(server.metrics.counters, len(server.predictor.live)),
        fleet.expected(fleet.end_t).end_counts(),
    )
    if trace:
        return out
    add_common(out, setups, lat, len(cards), peak_kb, 1)
    add_latencies(out, "read", lat)
    for kind, kind_lat in sorted(by_kind.items()):
        add_latencies(out, f"read.{kind}", kind_lat)
    out.notes.append(
        f"passes={passes} reads/pass={len(cards)} checked={len(samples)} "
        f"arrival pairs={len(deck.arrivals)} "
        f"sessions={len(server.sessions)} active={len(server.active_sessions(now=fleet.end_t))}"
    )
    return out


# -- front_door_mixed ---------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 client connection, closed loop."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def roundtrip(self, raw: bytes) -> bytes:
        self.sock.sendall(raw)
        buf = self.buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            buf += self._recv()
        i = buf.index(b"Content-Length: ") + 16
        total = end + 4 + int(buf[i : buf.index(b"\r\n", i)])
        while len(buf) < total:
            buf += self._recv()
        self.buf = buf[total:]
        return buf[:total]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """``serve.py`` in its own process, pinned to the seed's hash seed."""

    def __init__(self, seed: int, trace: bool, summary: Path) -> None:
        self.summary = summary
        env = dict(os.environ, PYTHONHASHSEED=checkout.hash_seed(seed))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(checkout.HERE / "serve.py"),
                "--seed", str(seed),
                "--trace", "1" if trace else "0",
                "--out", str(summary),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def port(self) -> int:
        """The port the server listens on, once it has built its city."""
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"port "):
            raise RuntimeError("server process did not start")
        return int(line.split()[1])

    def reset(self) -> dict:
        """Replace its cluster with an empty one; returns the finished pass's summary."""
        self.proc.stdin.write(b"reset\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"{"):
            raise RuntimeError("server process did not reset")
        return json.loads(line)

    def stop(self) -> dict:
        """Close its stdin (the stop signal) and wait; returns its summary."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.summary.exists():
            return {}
        return json.loads(self.summary.read_text())


def _start_server(seed: int, trace: bool, scratch: Path, index: int):
    """Start a server process and wait until it answers; this is set-up."""
    t0 = time.perf_counter()
    server = ServerProcess(seed, trace, scratch / f"server{index}.json")
    try:
        conn = Connection(server.port())
        if not is_ok(conn.roundtrip(b"GET /health HTTP/1.1\r\nHost: bench\r\n\r\n")):
            raise RuntimeError("server is not healthy")
    except BaseException:
        server.stop()
        raise
    return server, conn, time.perf_counter() - t0


def front_door_mixed(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    out = Outcome()
    tally = out.tally
    perf = time.perf_counter
    t0 = perf()
    fleet = Fleet(seed)
    steps = mixed_stream(fleet, seed)
    stream_s = perf() - t0
    setups: list[float] = []
    peaks: list[int] = []
    lat: list[float] = []
    scan_lat: list[float] = []
    read_lat: list[float] = []
    first_samples: dict[int, bytes] = {}
    reports = 0
    traced: dict = {}
    passes = 0
    server: ServerProcess | None = None
    conn: Connection | None = None
    try:
        # Set-up: start the untraced server this many times; keep the last.
        for turn in range(SETUP_REPEATS["front_door_mixed"]):
            if server is not None:
                conn.close()
                server.stop()
                server = None
            checkout.pin_cpu(turn)
            server, conn, start_s = _start_server(seed, False, scratch, turn)
            setups.append(stream_s + start_s)
        start = perf()
        while passes < 1 + trace or perf() - start < seconds:
            traced_pass = trace and passes >= 1
            if traced_pass:
                # One traced server process per pass: its summary holds the spans.
                conn.close()
                server.stop()
                server = None
                server, conn, _ = _start_server(seed, True, scratch, passes)
            # Client and server share one CPU.  With one connection in a
            # closed loop they never run at once, and on a VM a wake-up
            # across vCPUs costs 0.5-2 ms of host-dependent delay that
            # would swamp the program's own cost.
            checkout.pin_cpu(passes, server.proc.pid)
            rtts = _mixed_pass(conn, steps, tally, first_samples, passes)
            metrics = json.loads(
                conn.roundtrip(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n").partition(b"\r\n\r\n")[2]
            )
            summary = server.stop() if traced_pass else server.reset()
            tally.attempted += len(steps)
            totals = metrics["backend"]["totals"]
            tally.check_counts(
                f"pass {passes}: ",
                end_counts(totals, summary.get("live_records")),
                fleet.expected(fleet.end_t).end_counts(totals.get("cluster.deltas_applied", 0)),
            )
            if traced_pass:
                handle_s = summary.get("handle_s", [])[1 : 1 + len(steps)]
                traced = dict(summary, traced_wall=sum(rtts))
                traced["socket_overhead_us"] = 1e6 * (sum(rtts) - sum(handle_s)) / len(rtts)
            else:
                lat.extend(rtts)
                for step, rtt in zip(steps, rtts):
                    (scan_lat if step.kind == "scans" else read_lat).append(rtt)
                    reports += step.reports
                peaks.append(summary.get("vmhwm_kb", 0))
            passes += 1
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.stop()
    _twin_check(tally, fleet, steps, first_samples)
    if trace:
        reads = sum(1 for s in steps if s.kind != "scans")
        ctx = {
            "requests": len(steps),
            "reads": reads,
            "reports": sum(s.reports for s in steps),
            "scan_requests": len(steps) - reads,
            "socket_overhead_us": traced["socket_overhead_us"],
            "socket_requests": len(steps),
            "traversals": traced["counters"].get("ingest.traversals_extracted", 0),
            "sessions_examined": traced["counters"].get("query.traversals", 0),
            "overhead_ratio": traced["traced_wall"] / sum(lat),
        }
        for key in ("sessions_open", "live_records", "svd_hit_rate", "gc_pause_ms", "gc_gen2", "cpu_share"):
            ctx[key] = traced[key]
        out.layers = layer_metrics(traced["totals"], traced["counts"], ctx)
        return out
    add_common(out, setups, lat, len(steps), statistics.median(peaks), len(peaks))
    add_latencies(out, "scan", scan_lat)
    add_latencies(out, "read", read_lat)
    out.e2e["reports_per_s"] = (reports / sum(lat), "reports/s", reports)
    out.notes.append(f"passes={len(peaks)} requests/pass={len(steps)}")
    return out


def _mixed_pass(
    conn: Connection, steps: list[Step], tally: Tally, first_samples: dict[int, bytes], index: int
) -> list[float]:
    """Send every step once, closed loop; returns the round-trip times.

    The first pass keeps every checked read; later passes must match it.
    """
    perf = time.perf_counter
    rtts: list[float] = []
    gc.collect()
    gc.freeze()
    try:
        for i, step in enumerate(steps):
            t0 = perf()
            resp = conn.roundtrip(step.raw)
            rtts.append(perf() - t0)
            if step.kind == "scans":
                if resp != scan_ack(step.reports):
                    tally.failed += 1
                    tally.check("scan ack", False, resp[-80:].decode("latin-1"))
            elif not is_ok(resp):
                tally.failed += 1
                tally.check(f"read {step.card.target(step.now)}", False, resp[:40].decode("latin-1"))
            elif i % CHECK_EVERY == 0:
                if index == 0:
                    first_samples[i] = resp
                else:
                    tally.compare(f"pass {index} read {i}", resp, first_samples.get(i, b""))
    finally:
        gc.unfreeze()
    return rtts


def _twin_check(tally: Tally, fleet: Fleet, steps: list[Step], samples: dict[int, bytes]) -> None:
    """Replay the stream into a single plain server; compare sampled reads.

    Each sampled cluster answer must equal, byte for byte, the twin's
    answer to the same request after the same scan prefix.
    """
    twin = fleet.new_server()
    handle = HttpServer(make_app(twin).dispatch).handle_bytes
    for i, step in enumerate(steps):
        if step.kind == "scans":
            handle(step.raw)
        elif i in samples:
            tally.compare(f"twin read {step.card.target(step.now)}", samples[i], handle(step.raw))
    tally.check("self-test", bool(samples) and self_test(next(iter(samples.values()))))


WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "fleet_ingest": fleet_ingest,
    "rider_reads": rider_reads,
    "front_door_mixed": front_door_mixed,
}
