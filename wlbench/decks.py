"""Seeded request decks: what the rider reads and the mixed stream ask.

A *card* names one read (kind plus targets); its ``now`` is attached when
the card is turned into request bytes.  Every deck carries exactly the
``READ_MIX`` proportions, shuffled by the seed, so every run of a
workload issues the same mix.

The mix is the request mix of the repository's own load generator,
``repro.serving.loadgen._MIX``: scans 0.40, departures 0.30, positions
0.15 and trip_plan 0.15 of all requests.  That generator has no
per-session arrival read.  This benchmark adds one with the weight of
the generator's lightest read kinds; the arrival share is an assumption,
as neither the paper nor the repository states a rate for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle
from urllib.parse import quote

from fleet import Fleet, Trip, http_request, scan_request

READ_MIX = (("departures", 6), ("positions", 3), ("trip_plan", 3), ("arrival", 3))
"""Cards of each kind per block of fifteen reads: loadgen's read shares
(departures 0.30, positions and trip_plan 0.15 each) plus arrival at 0.15."""
RIDER_DECK_CARDS = 405
"""Twenty-seven blocks of ``READ_MIX``."""
FRESH_WINDOW_S = 60.0
"""``now`` of a rider-read deck spans this much time after the snapshot."""
PASS_SHIFT_S = 1e-3
"""Each later pass over the deck asks 1 ms later, so no answer to a read
that carries ``now`` repeats."""
SCANS_PER_BLOCK, READS_PER_BLOCK = 2, 3
"""Mixed stream: three reads per two scan batches, loadgen's scan share
of 0.40 of all requests."""
AHEAD_MARGIN_M = 250.0
"""A queried stop lies this far past the bus's latest scan, so positioning
error and a same-second scan still in flight cannot put the bus past it."""


@dataclass(frozen=True)
class Card:
    kind: str
    a: str = ""
    b: str = ""

    def target(self, now: float) -> str:
        if self.kind == "departures":
            return f"/v1/departures?stop={quote(self.a)}&now={now!r}"
        if self.kind == "trip_plan":
            return f"/v1/trip-plan?from={quote(self.a)}&to={quote(self.b)}&now={now!r}"
        if self.kind == "positions":
            return f"/v1/positions?now={now!r}"
        return f"/v1/arrival?session={quote(self.a)}&stop={quote(self.b)}"

    def request(self, now: float) -> bytes:
        return http_request("GET", self.target(now))


def _kinds(rng: random.Random, n: int) -> list[str]:
    block = [kind for kind, k in READ_MIX for _ in range(k)]
    out = [block[i % len(block)] for i in range(n)]
    rng.shuffle(out)
    return out


def _stops_ahead(fleet: Fleet, trip: Trip, t: float) -> list[str]:
    arc = fleet.position_at(trip, t)
    if arc is None:
        return []
    return [
        stop
        for stop, stop_arc in fleet.route_stops[trip.route_id]
        if stop_arc > arc + AHEAD_MARGIN_M
    ]


def _moving(fleet: Fleet, t: float) -> list[Trip]:
    """Trips with a scan strictly before ``t``, more scans to come and at
    least two stops ahead to ask about."""
    return [
        trip
        for trip in fleet.trips
        if trip.t0 < t
        and trip.scans_before(t) < trip.total_scans
        and len(_stops_ahead(fleet, trip, t)) >= 2
    ]


def _bus_card(fleet: Fleet, rng: random.Random, kind: str, trip: Trip, t: float) -> Card:
    """An arrival or trip-plan read about stops still ahead of ``trip``."""
    ahead = _stops_ahead(fleet, trip, t)
    if kind == "arrival":
        return Card("arrival", trip.session_key, rng.choice(ahead))
    i = rng.randrange(len(ahead) - 1)
    j = rng.randrange(i + 1, len(ahead))
    return Card("trip_plan", ahead[i], ahead[j])


def _card(fleet: Fleet, rng: random.Random, kind: str, t: float, moving: list[Trip]) -> Card:
    if kind in ("trip_plan", "arrival"):
        if moving:
            return _bus_card(fleet, rng, kind, rng.choice(moving), t)
        kind = "departures"  # nothing moving yet: ask a board instead
    if kind == "departures":
        return Card("departures", rng.choice(fleet.hub_stops))
    return Card("positions")


@dataclass(frozen=True)
class RiderDeck:
    """The rider-read deck against the end-of-span snapshot.

    An arrival read carries no ``now``, so its answer depends only on the
    snapshot, the session and the stop.  Its cards are placeholders that
    each pass fills from ``arrivals``, every (moving bus, stop ahead)
    pair in a seeded order, continuing where the previous pass stopped:
    a pair is asked again only once the whole pool has been asked.
    """

    cards: list[Card]
    arrivals: list[Card]

    def cards_for(self, pass_index: int) -> list[Card]:
        slots = sum(1 for card in self.cards if card.kind == "arrival")
        k = pass_index * slots
        out = []
        for card in self.cards:
            if card.kind == "arrival":
                card = self.arrivals[k % len(self.arrivals)]
                k += 1
            out.append(card)
        return out


def rider_deck(fleet: Fleet, seed: int) -> RiderDeck:
    """Boards cycle through the hub stops and trip plans through the
    moving buses, each in a seeded order, so every deck spreads its reads
    evenly over the city."""
    rng = random.Random(seed * 7919 + 1)
    t = fleet.end_t
    hubs = cycle(rng.sample(fleet.hub_stops, len(fleet.hub_stops)))
    moving = _moving(fleet, t)
    trips = cycle(rng.sample(moving, len(moving)))
    cards = []
    for kind in _kinds(rng, RIDER_DECK_CARDS):
        if kind == "departures":
            cards.append(Card("departures", next(hubs)))
        elif kind == "positions":
            cards.append(Card("positions"))
        elif kind == "arrival":
            cards.append(Card("arrival"))
        else:
            cards.append(_bus_card(fleet, rng, kind, next(trips), t))
    arrivals = [
        Card("arrival", trip.session_key, stop)
        for trip in moving
        for stop in _stops_ahead(fleet, trip, t)
    ]
    rng.shuffle(arrivals)
    return RiderDeck(cards, arrivals)


def rider_now(fleet: Fleet, index: int, pass_index: int) -> float:
    """``now`` of deck card ``index`` on pass ``pass_index``."""
    return (
        fleet.end_t
        + FRESH_WINDOW_S * index / RIDER_DECK_CARDS
        + PASS_SHIFT_S * pass_index
    )


@dataclass(frozen=True)
class Step:
    """One request of the mixed stream."""

    kind: str
    """``scans`` or a read kind."""
    raw: bytes
    reports: int = 0
    card: Card | None = None
    now: float = 0.0


def mixed_stream(fleet: Fleet, seed: int) -> list[Step]:
    """Scan batches in report-time order, each followed by the reads that
    fall to it (one or two, three per two batches) at its time."""
    rng = random.Random(seed * 7919 + 2)
    batches = fleet.scan_batches()
    reads = READS_PER_BLOCK * len(batches) // SCANS_PER_BLOCK
    kinds = _kinds(rng, reads)
    steps: list[Step] = []
    for b, batch in enumerate(batches):
        steps.append(Step("scans", scan_request(batch), reports=len(batch)))
        t = batch[-1].t
        moving = _moving(fleet, t)
        lo = READS_PER_BLOCK * b // SCANS_PER_BLOCK
        hi = READS_PER_BLOCK * (b + 1) // SCANS_PER_BLOCK
        for kind in kinds[lo:hi]:
            card = _card(fleet, rng, kind, t, moving)
            steps.append(Step(card.kind, card.request(t), card=card, now=t))
    return steps
