"""The three served auction workloads and the closed-loop client.

Each workload serves the paper's auction Web service through
``AuctionFrontEnd`` and drives it with one client that sends the next
request only after the reply to the previous one has arrived.  The
requests are the seeded ``repro.loadgen.Workload`` stream, regrouped
into rounds of the mix's exact shares (:class:`Rounds`); the client
records each reply, and the model in :mod:`oracle` checks every reply
after the timed phase, in order, so checking costs nothing inside it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from oracle import AuctionModel, read_final_state

from repro.loadgen.workload import MIXES, OP_CLASSES, Workload
from repro.usecases.webservice import (
    SERVICE_MODULE,
    AuctionFrontEnd,
    AuctionService,
)
from repro.xmark import XMarkConfig, generate_auction_xml

#: Worker threads of every front end: the host has two cores.
WORKERS = 2
#: The service's log rollover threshold (the paper's example value).
MAXLOG = 10
#: Operations per round.  Every mix weight is a whole number of
#: hundredths, so a round holds each operation the exact number of times
#: its weight asks for.
ROUND_OPS = 100


@dataclass(frozen=True)
class Spec:
    """How one workload is built.

    ``compact_max_records`` is passed through the service's durable
    options; ``max_lag_seq`` is the staleness bound read-class calls
    carry (None: reads are not routed to replicas);
    ``auction_lists`` binds ``$bids`` and ``$watchlist`` to the lists of
    :func:`auction_lists` at set-up (otherwise both start empty).
    """

    name: str
    mix: str
    scale: int
    durable: bool
    replicas: int = 0
    compact_max_records: int | None = 4096
    max_lag_seq: int | None = None
    auction_lists: bool = False


WORKLOADS = {
    # The production-shaped write path: every logged lookup and every
    # transaction pays the store copy, journal encode and fsync, and the
    # journal is folded into a fresh checkpoint every 150 records.
    "rw-durable": Spec(
        "rw-durable", "xmark-rw", scale=1, durable=True,
        compact_max_records=150,
    ),
    # Reads only, on a store about eight times larger whose bid and
    # watch lists hold the document's open-auction bids: the write-path
    # layers sit idle here.
    "read-large": Spec(
        "read-large", "xmark-read", scale=8, durable=False,
        auction_lists=True,
    ),
    # Log shipping to one replica process; every read-class call carries
    # a bound no lag can exceed, so every read goes to the replica.
    "rw-fleet": Spec(
        "rw-fleet", "xmark-rw", scale=1, durable=True, replicas=1,
        max_lag_seq=1 << 40,
    ),
}


@dataclass
class Reply:
    """One completed operation as the client saw it."""

    op: object
    seconds: float
    answer: object
    seq_low: float = float("inf")
    seq_high: float = float("inf")
    seq_before: int = 0
    seq_after: int = 0
    #: The exception the operation raised (None: it completed).
    error: str | None = None


class Rounds:
    """The seeded ``Workload`` stream regrouped into rounds.

    A round takes, for each operation of the mix, as many of the
    stream's next operations of that name as the mix's weight gives
    (0.15 of :data:`ROUND_OPS` ``get_item`` calls, ...).  Operations the
    stream yields beyond a round's share wait for the next round, and
    the round is put in a seeded shuffled order.  Runs of equal length
    thus hold the same mix whatever the seed.  With the stream's own
    draws, the share of logged lookups (the costliest operation on
    rw-durable) varied from 14.4% to 15.9% across five 35-s runs, and
    ``ops_per_s`` with it.
    """

    def __init__(self, mix: str, seed: int, items: int, persons: int):
        self.stream = Workload(mix, seed, items=items, persons=persons)
        self.counts = {
            name: round(weight * ROUND_OPS) for name, weight in MIXES[mix]
        }
        assert sum(self.counts.values()) == ROUND_OPS, self.counts
        self.waiting: dict[str, list] = {name: [] for name in self.counts}
        self.order = random.Random(f"perfbench:{mix}:{seed}")

    def next_round(self) -> list:
        names = [
            name for name, count in self.counts.items()
            for _ in range(count)
        ]
        self.order.shuffle(names)
        for name, count in self.counts.items():
            waiting = self.waiting[name]
            while len(waiting) < count:
                op = self.stream.operation()
                self.waiting[op.name].append(op)
        return [self.waiting[name].pop(0) for name in names]


def auction_lists(auction_xml: str):
    """The bid and watch lists of the generated document's open auctions.

    Every ``bidder`` of an ``open_auction`` is one bid on the auction's
    item: its amount is the auction's ``initial`` price plus the bidder's
    ``increase`` and every ``increase`` before it, as the generator
    computes ``current``.  XMark's ``person/watches`` (the open auctions a
    person follows) is not generated, so each bidder watches the item it
    bid on, once per (item, person) pair.  Parsed with :mod:`xml.etree`.
    """
    bids, watches, seen = [], [], set()
    for auction in ET.fromstring(auction_xml).iter("open_auction"):
        itemid = auction.find("itemref").get("item")
        amount = float(auction.findtext("initial"))
        for bidder in auction.iter("bidder"):
            userid = bidder.find("personref").get("person")
            amount = round(amount + float(bidder.findtext("increase")), 2)
            bids.append((itemid, userid, amount))
            if (itemid, userid) not in seen:
                seen.add((itemid, userid))
                watches.append((itemid, userid))
    return bids, watches


def _lists_xml(bids, watches) -> tuple[str, str]:
    bids_xml = "".join(
        f'<bid itemid="{i}" user="{u}" amount="{a!r}"/>' for i, u, a in bids
    )
    watch_xml = "".join(
        f'<watch itemid="{i}" user="{u}"/>' for i, u in watches
    )
    return f"<bids>{bids_xml}</bids>", f"<watchlist>{watch_xml}</watchlist>"


class Served:
    """One set-up workload: the served stack plus its client state.

    Building it is the set-up the benchmark times: document generation
    and load, durable open, replica start and catch-up, and warm-up.
    """

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec = spec
        self.directory = None
        self.supervisor = None
        self.front = None
        self.service = None
        config = XMarkConfig.scale(spec.scale, seed=seed)
        self.auction_xml = generate_auction_xml(config)
        self.bids, self.watches = (
            auction_lists(self.auction_xml) if spec.auction_lists
            else ([], [])
        )
        durable_options = {}
        if spec.durable:
            self.directory = os.path.join(workdir, "store")
            durable_options = dict(
                durable_path=self.directory,
                compact_max_records=spec.compact_max_records,
            )
        self.service = AuctionService(
            auction_xml=self.auction_xml, maxlog=MAXLOG, **durable_options
        )
        try:
            if spec.auction_lists:
                engine = self.service.engine
                bids_xml, watch_xml = _lists_xml(self.bids, self.watches)
                engine.bind("bids", engine.parse_fragment(bids_xml))
                engine.bind("watchlist", engine.parse_fragment(watch_xml))
            if spec.replicas:
                from repro.cluster import ClusterConfig, ClusterSupervisor

                self.supervisor = ClusterSupervisor(
                    self.directory,
                    primary=self.service.durable,
                    module_source=SERVICE_MODULE,
                    config=ClusterConfig(replicas=spec.replicas),
                ).start()
            self.front = AuctionFrontEnd(
                self.service,
                workers=WORKERS,
                default_timeout_ms=None,
                cluster=self.supervisor,
                max_lag_seq=spec.max_lag_seq,
            )
            self.rounds = Rounds(
                spec.mix, seed, items=config.items, persons=config.persons
            )
            self.replies: list[Reply] = []
            # One round of warm-up: every query text gets prepared, the
            # first snapshot gets built, the replica catches up.
            for op in self.rounds.next_round():
                reply = self.call(op)
                if reply.error is not None:
                    raise RuntimeError(f"warm-up failed: {reply.error}")
            if self.supervisor is not None:
                self.wait_caught_up()
        except BaseException:
            self.close()
            raise

    # -- the closed-loop client ---------------------------------------------

    def primary_seq(self) -> int:
        if self.service.durable is None:
            return 0
        return self.service.durable.journal.next_seq - 1

    def call(self, op) -> Reply:
        """Run *op* to completion and record what came back."""
        front = self.front
        lag = self.spec.max_lag_seq
        reply = Reply(op, 0.0, None)
        if lag is not None and OP_CLASSES[op.name] == "read":
            # A replica answers from a state at least as new as what it
            # had acknowledged when the read was routed, and no newer
            # than the primary: no write runs while this read does.
            reply.seq_low = self.supervisor.handles[0].acked_seq
            reply.seq_high = self.primary_seq()
        reply.seq_before = self.primary_seq()
        start = time.perf_counter()
        answer = None
        try:
            name = op.name
            if name == "get_item":
                answer = front.submit_get_item(op.itemid, op.userid)
                answer = answer.result().serialize()
            elif name == "get_item_nolog":
                answer = front.submit_get_item_nolog(
                    op.itemid, op.userid, max_lag_seq=lag
                ).result().serialize()
            elif name == "highest_bid":
                answer = front.submit_query(
                    op.query, op.bindings, max_lag_seq=lag
                ).result().first_value()
            elif name == "watchers":
                answer = front.submit_query(
                    op.query, op.bindings, max_lag_seq=lag
                ).result().strings()
            elif name == "place_bid":
                answer = front.place_bid(op.itemid, op.userid, op.amount)
            else:
                answer = front.add_watch(op.itemid, op.userid)
        except Exception as exc:  # counted as failed, not checked
            reply.error = f"{type(exc).__name__}: {exc}"
        reply.seconds = time.perf_counter() - start
        reply.answer = answer
        reply.seq_after = self.primary_seq()
        self.replies.append(reply)
        return reply

    # -- checks ---------------------------------------------------------------

    def new_model(self) -> AuctionModel:
        return AuctionModel(
            self.auction_xml, MAXLOG, bids=self.bids, watches=self.watches
        )

    def check_replies(self, model: AuctionModel) -> None:
        """Replay every recorded reply through *model*, in order.

        A failed operation is skipped: the service's calls are atomic,
        so a write that raised changed nothing, and the final-state
        checks would show it if it had."""
        for reply in self.replies:
            if reply.error is not None:
                continue
            op, answer = reply.op, reply.answer
            if op.name == "get_item":
                model.get_item(op.itemid, op.userid, answer)
            elif op.name == "get_item_nolog":
                model.check_item(op.itemid, answer)
            elif op.name == "highest_bid":
                model.check_highest_bid(
                    op.itemid, answer, reply.seq_low, reply.seq_high
                )
            elif op.name == "watchers":
                model.check_watchers(
                    op.itemid, answer, reply.seq_low, reply.seq_high
                )
            elif op.name == "place_bid":
                model.place_bid(
                    op.itemid, op.userid, op.amount, answer,
                    reply.seq_before, reply.seq_after,
                )
            else:
                model.add_watch(
                    op.itemid, op.userid, answer,
                    reply.seq_before, reply.seq_after,
                )

    def wait_caught_up(self, timeout_s: float = 60.0) -> None:
        """Wait until the replica has acknowledged every committed record
        for several polls in a row (the acknowledged watermark is read
        through the shipper's asynchronous tail cursor)."""
        handle = self.supervisor.handles[0]
        deadline = time.monotonic() + timeout_s
        steady = 0
        while steady < 5:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"replica stuck at {handle.acked_seq}, primary at "
                    f"{self.primary_seq()}"
                )
            if handle.alive and handle.acked_seq >= self.primary_seq():
                steady += 1
            else:
                steady = 0
            time.sleep(0.02)

    def final_checks(self, model: AuctionModel) -> dict:
        """Check the served state, then the state recovered from disk,
        and for a fleet the replica's convergence.  Shuts everything
        down.  Returns what was checked."""
        from repro.cluster.replica import store_fingerprint

        checked = {}
        primary = self.service.engine
        model.check_final(read_final_state(primary), "served state")
        checked["served_state"] = True
        fingerprints = {}
        if self.supervisor is not None:
            self.wait_caught_up()
            fingerprints["replica"] = self.supervisor.fingerprint_of(
                self.supervisor.handles[0]
            )
            fingerprints["primary"] = store_fingerprint(
                self.service.durable.engine
            )
        self.close()
        if self.directory is not None:
            # A fresh engine on the directory recovers the state from
            # the flushed checkpoint and journal alone.
            from repro.durability import DurableEngine

            recovered = DurableEngine(self.directory)
            try:
                model.check_final(read_final_state(recovered), "recovered")
                checked["recovered_state"] = True
                if fingerprints:
                    fingerprints["recovered"] = store_fingerprint(
                        recovered.engine
                    )
            finally:
                recovered.close()
        if fingerprints:
            if len(set(fingerprints.values())) != 1:
                raise AssertionError(f"fleet diverged: {fingerprints}")
            checked["converged"] = True
        return checked

    def close(self) -> None:
        """Stop every thread and process of this set-up (idempotent)."""
        if self.front is not None:
            self.front.shutdown()
            self.front = None
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def remove(self) -> None:
        self.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
