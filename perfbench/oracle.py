"""A model of the auction service, computed apart from the program.

The model is plain Python over the generated inputs: the auction
document is parsed with :mod:`xml.etree` (not the program's own XML
reader) and every service call is replayed on dictionaries following
the rules of the service module (``SERVICE_MODULE`` in the program's
web-service use case):

* ``get_item`` bumps the nested-snap counter, appends a log entry and,
  once the log holds ``maxlog`` entries, moves them into one archive
  batch;
* ``place_bid`` is accepted only when its amount beats every bid on the
  item;
* ``add_watch`` is accepted only when the (item, user) pair is new;
* ``highest_bid`` is the maximum accepted amount, ``watchers`` the users
  in insertion order.

Reads served by a replica may be stale.  Every state change is stamped
with the primary's journal sequence numbers around the write that made
it, so a stale answer is accepted only when it was the model's answer at
some sequence number the replica may have been at.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

INFINITY = float("inf")


class OracleError(AssertionError):
    """A response or a final state disagrees with the model."""


class _History:
    """The values one item's answer took, with the journal sequence
    numbers between which each may have been visible."""

    __slots__ = ("values",)

    def __init__(self, initial):
        # [value, first seq it may be visible at, seq it is surely
        # replaced at (INFINITY while current)]
        self.values = [[initial, 0, INFINITY]]

    @property
    def current(self):
        return self.values[-1][0]

    def change(self, value, seq_before: int, seq_after: int) -> None:
        self.values[-1][2] = seq_after
        self.values.append([value, seq_before + 1, INFINITY])

    def seen_between(self, low: float, high: float) -> list:
        return [
            value
            for value, first, replaced in self.values
            if first <= high and (replaced > low or replaced == INFINITY)
        ]


class AuctionModel:
    """The expected state of one served auction.

    Parameters:
        auction_xml: the generated auction document.
        maxlog: the service's rollover threshold.
        bids: pre-loaded ``(itemid, userid, amount)`` triples.
        watches: pre-loaded ``(itemid, userid)`` pairs.
    """

    def __init__(self, auction_xml: str, maxlog: int, bids=(), watches=()):
        root = ET.fromstring(auction_xml)
        self.item_names = {
            item.get("id"): item.findtext("name")
            for item in root.iter("item")
        }
        self.person_names = {
            person.get("id"): person.findtext("name")
            for person in root.iter("person")
        }
        self.maxlog = maxlog
        self.counter = 0
        self.log: list[tuple[int, str, str]] = []
        self.archive_batches = 0
        self.archived_entries = 0
        self.bids: list[tuple[str, str, float]] = []
        self._high: dict[str, _History] = {}
        self._watchers: dict[str, _History] = {}
        self.checked = 0
        for itemid, userid, amount in bids:
            self._record_bid(itemid, userid, amount, 0, 0)
        for itemid, userid in watches:
            self._record_watch(itemid, userid, 0, 0)

    # -- transitions and their checks ------------------------------------

    def get_item(self, itemid: str, userid: str, item_xml: str) -> None:
        self.check_item(itemid, item_xml)
        self.counter += 1
        self.log.append((self.counter, self.person_names[userid], itemid))
        if len(self.log) >= self.maxlog:
            self.archive_batches += 1
            self.archived_entries += len(self.log)
            self.log = []

    def check_item(self, itemid: str, item_xml: str) -> None:
        self.checked += 1
        try:
            element = ET.fromstring(item_xml)
        except ET.ParseError as exc:
            raise OracleError(f"{itemid}: unparsable answer ({exc})") from exc
        if element.tag != "item" or element.get("id") != itemid:
            raise OracleError(
                f"{itemid}: answered <{element.tag} id="
                f"{element.get('id')!r}>"
            )
        if element.findtext("name") != self.item_names[itemid]:
            raise OracleError(
                f"{itemid}: name {element.findtext('name')!r}, expected "
                f"{self.item_names[itemid]!r}"
            )

    def place_bid(
        self,
        itemid: str,
        userid: str,
        amount: float,
        accepted: bool,
        seq_before: int = 0,
        seq_after: int = 0,
    ) -> None:
        self.checked += 1
        high = self.highest_bid(itemid)
        expected = high is None or amount > high
        if accepted != expected:
            raise OracleError(
                f"place_bid({itemid}, {amount}) returned {accepted}, "
                f"expected {expected} (high bid {high})"
            )
        if accepted:
            self._record_bid(itemid, userid, amount, seq_before, seq_after)

    def add_watch(
        self,
        itemid: str,
        userid: str,
        accepted: bool,
        seq_before: int = 0,
        seq_after: int = 0,
    ) -> None:
        self.checked += 1
        expected = userid not in self.watchers(itemid)
        if accepted != expected:
            raise OracleError(
                f"add_watch({itemid}, {userid}) returned {accepted}, "
                f"expected {expected}"
            )
        if accepted:
            self._record_watch(itemid, userid, seq_before, seq_after)

    def check_highest_bid(
        self, itemid: str, answer, low: float = INFINITY,
        high: float = INFINITY,
    ) -> None:
        """Check a ``highest_bid`` answer; ``[low, high]`` is the range of
        journal sequence numbers the answering store may have been at
        (the default means: the current state)."""
        self.checked += 1
        value = None if answer is None else float(answer)
        history = self._high.get(itemid)
        allowed = (
            [None] if history is None else history.seen_between(low, high)
        )
        if value not in allowed:
            raise OracleError(
                f"highest_bid({itemid}) = {value}, expected one of {allowed}"
            )

    def check_watchers(
        self, itemid: str, answer: list[str], low: float = INFINITY,
        high: float = INFINITY,
    ) -> None:
        self.checked += 1
        history = self._watchers.get(itemid)
        allowed = (
            [()] if history is None else history.seen_between(low, high)
        )
        if tuple(answer) not in allowed:
            raise OracleError(
                f"watchers({itemid}) = {answer}, expected one of {allowed}"
            )

    # -- current answers -------------------------------------------------

    def highest_bid(self, itemid: str) -> float | None:
        history = self._high.get(itemid)
        return None if history is None else history.current

    def watchers(self, itemid: str) -> tuple[str, ...]:
        history = self._watchers.get(itemid)
        return () if history is None else history.current

    def final_state(self) -> dict:
        """What the service's end-of-run queries must return."""
        return {
            "log_entries": len(self.log),
            "archive_batches": self.archive_batches,
            "archived_entries": self.archived_entries,
            "counter": self.counter,
            "log": [list(entry) for entry in self.log],
            "bids": sorted(
                [itemid, userid, amount]
                for itemid, userid, amount in self.bids
            ),
            "watches": sorted(
                [itemid, userid]
                for itemid, history in self._watchers.items()
                for userid in history.current
            ),
        }

    def check_final(self, observed: dict, where: str) -> None:
        expected = self.final_state()
        for key, value in expected.items():
            if observed.get(key) != value:
                shown = observed.get(key)
                if isinstance(value, list):
                    shown = f"{len(shown or [])} rows, expected {len(value)}"
                    value = "(see above)"
                raise OracleError(f"{where}: {key} = {shown}, expected {value}")

    # -- internals -------------------------------------------------------

    def _record_bid(self, itemid, userid, amount, seq_before, seq_after):
        self.bids.append((itemid, userid, float(amount)))
        history = self._high.get(itemid)
        if history is None:
            history = self._high[itemid] = _History(None)
        high = float(amount)
        if history.current is not None and history.current > high:
            # Pre-loaded bids on one item come from several auctions and
            # need not rise; an accepted place_bid always beats the high.
            high = history.current
        history.change(high, seq_before, seq_after)

    def _record_watch(self, itemid, userid, seq_before, seq_after):
        history = self._watchers.get(itemid)
        if history is None:
            history = self._watchers[itemid] = _History(())
        history.change(history.current + (userid,), seq_before, seq_after)


# The queries that read the final state back out of an engine.  They run
# on the serving primary, on a freshly recovered engine, and nowhere
# else; their answers are compared with :meth:`AuctionModel.final_state`.
FINAL_STATE_QUERIES = {
    "log_entries": "count($log/logentry)",
    "archive_batches": "count($archive/batch)",
    "archived_entries": "count($archive/batch/logentry)",
    "counter": "data($d)",
    "log": (
        "for $e in $log/logentry return "
        "concat($e/@id, '|', $e/@user, '|', $e/@itemid)"
    ),
    "bids": (
        "for $b in $bids/bid return "
        "concat($b/@itemid, '|', $b/@user, '|', $b/@amount)"
    ),
    "watches": (
        "for $w in $watchlist/watch return concat($w/@itemid, '|', $w/@user)"
    ),
}


def read_final_state(engine) -> dict:
    """Run :data:`FINAL_STATE_QUERIES` on *engine* (anything with an
    ``execute(query)`` returning a result with ``strings()``)."""
    out: dict = {}
    for key, query in FINAL_STATE_QUERIES.items():
        rows = engine.execute(query).strings()
        if key in ("log_entries", "archive_batches", "archived_entries",
                   "counter"):
            out[key] = int(rows[0])
        elif key == "log":
            out[key] = [
                [int(entry_id), user, itemid]
                for entry_id, user, itemid in (r.split("|") for r in rows)
            ]
        elif key == "bids":
            out[key] = sorted(
                [itemid, userid, float(amount)]
                for itemid, userid, amount in (r.split("|") for r in rows)
            )
        else:
            out[key] = sorted(r.split("|") for r in rows)
    return out
