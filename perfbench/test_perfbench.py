"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from oracle import AuctionModel, OracleError  # noqa: E402
from stats import MIN_BEYOND, percentile, samples_needed  # noqa: E402


def nearest_rank(values: list[float], pct: float) -> float:
    """The textbook definition, by brute force: the smallest sample with
    at least *pct* percent of the samples at or below it."""
    ordered = sorted(values)
    for value in ordered:
        at_or_below = sum(1 for other in ordered if other <= value)
        if at_or_below * 100 >= Fraction(str(pct)) * len(ordered):
            return value
    return ordered[-1]


@pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 99, 100, 101, 1000, 1234])
@pytest.mark.parametrize("pct", [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0])
def test_percentile_matches_nearest_rank_reference(size, pct):
    rng = random.Random(size * 1000 + int(pct * 10))
    # Integers so that ties occur, as they do for clock readings.
    values = [float(rng.randrange(size * 2 + 1)) for _ in range(size)]
    assert percentile(sorted(values), pct) == nearest_rank(values, pct)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


@pytest.mark.parametrize("pct", [50.0, 90.0, 99.0])
def test_samples_needed_leaves_enough_beyond(pct):
    n = samples_needed(pct)
    values = sorted(float(v) for v in range(n))
    beyond = sum(1 for v in values if v > percentile(values, pct))
    assert beyond >= MIN_BEYOND
    fewer = values[:-1]
    assert sum(1 for v in fewer if v > percentile(fewer, pct)) < MIN_BEYOND


# -- the oracle rejects wrong answers ---------------------------------------

AUCTION = (
    "<site><regions><europe>"
    '<item id="item0"><name>lamp #0</name></item>'
    '<item id="item1"><name>clock #1</name></item>'
    "</europe></regions><people>"
    '<person id="person0"><name>Ann Bell</name></person>'
    "</people></site>"
)


def model() -> AuctionModel:
    return AuctionModel(AUCTION, maxlog=2, bids=[("item0", "person0", 5.0)])


def test_oracle_accepts_right_answers():
    m = model()
    m.get_item("item1", "person0", '<item id="item1"><name>clock #1</name></item>')
    m.check_highest_bid("item0", 5.0)
    m.check_highest_bid("item1", None)
    m.place_bid("item0", "person0", 7.5, True)
    m.place_bid("item0", "person0", 6.0, False)
    m.add_watch("item1", "person0", True)
    m.add_watch("item1", "person0", False)
    m.check_watchers("item1", ["person0"])
    m.get_item("item0", "person0", '<item id="item0"><name>lamp #0</name></item>')
    assert m.final_state()["archive_batches"] == 1
    assert m.final_state()["counter"] == 2


@pytest.mark.parametrize(
    "wrong",
    [
        lambda m: m.check_item("item1", '<item id="item0"><name>lamp #0</name></item>'),
        lambda m: m.check_item("item1", '<item id="item1"><name>lamp #0</name></item>'),
        lambda m: m.check_highest_bid("item0", 4.0),
        lambda m: m.check_highest_bid("item1", 1.0),
        lambda m: m.place_bid("item0", "person0", 4.0, True),
        lambda m: m.place_bid("item0", "person0", 9.0, False),
        lambda m: m.add_watch("item1", "person0", False),
        lambda m: m.check_watchers("item1", ["person0"]),
        lambda m: m.check_final({**m.final_state(), "counter": 1}, "served"),
        lambda m: m.check_final(
            {**m.final_state(), "log": [[1, "Ann Bell", "item0"]]}, "served"
        ),
    ],
)
def test_oracle_rejects_a_wrong_answer(wrong):
    with pytest.raises(OracleError):
        wrong(model())


def test_preloaded_bids_on_one_item_need_not_rise():
    m = AuctionModel(AUCTION, maxlog=2, bids=[
        ("item0", "person0", 9.0), ("item0", "person0", 6.0),
    ])
    m.check_highest_bid("item0", 9.0)
    with pytest.raises(OracleError):
        m.check_highest_bid("item0", 6.0)
    m.place_bid("item0", "person0", 8.0, False)


def test_auction_lists_follow_the_generated_bidders():
    from repro.xmark import XMarkConfig, generate_auction_xml
    from workloads import auction_lists

    auction_xml = generate_auction_xml(XMarkConfig.scale(1, seed=5))
    bids, watches = auction_lists(auction_xml)
    root = ET.fromstring(auction_xml)
    auctions = list(root.iter("open_auction"))
    assert len(bids) == sum(len(a.findall("bidder")) for a in auctions)
    assert len(set(watches)) == len(watches)
    assert set(watches) == {(i, u) for i, u, _ in bids}
    # The last bid on each auction is its generated current price.
    position = 0
    for auction in auctions:
        position += len(auction.findall("bidder"))
        if auction.findall("bidder"):
            assert bids[position - 1][2] == float(auction.findtext("current"))


def test_stale_answers_are_judged_by_sequence_window():
    m = model()
    # A bid committed as journal records 11..12 replaces 5.0 with 8.0.
    m.place_bid("item0", "person0", 8.0, True, seq_before=10, seq_after=12)
    m.check_highest_bid("item0", 5.0, low=9, high=12)  # replica at <= 11
    m.check_highest_bid("item0", 8.0, low=9, high=12)
    m.check_highest_bid("item0", 8.0, low=12, high=12)
    with pytest.raises(OracleError):
        m.check_highest_bid("item0", 5.0, low=12, high=15)
    with pytest.raises(OracleError):
        m.check_highest_bid("item0", 5.0)  # served by the primary


# -- the command's output -----------------------------------------------------


def run_command(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_output_names_every_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    done = run_command(
        ROOT, "--workload", "rw-durable", "--seed", "3", "--seconds", "1",
        "--trace", trace,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(
        str(tmp_path), "--workload", "rw-durable", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
