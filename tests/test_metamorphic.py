"""Metamorphic relations: the report depends on the world a document
describes, not on how the document lists it (Chen, Cheung & Yiu,
"Metamorphic Testing", HKUST-CS98-01, 1998). Each relation rewrites corpus
documents without changing their worlds and compares the reports:

- actor order: reversing `actors` moves only the document's own digest;
- disjoint union: document A with a renamed copy B' of another document
  appended gives each payment and actor row of A and of B' run alone;
- channel order: reversing `channels`, with channel indices remapped,
  gives the same payment and actor rows;
- same-tick order: events due on the same tick run in a seeded random
  order instead of the order they were scheduled in. Outcomes may move,
  so this relation checks invariants, not rows: the run ends, every
  payment is terminal, nothing is violated, every chain conserves its
  coins and no honest forwarder pays out unpaid (`test_small_scope.audit`),
  for each of TIE_KEYS.

Tier-1 runs every 10th document of the acceptance corpus (for the union,
each paired with the next document). Every document, with each failing one
listed:

    PYTHONPATH=src python tests/test_metamorphic.py --full
"""

import copy
import heapq
import random
import sys

import pytest

from comit.simnet import validate_scenario
from test_acceptance import workloads
from test_simnet import KeepingEngine, run_doc
from test_small_scope import audit

CORPUS_SIZE = 500
SLICE = 10
# Reversing `channels` changes a payment outcome in these corpus documents:
# gossip crosses channels in index order within a tick (ROADMAP item 20).
CHANNEL_ORDER_DOCS = (3, 60, 233, 399)
# Documents i and i + 1 whose union differs when their asset names are
# shared: a payment naming no hash function takes its default from every
# chain carrying its asset (ROADMAP item 22).
SHARED_ASSET_PAIR = (400, 401)
# The seeds of the same-tick relation's random tie orders.
TIE_KEYS = (0, 1, 2, 3)


def outcomes(report):
    return [(p["status"], p["reason"], p["resolved_tick"]) for p in report["payments"]]


def actor_order_holds(doc) -> bool:
    """Reversing `actors` moves only the digest of the document itself."""
    reversed_doc = copy.deepcopy(doc)
    reversed_doc["actors"].reverse()
    want, got = run_doc(doc), run_doc(reversed_doc)
    digest = "scenario_digest"
    return (got.keys() == want.keys() and got[digest] != want[digest]
            and all(got[k] == want[k] for k in want if k != digest))


def with_channel_indices(doc, remap):
    """`doc` with each `closes[].channel` and `broadcast-revoked`
    `faults[].channel` index i replaced by remap(i)."""
    for close in doc.get("closes", ()):
        close["channel"] = remap(close["channel"])
    for fault in doc["faults"]:
        if fault["kind"] == "broadcast-revoked" and "channel" in fault:
            fault["channel"] = remap(fault["channel"])
    return doc


def renamed(doc, tag: str, rename_assets: bool = True):
    """A copy of `doc` with every actor and chain id, and unless
    `rename_assets` is false every asset, suffixed with `tag`."""
    def actor(name):
        return name + tag

    def asset(name):
        return name + tag if rename_assets else name

    doc = copy.deepcopy(doc)
    for chain in doc["chains"]:
        chain["chain_id"] += tag
        chain["asset"] = asset(chain["asset"])
        chain["genesis"] = {actor(k): v for k, v in chain["genesis"].items()}
    for spec in doc["actors"]:
        spec["name"] = actor(spec["name"])
    for channel in doc["channels"]:
        channel["chain_id"] += tag
        channel["party_a"], channel["party_b"] = actor(channel["party_a"]), actor(channel["party_b"])
    for quote in doc["quotes"]:
        quote["node"] = actor(quote["node"])
        quote["asset_in"], quote["asset_out"] = asset(quote["asset_in"]), asset(quote["asset_out"])
    for payment in doc["payments"]:
        payment["sender"], payment["recipient"] = actor(payment["sender"]), actor(payment["recipient"])
        payment["asset"] = asset(payment["asset"])
    for fault in doc["faults"]:
        fault["actor"] = actor(fault["actor"])
    return doc


def union(a, b):
    """`b` appended to `a`, its channel indices offset by `a`'s channel
    count, under `a`'s seed and the larger `max_ticks`."""
    n = len(a["channels"])
    b = with_channel_indices(copy.deepcopy(b), lambda i: i + n)
    doc = dict(a, max_ticks=max(a["max_ticks"], b["max_ticks"]))
    for key in ("chains", "actors", "channels", "quotes", "payments", "faults", "closes"):
        doc[key] = a.get(key, []) + b.get(key, [])
    return doc


def union_holds(a, b, rename_assets: bool = True) -> bool:
    """A with B' (`b` renamed) appended gives A's payment outcomes followed
    by B''s, and each actor the row it has in its own half's run."""
    b = renamed(b, "B", rename_assets)
    alone_a, alone_b, got = run_doc(a), run_doc(b), run_doc(union(a, b))
    return (outcomes(got) == outcomes(alone_a) + outcomes(alone_b)
            and got["actors"] == {**alone_a["actors"], **alone_b["actors"]})


def channel_order_holds(doc) -> bool:
    """Reversing `channels`, index i becoming n - 1 - i, gives the same
    payment outcomes and actor rows."""
    n = len(doc["channels"])
    reversed_doc = with_channel_indices(copy.deepcopy(doc), lambda i: n - 1 - i)
    reversed_doc["channels"].reverse()
    want, got = run_doc(doc), run_doc(reversed_doc)
    return outcomes(got) == outcomes(want) and got["actors"] == want["actors"]


class ShuffledTiesEngine(KeepingEngine):
    """KeepingEngine whose queue breaks same-tick ties by a random key
    drawn from a generator seeded with `key`, instead of by `_seq`."""

    def __init__(self, scenario, key: int):
        self.ties = random.Random(key)
        super().__init__(scenario)

    def _schedule(self, tick, handler, *args):
        tie = (self.ties.random(), self._seq)
        heapq.heappush(self.queue, (max(tick, self.tick + 1), tie, handler, args))
        self._seq += 1


def same_tick_order_holds(doc) -> bool:
    """Under every key of TIE_KEYS, a run with same-tick ties broken at
    random passes the per-hop audit."""
    scenario, errors = validate_scenario(doc)
    assert errors == []
    return all(audit(ShuffledTiesEngine(scenario, key)) == [] for key in TIE_KEYS)


RELATIONS = {
    "actor order": lambda docs, i: actor_order_holds(docs[i]),
    "union": lambda docs, i: union_holds(docs[i], docs[(i + 1) % len(docs)]),
    "channel order": lambda docs, i: channel_order_holds(docs[i]),
    "same-tick order": lambda docs, i: same_tick_order_holds(docs[i]),
}
PINNED = {"channel order": CHANNEL_ORDER_DOCS}  # strict xfails below


@pytest.fixture(scope="module")
def corpus():
    return workloads.corpus(workloads.DEFAULT_SEED, CORPUS_SIZE)


def slice_failures(corpus, relation):
    """The documents of the tier-1 slice, less the relation's strict
    xfails, on which `relation` fails."""
    return [i for i in range(0, CORPUS_SIZE, SLICE)
            if i not in PINNED.get(relation, ()) and not RELATIONS[relation](corpus, i)]


def test_actor_order_changes_no_report_row(corpus):
    assert slice_failures(corpus, "actor order") == []


def test_disjoint_union_gives_each_half_its_own_rows(corpus):
    assert slice_failures(corpus, "union") == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 22: a payment's default hash "
                   "function comes from every chain carrying its asset")
def test_disjoint_union_with_shared_asset_names(corpus):
    a, b = SHARED_ASSET_PAIR
    assert union_holds(corpus[a], corpus[b], rename_assets=False)


def test_channel_order_changes_no_outcome(corpus):
    assert slice_failures(corpus, "channel order") == []


def test_same_tick_order_keeps_every_invariant(corpus):
    assert slice_failures(corpus, "same-tick order") == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 20: gossip crosses channels "
                   "in index order within a tick")
@pytest.mark.parametrize("index", CHANNEL_ORDER_DOCS)
def test_channel_order_of_gossip_dependent_documents(corpus, index):
    assert channel_order_holds(corpus[index])


if __name__ == "__main__":
    if sys.argv[1:] != ["--full"]:
        sys.exit("usage: python tests/test_metamorphic.py --full")
    docs = workloads.corpus(workloads.DEFAULT_SEED, CORPUS_SIZE)
    unexpected = 0
    for relation, holds in RELATIONS.items():
        failed = [i for i in range(CORPUS_SIZE) if not holds(docs, i)]
        pinned = PINNED.get(relation, ())
        for i in failed:
            print(f"{relation}: corpus document {i}" + (" (strict xfail)" if i in pinned else ""))
        unexpected += len(set(failed) - set(pinned))
        print(f"{relation}: {CORPUS_SIZE - len(failed)} of {CORPUS_SIZE} documents hold")
    sys.exit(1 if unexpected else 0)
