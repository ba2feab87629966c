"""The canonical encodings and what they cost.

`report_json` and `Scenario.digest` write and hash exactly the bytes of the
`json.dumps` calls they replace; those calls stay here as their oracles.
The memory guards use `tracemalloc`, so they count allocations and not
time, and hold on any machine.

`PYTHONPATH=src python tests/test_canonical.py --phases` prints the bytes
each phase of a run holds on the benchmark's default-seed worlds.
"""

import ast
import dataclasses
import gc
import hashlib
import importlib
import json
import pkgutil
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comit
from comit.chainlab import ChainParams, HashFnId, Ledger, Outpoint, hash_digest
from comit.channels import Channel, ChannelParty, open_channel
from comit.crp import GossipState
from comit.simnet import run_scenario, validate_scenario
from comit.simnet.engine import Engine
from comit.simnet.report import build_report, report_json
from comit.simnet.scenario import ChainSpec
from test_acceptance import load_bench, random_scenario
from test_simnet import DEMO_DIGESTS, demo_report, demo_scenario, minimal_doc, star_doc


def oracle_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def oracle_plain(obj):
    """`Scenario.digest`'s view of a value json cannot write: a spec is its
    dataclass fields, a hash function its value, and a chain's genesis an
    actor -> amount object."""
    if isinstance(obj, HashFnId):
        return obj.value
    plain = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, ChainSpec):
        plain["genesis"] = dict(obj.genesis)
    return plain


def oracle_digest(scenario) -> str:
    text = json.dumps(scenario, sort_keys=True, default=oracle_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def has_float(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        return any(has_float(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(has_float(v) for v in obj)
    return False


def doc_with_payments(n: int) -> dict:
    """The two-actor world of `minimal_doc` with `n` 10-coin payments, one a
    tick, from the user to the LP."""
    doc = minimal_doc()
    doc["max_ticks"] = 4 + n + 40
    doc["payments"] = [
        {"at_tick": 4 + i, "sender": "ann", "recipient": "lp", "amount": 10, "asset": "coin"}
        for i in range(n)
    ]
    return doc


def scenario_of(doc: dict):
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    return scenario


@pytest.fixture(scope="module")
def corpus_scenarios():
    """The first 50 documents of the acceptance corpus."""
    rng = random.Random(0xACCE97)
    return [scenario_of(random_scenario(rng)) for _ in range(50)]


@pytest.fixture(scope="module")
def thousand_payments():
    return scenario_of(doc_with_payments(1000))


# ------------------------------------------------------------- report_json


def test_report_json_matches_its_oracle_on_demos_and_corpus(corpus_scenarios):
    reports = [demo_report(name) for name in DEMO_DIGESTS]
    reports += [run_scenario(sc) for sc in corpus_scenarios]
    for i, report in enumerate(reports):
        assert not has_float(report), i
        assert report_json(report) == oracle_json(report), i


_text = st.text(
    st.one_of(
        st.characters(exclude_categories=()),  # surrogates included
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u20ac\u2028\u2029\ud800\udfff\U0001f600'),
    )
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    _text,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_text, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_report_json_matches_its_oracle_on_any_value(value):
    assert report_json(value) == oracle_json(value)


@pytest.mark.parametrize("bad", [1.5, object()])
def test_report_json_refuses_what_no_report_holds(bad):
    for value in (bad, [bad], {"k": bad}, {"k": [0, {"j": bad}]}):
        with pytest.raises(TypeError):
            report_json(value)


# ----------------------------------------------------------- Scenario.digest


def test_digest_matches_its_oracle_on_demos_and_corpus(corpus_scenarios):
    for name, pinned in DEMO_DIGESTS.items():
        sc = demo_scenario(name)
        assert sc.digest() == oracle_digest(sc) == pinned, name
    for i, sc in enumerate(corpus_scenarios):
        assert sc.digest() == oracle_digest(sc), i


@pytest.mark.parametrize("payments", [0, 1, 63, 64, 65, 129])
def test_digest_matches_its_oracle_across_batch_edges(payments):
    sc = scenario_of(doc_with_payments(payments))
    assert len(sc.payments) == payments
    assert sc.digest() == oracle_digest(sc)


# ------------------------------------------------------------ memory guards


def transient_peak(fn, *args):
    """What `fn(*args)` returns and the most memory it held at once."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_json_memory_follows_its_output(thousand_payments):
    report = run_scenario(thousand_payments)
    text, peak = transient_peak(report_json, report)
    assert text == oracle_json(report)
    # Measured at 2.2x the output; json's own indent path takes 7.6x.
    assert peak <= 3 * len(text), (peak, len(text))


def test_digest_memory_is_bounded(thousand_payments):
    digest, peak = transient_peak(thousand_payments.digest)
    assert digest == oracle_digest(thousand_payments)
    # Measured at 66 KiB; hashing one string of the scenario takes 916 KiB.
    assert peak < 256 * 1024, peak


def test_invoice_streams_exist_only_for_paid_actors():
    engine = Engine(scenario_of(star_doc(12)))
    engine.run()
    paid = {p.spec.recipient for p in engine.payments if p.started_tick >= 0}
    assert paid == {"b0", "b1", "b2", "b3"}
    for name, actor in engine.actors.items():
        assert (actor.invoice_rng is not None) == (name in paid), name


def record_classes() -> dict[str, list[type]]:
    """Every dataclass defined in `comit`, by module."""
    out = {}
    for info in pkgutil.walk_packages(comit.__path__, "comit."):
        module = importlib.import_module(info.name)
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and dataclasses.is_dataclass(c)
                   and c.__module__ == info.name]
        if classes:
            out[info.name] = classes
    return out


def test_every_record_is_slotted():
    """A record made per payment, channel update, UTXO or scenario entry
    carries no instance `__dict__`, nor do the two plain classes made once
    per channel and once per actor."""
    records = [c for classes in record_classes().values() for c in classes]
    assert len(records) == 45, [c.__name__ for c in records]
    # an Outpoint is a tuple, not a dataclass, and has no __dict__ either
    records += [Outpoint, Channel, GossipState]
    assert [c.__qualname__ for c in records if c.__dictoffset__ != 0] == []


def test_retired_payments_hold_no_hops_or_invoices(thousand_payments, corpus_scenarios):
    """Once a run ends, no payment holds a hop or an invoice: on the
    1,000-payment world, and on the first 50 corpus documents, where some
    payments end before going live (no route, or a refused first offer)."""
    engine = Engine(thousand_payments)
    engine.run()
    assert engine.live == {}
    assert [p.idx for p in engine.payments if p.hops or p.hop_count != 1] == []
    assert [p.idx for p in engine.payments if p.invoice is not None] == []
    never_live = 0
    for i, scenario in enumerate(corpus_scenarios):
        engine = Engine(scenario)
        engine.run()
        assert [p.idx for p in engine.payments if p.hops or p.invoice is not None] == [], i
        never_live += sum(p.started_tick >= 0 and p.hop_count == 0 for p in engine.payments)
    assert never_live > 10, never_live


def test_run_memory_per_payment_is_bounded(thousand_payments):
    """What `Engine.run` leaves allocated on the 1,000-payment world, per
    payment. Measured at 688 bytes in a fresh process (492 once an earlier
    engine has stocked the interpreter's free lists); 983 (787) while a
    channel kept each signed state whole, and 1,296 to 1,505 before records
    were slotted and retired payments let go of their hops."""
    Engine(scenario_of(doc_with_payments(1))).run()  # first-use allocations
    engine = Engine(thousand_payments)
    tracemalloc.start()
    try:
        engine.run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(engine.payments) < 800, held


def test_channel_memory_per_update_is_bounded():
    """What a channel holds per update after 2,000 add/fulfil cycles: its
    record of each signed state. Measured at 95 bytes, a balance and an
    HTLC tuple per state; 244 while it kept each `CommitmentState` whole."""
    rng = random.Random(0xC4A11)
    alice, bob = ChannelParty.generate(rng), ChannelParty.generate(rng)
    params = ChainParams("main", "COIN", frozenset({HashFnId.SHA256}))
    ledger = Ledger(params, [(alice.pubkey, 10**9), (bob.pubkey, 10**9)])
    ch = open_channel(ledger, alice, bob, 10**6, 10**6)
    secrets = [i.to_bytes(32, "big") for i in range(2_000)]
    hashes = [hash_digest(HashFnId.SHA256, secret) for secret in secrets]
    gc.collect()
    tracemalloc.start()
    try:
        for secret, payment_hash in zip(secrets, hashes):
            ch.fulfill_htlc(ch.add_htlc(alice, 10, HashFnId.SHA256, payment_hash, 50), secret)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ch.commitment_number == 4_000
    assert held / ch.commitment_number < 160, held


def report_phase_bytes(doc: dict) -> dict[str, int]:
    """The bytes one run of `doc` holds at each phase, under tracemalloc:
    once the scenario is read and its world built, once `Engine.run`
    returns (and that run's peak), once `build_report` returns, and at
    `report_json`'s peak; `text` is the length of the canonical report."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(scenario_of(doc))
        built = tracemalloc.get_traced_memory()[0]
        engine.run()
        run, run_peak = tracemalloc.get_traced_memory()
        report = build_report(engine)
        reported = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = report_json(report)
        json_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"built": built, "run": run, "run_peak": run_peak, "report": reported,
            "json_peak": json_peak, "text": len(text)}


def print_phases() -> None:
    """`report_phase_bytes` of each one-world workload of the benchmark at
    its default seed and size, in MiB. Each world runs once first, as the
    benchmark's memory pass follows its timed ones."""
    workloads = load_bench("workloads")
    columns = ("built", "run", "run_peak", "report", "json_peak", "text")
    print(f"{'workload':<10}" + "".join(f"{c:>11}" for c in columns))
    for name, size in workloads.SIZES.items():
        docs = workloads.generate(name, workloads.DEFAULT_SEED, **size)
        if len(docs) != 1:
            continue
        report_phase_bytes(docs[0])  # first-use allocations
        phases = report_phase_bytes(docs[0])
        print(f"{name:<10}" + "".join(f"{phases[c] / 2**20:>11.3f}" for c in columns))


def test_report_memory_per_payment_is_bounded():
    """What `build_report` keeps per payment on the 1,000-payment world.
    Measured at 184 bytes, where every payment row shares one key table;
    537 while each row was a dict literal with a table of its own. Tuned
    on CPython 3.11."""
    report_phase_bytes(doc_with_payments(30))  # first-use allocations
    phases = report_phase_bytes(doc_with_payments(1000))
    assert (phases["report"] - phases["run"]) / 1000 < 300, phases


def test_report_rows_share_their_key_tables():
    """Every payment, channel and actor row of the demo reports shares its
    kind's key table, so it is smaller than a plain copy of itself. From
    CPython 3.11 a class's first instances get room for more keys than they
    set, one slot less for each new instance, so the demos run once first."""
    for name in DEMO_DIGESTS:
        demo_report(name)
    for name in DEMO_DIGESTS:
        report = demo_report(name)
        rows = report["payments"] + report["channels"] + list(report["actors"].values())
        assert len(rows) > 3, name
        assert [row for row in rows if sys.getsizeof(row) >= sys.getsizeof(dict(row))] == [], name


def test_finished_star_world_holds_no_gossip_or_route_state():
    """What a finished 100-user star world leaves allocated, built and run.
    Measured at 556 KiB once an earlier engine has stocked the interpreter's
    free lists; 748 KiB while each actor's gossip state kept its per-peer
    bookkeeping after convergence and the route-graph cache outlived the
    run."""
    scenario = scenario_of(star_doc(100))
    Engine(scenario_of(star_doc(4))).run()  # first-use allocations
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(scenario)
        engine.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.graphs == {}
    assert held < 640 * 1024, held


def test_no_key_state_outlives_its_world():
    """Running worlds again, or new ones, leaves nothing live once they are
    gone: no key, signature or advert is remembered by the process. Measured
    at 0 bytes; a process-wide keyring of every key ever made held 96 to
    123 KiB here: re-registered secrets of the warm-up worlds and new entries
    for the other seed's."""
    rng, other_rng = random.Random(0xACCE97), random.Random(5150)
    warm = [random_scenario(rng) for _ in range(30)]
    other = [random_scenario(other_rng) for _ in range(30)]
    for doc in warm:  # first-use allocations
        run_scenario(scenario_of(doc))
    gc.collect()
    tracemalloc.start()
    try:
        for doc in warm + other:
            run_scenario(scenario_of(doc))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024, held


def test_every_src_import_is_the_standard_library_cryptography_or_comit():
    """No runtime dependency beyond `cryptography`: every absolute import in
    the `comit` package names a standard-library module, `cryptography` or
    `comit` itself."""
    allowed = set(sys.stdlib_module_names) | {"cryptography", "comit"}
    bad = []
    for path in sorted(Path(comit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: imports {n}" for n in names
                    if n.split(".")[0] not in allowed]
    assert bad == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--phases"]:
        sys.exit("usage: python tests/test_canonical.py --phases")
    print_phases()
