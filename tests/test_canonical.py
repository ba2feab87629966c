"""The canonical encodings and what they cost.

`report_json` and `Scenario.digest` write and hash exactly the bytes of the
`json.dumps` calls they replace; those calls stay here as their oracles.
The memory guards use `tracemalloc`, so they count allocations and not
time, and hold on any machine.
"""

import dataclasses
import gc
import hashlib
import importlib
import json
import pkgutil
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comit
from comit.chainlab import Outpoint
from comit.channels import Channel
from comit.crp import GossipState
from comit.simnet import run_scenario, validate_scenario
from comit.simnet.engine import Engine
from comit.simnet.report import report_json
from comit.simnet.scenario import _plain
from test_acceptance import random_scenario
from test_simnet import DEMO_DIGESTS, demo_report, demo_scenario, minimal_doc, star_doc


def oracle_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def oracle_digest(scenario) -> str:
    return hashlib.sha256(json.dumps(scenario, sort_keys=True, default=_plain).encode()).hexdigest()


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
    paid = {p.spec.recipient for p in engine.payments if p.invoice is not None}
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


def test_records_are_slotted_except_the_scenario_specs():
    """A record made per payment, channel update or UTXO carries no
    instance `__dict__`, nor do the two plain classes made once per channel
    and once per actor. The scenario specs keep theirs: `Scenario.digest`
    reads them through `vars()`."""
    records = record_classes()
    specs = records.pop("comit.simnet.scenario")
    assert len(specs) == 8
    assert all(c.__dictoffset__ != 0 for c in specs)
    slotted = [c for classes in records.values() for c in classes]
    assert len(slotted) == 38, [c.__name__ for c in slotted]
    # an Outpoint is a tuple, not a dataclass, and has no __dict__ either
    slotted += [Outpoint, Channel, GossipState]
    assert [c.__qualname__ for c in slotted if c.__dictoffset__ != 0] == []


def test_retired_payments_hold_no_hops_or_invoices(thousand_payments):
    engine = Engine(thousand_payments)
    engine.run()
    assert engine.live == {}
    assert [p.idx for p in engine.payments if p.hops or p.hop_count != 1] == []
    assert all(actor.invoices == {} for actor in engine.actors.values())


def test_run_memory_per_payment_is_bounded(thousand_payments):
    """What `Engine.run` leaves allocated on the 1,000-payment world, per
    payment. Measured at 1,055 bytes in a fresh process (857 once an earlier
    engine has stocked the interpreter's free lists); 1,296 to 1,505 before
    records were slotted and retired payments let go of their hops."""
    Engine(scenario_of(doc_with_payments(1))).run()  # first-use allocations
    engine = Engine(thousand_payments)
    tracemalloc.start()
    try:
        engine.run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(engine.payments) < 1280, held


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
