"""`validate_scenario` reads each spec field by the schema on that field.
The hand-written validator it replaced is kept in `scenario_oracle.py`, and
the two must agree exactly: an equal `Scenario` (or None) and the same
diagnostics in the same order, on every document here."""

import copy
import dataclasses
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_simnet
from comit.crp.onion import ID_CAP
from comit.simnet import (
    ActorSpec,
    ChainSpec,
    ChannelSpec,
    CloseSpec,
    FaultSpec,
    PaymentSpec,
    QuoteSpec,
    Scenario,
    validate_scenario,
)
from scenario_oracle import validate_scenario as oracle
from test_acceptance import workloads
from test_mesh_faults import CORPUS_SEED, MESHES, mesh_doc

SECTIONS = {
    "chains": ChainSpec,
    "actors": ActorSpec,
    "channels": ChannelSpec,
    "quotes": QuoteSpec,
    "payments": PaymentSpec,
    "faults": FaultSpec,
    "closes": CloseSpec,
}


def agree(doc) -> tuple:
    got = validate_scenario(doc)
    assert got == oracle(doc)
    return got


def demos() -> list[bytes]:
    folder = resources.files("comit.simnet") / "scenarios"
    return [f.read_bytes() for f in sorted(folder.iterdir(), key=lambda f: f.name)
            if f.name.endswith(".json")]


def test_demos_and_corpora_agree():
    """The demos, the multi-fault meshes, the acceptance corpus and corpus
    seeds 0-31: 16,516 documents, every one accepted."""
    rng = random.Random(CORPUS_SEED)
    docs = demos() + [mesh_doc(rng) for _ in range(MESHES)]
    for seed in (0xACCE97, *range(32)):
        docs += workloads.corpus(seed, 500)
    assert len(docs) == 16_516
    for doc in docs:
        scenario, errors = agree(doc)
        assert errors == [] and scenario is not None


def _cases(fn) -> list[tuple]:
    """The argument tuples pytest calls test `fn` with."""
    marks = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
    if not marks:
        return [()]
    (_, values), = (m.args for m in marks)
    return [v if isinstance(v, tuple) else (v,) for v in values]


VALIDATION_TESTS = sorted(
    name for name in vars(test_simnet)
    if name.startswith(("test_validate_", "test_value_limits_", "test_minimal_scenario_",
                        "test_channel_index_"))
)


@pytest.mark.parametrize("name", VALIDATION_TESTS)
def test_every_validation_test_input_agrees(name, monkeypatch):
    """Each validation test of `test_simnet` runs with its validator checked
    against the oracle on every document it validates."""
    seen = []

    def checked(doc):
        seen.append(doc)
        return agree(doc)

    monkeypatch.setattr(test_simnet, "validate_scenario", checked)
    fn = getattr(test_simnet, name)
    for args in _cases(fn):
        fn(*args)
    assert seen


def full_doc() -> dict:
    """`line_doc` with a quote, a second payment, every fault kind and a
    close, so every section and schema field is present."""
    doc = test_simnet.line_doc()
    doc["payments"].append({"at_tick": 9, "sender": "bob", "recipient": "ann", "amount": 500,
                            "asset": "coin", "hash_fn": "SHA256"})
    doc["faults"] = [
        {"kind": "crash", "actor": "lp", "at_tick": 20, "duration": 2},
        {"kind": "stall-secret", "actor": "lp", "at_tick": 30, "until_tick": 33},
        {"kind": "broadcast-revoked", "actor": "ann", "at_tick": 40, "channel": 0},
    ]
    doc["closes"] = [{"at_tick": 50, "channel": 1}]
    return doc


BASES = [full_doc(), *workloads.corpus(0xACCE97, 12)]
RETYPED = {int: ["7", 1.5, True, None, [], {}], str: [7, "", None, True, ["a"]]}


def _mutations(doc: dict, base: dict, draw) -> None:
    """Apply one schema-drawn mutation to `doc`: drop or retype a field, go
    one past a bound, break a choice, an id cap or a `differs`, or name a
    missing reference. `base` is the document before any mutation."""
    section = draw(st.sampled_from(["document", *[s for s in SECTIONS if doc.get(s)]]))
    if section == "document":
        entry, spec = doc, Scenario
    else:
        entry = draw(st.sampled_from(doc[section]))
        spec = SECTIONS[section]
    schema = {f.name: f for f in dataclasses.fields(spec) if "schema" in f.metadata}
    f = schema[draw(st.sampled_from(list(schema)))]
    rule = f.metadata["schema"]
    key = rule.key or f.name
    kinds = ["drop", "retype"]
    if rule.lo is not None:
        kinds.append("below")
    if rule.hi is not None or rule.before_end:
        kinds.append("above")
    kinds += [k for k, on in (("choice", rule.choices), ("cap", rule.cap), ("ref", rule.ref),
                              ("same", rule.differs)) if on]
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        entry.pop(key, None)
    elif kind == "retype":
        wrong = RETYPED[str if f.type == "str" else int] if rule.parse is None else [None, 3]
        entry[key] = draw(st.sampled_from(wrong))
    elif kind == "below":
        entry[key] = rule.lo - 1
    elif kind == "above":
        entry[key] = rule.hi + 1 if rule.hi is not None else base.get("max_ticks", 500)
    elif kind == "choice":
        entry[key] = "wizard"
    elif kind == "cap":
        entry[key] = "x" * (ID_CAP + 1)
    elif kind == "ref":
        entry[key] = (len(doc.get("channels", [])) if rule.ref == "channel"
                      else draw(st.sampled_from(["ghost", base["actors"][0]["name"]])))
    else:
        entry[key] = entry.get(rule.differs[0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(base=st.sampled_from(BASES), data=st.data())
def test_schema_mutants_agree(base, data):
    """Documents with one to four schema-drawn mutations, several in one
    entry at times, get the same diagnostics, in the same order."""
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        _mutations(doc, base, data.draw)
    agree(doc)
