"""Metamorphic relations: the report depends on the world a document
describes, not on how the document lists it (Chen, Cheung & Yiu,
"Metamorphic Testing", HKUST-CS98-01, 1998). Each relation rewrites a
corpus document without changing its world and compares the two reports.
Tier-1 runs every 10th document of the acceptance corpus."""

import copy

import pytest

from comit.simnet import run_scenario, validate_scenario
from test_acceptance import workloads


@pytest.fixture(scope="module")
def corpus_slice():
    return workloads.corpus(workloads.DEFAULT_SEED, 500)[::10]


def run_doc(doc):
    scenario, errors = validate_scenario(doc)
    assert errors == []
    return run_scenario(scenario)


def test_actor_order_changes_no_report_row(corpus_slice):
    """Reversing `actors` moves only the digest of the document itself."""
    assert len(corpus_slice) == 50
    for i, doc in enumerate(corpus_slice):
        reversed_doc = copy.deepcopy(doc)
        reversed_doc["actors"].reverse()
        want, got = run_doc(doc), run_doc(reversed_doc)
        assert got.keys() == want.keys()
        assert got["scenario_digest"] != want["scenario_digest"], i
        assert {k: v for k, v in got.items() if k != "scenario_digest"} == {
            k: v for k, v in want.items() if k != "scenario_digest"
        }, f"corpus document {10 * i}"
