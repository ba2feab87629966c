"""The benchmark's layer tracer (`bench/layertrace.py`) wraps engine and
layer functions by the names the engine looks them up by. A refactor that
drops or renames one of those names must fail here, in tier-1, and not
only in the traced benchmark self-test."""

import json
from importlib import resources

from comit.simnet import validate_scenario
from comit.simnet.engine import Engine
from test_acceptance import load_bench


def test_every_traced_name_is_wrapped_and_restored():
    """Inside `Tracer().install()` every name the tracer lists is wrapped,
    a run with a forward calls the two hop rules through the engine's own
    bindings, gossip exchanges go through the counted `gossip_step`, and on
    exit every name is the original object again."""
    lt = load_bench("layertrace")
    names = [(owner, attr) for owner, attr, _ in (*lt.SPANNED, *lt.COUNTED)]
    before = {key: vars(key[0])[key[1]] for key in names}
    doc = json.loads((resources.files("comit.simnet") / "scenarios" / "cross-chain-2lp.json")
                     .read_text())
    scenario, errors = validate_scenario(doc)
    assert errors == []
    tracer = lt.Tracer()
    with tracer.install():
        for owner, attr in names:
            assert vars(owner)[attr] is not before[(owner, attr)], attr
        engine = Engine(scenario)
        engine.run()
    called = {span.name for span in tracer.spans}
    assert {"swap.check_forward", "swap.check_delivery", "swap.prepare_attempt"} <= called
    assert tracer.counts["crp.gossip_step"][0] > 0
    for owner, attr in names:
        assert vars(owner)[attr] is before[(owner, attr)], attr
