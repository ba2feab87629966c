"""README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_using_the_layers_directly_runs_as_written():
    """The fenced Python under "Using the layers directly" pays 2,000 from
    alice to bob off-chain and leaves the 8000 / 7000 its comment states."""
    section = README.read_text(encoding="utf-8").split("## Using the layers directly", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# 8000 / 7000" in code
    ns = {}
    exec(compile(code, f"{README}:Using the layers directly", "exec"), ns)
    channel, alice, bob = ns["channel"], ns["alice"], ns["bob"]
    assert (channel.balance_of(alice), channel.balance_of(bob)) == (8000, 7000)
    assert channel.pending_htlcs == ()
    assert channel.ledger.confirmed_tx_count == 1  # the funding transaction only
