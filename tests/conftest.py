import random
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

_criterion_lines = []


def hop_secrets(rng: random.Random, count: int) -> list[bytes]:
    """`count` 32-byte onion ephemeral secrets drawn from `rng`, one per hop
    in route order."""
    return [rng.randbytes(32) for _ in range(count)]


@pytest.fixture
def rng():
    return random.Random(0xC0211)


@pytest.fixture
def seeded():
    def make(seed: int) -> random.Random:
        return random.Random(seed)

    return make


@pytest.fixture(scope="session")
def criterion():
    """Record one pass/fail line per acceptance criterion.

    The line prints immediately (visible with -s) and again in the
    terminal summary, so the verdicts survive output capture."""

    def record(number: int, ok: bool, description: str) -> None:
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
