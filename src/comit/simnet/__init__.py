"""Deterministic simulation of the full stack: chains, channels, routing,
and payments, driven by declarative scenario files.

A scenario pins chains, actors (users, liquidity providers, businesses),
channels, quotes, payments, faults, and scheduled closes; `run_scenario`
executes it tick by tick and produces a canonical report whose bytes are a
pure function of the scenario. The `comit-sim` command line wraps this with
`run`, `validate`, and `demo` subcommands.
"""

from .engine import Engine, derived_bytes, derived_rng, run_scenario
from .report import build_report, render_text, report_json
from .scenario import (
    ActorSpec,
    ChainSpec,
    ChannelSpec,
    CloseSpec,
    FaultSpec,
    PaymentSpec,
    QuoteSpec,
    Scenario,
    load_scenario,
    validate_scenario,
)

__all__ = [
    "ActorSpec",
    "ChainSpec",
    "ChannelSpec",
    "CloseSpec",
    "Engine",
    "FaultSpec",
    "PaymentSpec",
    "QuoteSpec",
    "Scenario",
    "build_report",
    "derived_bytes",
    "derived_rng",
    "load_scenario",
    "render_text",
    "report_json",
    "run_scenario",
    "validate_scenario",
]
