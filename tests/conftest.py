"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import faulthandler
import importlib.util
import os

import pytest

from repro.core.options import SynthesisOptions
from repro.truth.table import TruthTable

#: Without pytest-timeout the ``timeout`` ini option would be ignored and
#: a hung test would stall the suite; the stdlib fallback below dumps
#: every thread's traceback and exits instead.
TIMEOUT_FALLBACK = importlib.util.find_spec("pytest_timeout") is None

_WATCHDOG_STDERR = pytest.StashKey()


def pytest_addoption(parser: pytest.Parser) -> None:
    if TIMEOUT_FALLBACK:
        parser.addini("timeout", "per-test ceiling in seconds (0: none)",
                      default="0")


def pytest_configure(config: pytest.Config) -> None:
    # Output capture is suspended here, so fd 2 is the real stderr; the
    # duplicate stays real while a test runs and fd 2 points at a
    # capture file.
    if TIMEOUT_FALLBACK and float(config.getini("timeout") or 0) > 0:
        config.stash[_WATCHDOG_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config: pytest.Config) -> None:
    stream = config.stash.get(_WATCHDOG_STDERR, None)
    if stream is not None:
        stream.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem):
    stream = item.config.stash.get(_WATCHDOG_STDERR, None)
    if stream is not None:
        faulthandler.dump_traceback_later(
            float(item.config.getini("timeout")), exit=True, file=stream)
    try:
        yield
    finally:
        if stream is not None:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fast_options() -> SynthesisOptions:
    """Synthesis options tuned for test speed (no verify; callers verify)."""
    return SynthesisOptions(verify=False)


@pytest.fixture
def maj3_table() -> TruthTable:
    """3-input majority — small, non-trivial, XOR-reducible."""
    return TruthTable.from_function(3, lambda m: int(m.bit_count() >= 2))


@pytest.fixture
def parity4_table() -> TruthTable:
    return TruthTable.from_function(4, lambda m: m.bit_count() & 1)
