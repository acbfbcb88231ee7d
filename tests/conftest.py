"""Shared pytest wiring: acceptance verdict lines in the terminal summary, and
the worker count of harness.parallel_map."""

import pytest

from guardlab import harness

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=[1, 2])
def workers(request, monkeypatch):
    """parallel_map's worker count: 1 is the plain loop, 2 a forked pool."""
    monkeypatch.setattr(harness, "usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def one_worker(monkeypatch):
    """parallel_map as the plain loop, for tests that count calls in this
    process: a forked worker's calls never reach it."""
    monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
