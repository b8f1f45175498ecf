"""Shared infrastructure for the benchmark harnesses.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md Section 4).  Timing goes through pytest-benchmark; the
regenerated table *rows* are registered through the ``report`` fixture and
printed in the terminal summary (so they survive output capturing), as
well as written to ``benchmarks/results/<name>.txt``.

Quick mode (``REPRO_BENCH_QUICK=1``, CI's smoke runs) writes nothing
under ``benchmarks/results/``: the committed records there are full-mode
runs, and a shrunken quick run must not replace them.  The terminal
summary still shows every table.
"""

from __future__ import annotations

import os
import random

import pytest

_REPORTS: dict[str, str] = {}
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"


def write_result(filename: str, text: str) -> None:
    """Write ``benchmarks/results/<filename>`` (nothing in quick mode)."""
    if QUICK:
        return
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, filename), "w") as handle:
        handle.write(text)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    widths = [len(h) for h in headers]
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@pytest.fixture
def report():
    """Register a named report section: ``report(name, text)``."""

    def _register(name: str, text: str) -> None:
        _REPORTS[name] = text
        write_result(f"{name}.txt", text + "\n")

    return _register


@pytest.fixture
def rng():
    return random.Random(20250611)


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("paper table/figure regenerations")
    for name in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} ---")
        for line in _REPORTS[name].splitlines():
            terminalreporter.write_line(line)
