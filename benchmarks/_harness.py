"""Shared reporting helpers for the benchmark / experiment harness.

Every experiment (see DESIGN.md, Section 2) produces a small table of
measured quantities -- empirical optimality gaps, approximation ratios,
runtimes -- alongside the pytest-benchmark timing statistics.  The helpers
here print those tables and persist them under ``benchmarks/results/`` --
a text rendering plus a machine-readable JSON document that records the
active compute backend (``repro.engine``) and the host fingerprint
(cpu count, platform, python version), so BENCH trajectories can tell
NumPy runs from pure-Python runs and results from different machines
apart.  Everything can be regenerated with a single
``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

from repro.engine import get_backend
from repro.query.calibration import host_fingerprint

RESULTS_DIRECTORY = os.path.join(os.path.dirname(__file__), "results")


def active_backend() -> str:
    """Name of the compute backend benchmarks are running on."""
    return get_backend().name


def format_table(
    header: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a fixed-width text table."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(column)) for column in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append(" | ".join(str(c).ljust(w) for c, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def report(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Print an experiment table and persist it under benchmarks/results/."""
    rows = [list(row) for row in rows]
    table = format_table(header, rows)
    backend = active_backend()
    body = f"[{experiment}] {title} (backend: {backend})\n{table}"
    if notes:
        body += f"\n{notes}"
    print("\n" + body)
    os.makedirs(RESULTS_DIRECTORY, exist_ok=True)
    path = os.path.join(RESULTS_DIRECTORY, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body + "\n")
    document = {
        "experiment": experiment,
        "title": title,
        "backend": backend,
        "host": host_fingerprint(),
        "header": list(header),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
        "notes": notes,
    }
    json_path = os.path.join(RESULTS_DIRECTORY, f"{experiment}.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return body


def _json_cell(cell: object) -> object:
    if isinstance(cell, float) and (math.isnan(cell) or math.isinf(cell)):
        return None  # keep the document strict JSON (no bare NaN/Infinity)
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)
