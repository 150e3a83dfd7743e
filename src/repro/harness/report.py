"""Markdown report generation from recorded benchmark rows.

``pytest benchmarks/`` appends one JSON row per result to
``benchmarks/out/rows.jsonl``; this module turns that file into the
paper-vs-measured markdown used by EXPERIMENTS.md, so the document can
be regenerated from a fresh run with one command
(``python -m repro report``).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ReproError
from ..runtime.atomic import atomic_write_text
from .experiment import FLOW_ORDER, FLOW_TITLES

_TABLE_TITLES = {"table1": "Table 1 — Ex", "table2": "Table 2 — Dct",
                 "table3": "Table 3 — Diffeq"}
_CELL_COLUMNS = ("flow", "coverage_pct", "test_cycles", "area_mm2")
#: The columns the report reads from each row kind it renders.
_COLUMNS = {**{kind: ("bits", *_CELL_COLUMNS) for kind in _TABLE_TITLES},
            "extra": ("benchmark", *_CELL_COLUMNS)}
#: The type each of those columns must have, since the report sorts and
#: formats them, and how an error message names it.
_COLUMN_TYPES = {"bits": (int, "an integer"),
                 "test_cycles": (int, "an integer"),
                 "coverage_pct": ((int, float), "a number"),
                 "area_mm2": ((int, float), "a number"),
                 "benchmark": (str, "a string"),
                 "flow": (str, "a string")}


def load_rows(path: str | Path) -> list[dict]:
    """Read a rows.jsonl file.

    Raises:
        ReproError: the file is missing, a line is not a JSON object,
            or a row the report renders lacks a column it reads, has
            a column of the wrong type or names a flow outside
            ``FLOW_ORDER``.  The message names the file and the line.
    """
    if not Path(path).is_file():
        raise ReproError(f"no recorded rows at {path}: run "
                         f"'pytest benchmarks/' first")
    rows = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if not isinstance(row, dict):
                raise ReproError(f"{path}: line {number} is not a JSON "
                                 f"object")
            kind = row.get("kind")
            if isinstance(kind, str) and kind in _COLUMNS:
                missing = [c for c in _COLUMNS[kind] if c not in row]
                if missing:
                    raise ReproError(f"{path}: line {number}: {kind} row "
                                     f"lacks {', '.join(missing)}")
                for column in _COLUMNS[kind]:
                    expected, noun = _COLUMN_TYPES[column]
                    value = row[column]
                    if (not isinstance(value, expected)
                            or isinstance(value, bool)):
                        raise ReproError(f"{path}: line {number}: {kind} "
                                         f"row's {column} is {value!r}, "
                                         f"not {noun}")
                if row["flow"] not in FLOW_ORDER:
                    raise ReproError(f"{path}: line {number}: unknown "
                                     f"flow {row['flow']!r}")
            rows.append(row)
    return rows


def _sorted_cells(rows: list[dict], kind: str) -> list[dict]:
    cells = [r for r in rows if r.get("kind") == kind]
    return sorted(cells, key=lambda r: (FLOW_ORDER.index(r["flow"]),
                                        r["bits"]))


def table_markdown(rows: list[dict], kind: str) -> str:
    """One paper table as paper-vs-measured markdown."""
    cells = _sorted_cells(rows, kind)
    if not cells:
        return f"*(no rows recorded for {kind})*"
    lines = [f"### {_TABLE_TITLES.get(kind, kind)}", "",
             "| Flow | #Bit | Coverage (paper → ours) | Cycles "
             "(paper → ours) | Area ours mm² |",
             "|------|-----:|------------------------:|"
             "----------------------:|--------------:|"]
    for cell in cells:
        paper_cov = cell.get("paper_coverage_pct", "—")
        paper_cyc = cell.get("paper_test_cycles", "—")
        lines.append(
            f"| {FLOW_TITLES[cell['flow']]} | {cell['bits']} "
            f"| {paper_cov} → {cell['coverage_pct']} % "
            f"| {paper_cyc} → {cell['test_cycles']} "
            f"| {cell['area_mm2']} |")
    return "\n".join(lines)


def shape_checks(rows: list[dict], kind: str) -> list[tuple[str, bool]]:
    """The qualitative claims EXPERIMENTS.md asserts, evaluated."""
    cells = _sorted_cells(rows, kind)
    if not cells:
        return []
    by = {(c["flow"], c["bits"]): c for c in cells}
    bits_list = sorted({c["bits"] for c in cells})
    checks = []
    worst = all(
        by[("camad", b)]["coverage_pct"]
        <= min(by[(f, b)]["coverage_pct"] for f in FLOW_ORDER if f != "camad")
        + 0.5
        for b in bits_list if ("camad", b) in by)
    checks.append(("CAMAD has the worst coverage at every width", worst))
    monotone = all(
        by[(f, bits_list[i])]["coverage_pct"]
        <= by[(f, bits_list[i + 1])]["coverage_pct"] + 1.0
        for f in FLOW_ORDER
        for i in range(len(bits_list) - 1)
        if (f, bits_list[i]) in by and (f, bits_list[i + 1]) in by)
    checks.append(("coverage is (near-)monotone in bit width", monotone))
    if ("ours", 16) in by:
        best16 = by[("ours", 16)]["coverage_pct"] >= max(
            by[(f, 16)]["coverage_pct"] for f in FLOW_ORDER
            if (f, 16) in by) - 1e-9
        checks.append(("ours has the best 16-bit coverage", best16))
        smallest = by[("ours", 16)]["area_mm2"] <= min(
            by[(f, 16)]["area_mm2"] for f in FLOW_ORDER if (f, 16) in by)
        checks.append(("ours has the smallest 16-bit area", smallest))
    return checks


def render_report(rows: list[dict]) -> str:
    """The complete markdown report."""
    parts = ["# Benchmark report (generated)", ""]
    for kind in ("table1", "table2", "table3"):
        parts.append(table_markdown(rows, kind))
        checks = shape_checks(rows, kind)
        if checks:
            parts.append("")
            for claim, holds in checks:
                parts.append(f"- {'✔' if holds else '✗'} {claim}")
        parts.append("")
    extras = [r for r in rows if r.get("kind") == "extra"]
    if extras:
        parts.append("### Extra benchmarks (4-bit)")
        parts.append("")
        parts.append("| Benchmark | Flow | Coverage | Cycles | Area |")
        parts.append("|-----------|------|---------:|-------:|-----:|")
        for row in sorted(extras, key=lambda r: (r["benchmark"],
                                                 FLOW_ORDER.index(r["flow"]))):
            parts.append(f"| {row['benchmark']} | {row['flow']} "
                         f"| {row['coverage_pct']} % | {row['test_cycles']} "
                         f"| {row['area_mm2']} |")
        parts.append("")
    return "\n".join(parts)


def write_report(rows_path: str | Path, output_path: str | Path) -> str:
    """Load rows, render, write atomically, and return the markdown."""
    text = render_report(load_rows(rows_path))
    atomic_write_text(output_path, text + "\n")
    return text
