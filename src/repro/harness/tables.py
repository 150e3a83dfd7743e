"""Paper-style table rendering.

Produces the same row structure as Tables 1-3 of the paper: one
row-group per synthesis flow showing the module and register
allocations, #Mux, and per-bit-width fault coverage, test-generation
time (effort units and seconds), test-application cycles and area.
"""

from __future__ import annotations

from typing import Any, Collection

from .experiment import CellResult, FLOW_ORDER, FLOW_TITLES, module_symbol

_STRING, _INTEGER = (str, "a string"), (int, "an integer")
_NUMBER = ((int, float), "a number")
#: Every ``row()`` column :func:`render_table` or :func:`render_summary`
#: reads, with the type it must hold (they format it) and how an error
#: message names that type.
ROW_COLUMNS: dict[str, tuple[type | tuple[type, ...], str]] = {
    "benchmark": _STRING, "flow": _STRING, "bits": _INTEGER,
    "steps": _INTEGER, "modules": _INTEGER, "registers": _INTEGER,
    "muxes": _INTEGER, "coverage_pct": _NUMBER, "tg_effort_k": _NUMBER,
    "tg_seconds": _NUMBER, "test_cycles": _INTEGER, "area_mm2": _NUMBER}


def column_problem(data: dict[str, Any], what: str,
                   columns: Collection[str] = ROW_COLUMNS) -> str | None:
    """Why ``data`` cannot be rendered: it lacks one of ``columns`` (of
    :data:`ROW_COLUMNS`) or holds one of the wrong type; None when it
    can.  ``what`` names ``data`` in the message."""
    missing = [column for column in columns if column not in data]
    if missing:
        return f"{what} lacks {', '.join(missing)}"
    for column in columns:
        expected, noun = ROW_COLUMNS[column]
        value = data[column]
        if not isinstance(value, expected) or isinstance(value, bool):
            return f"{what}'s {column} is {value!r}, not {noun}"
    return None


def format_allocation(cell: CellResult) -> list[str]:
    """Module/register allocation lines, paper style.

    Cells restored from a journal (:class:`~repro.runtime.checkpoint.
    JournaledCell`) carry their lines pre-rendered; live cells render
    from the design.
    """
    stored = getattr(cell, "alloc_lines", None)
    if stored is not None:
        return list(stored)
    lines = []
    for module, ops in cell.module_groups.items():
        symbol = module_symbol(cell.design, module)
        lines.append(f"({symbol}): " + ", ".join(ops))
    for variables in cell.register_groups.values():
        lines.append("R: " + ", ".join(variables))
    return lines


def render_table(benchmark: str, cells: list[CellResult],
                 show_area: bool = True) -> str:
    """Render one benchmark's full comparison table as text."""
    by_flow: dict[str, list[CellResult]] = {}
    for cell in cells:
        by_flow.setdefault(cell.flow, []).append(cell)

    header = (f"{'Flow':<11} {'#Mux':>4} {'#Bit':>4} {'Coverage':>9} "
              f"{'TG effort(k)':>13} {'TG sec':>7} {'Cycles':>7}")
    if show_area:
        header += f" {'Area mm2':>9}"
    rule = "-" * len(header)
    lines = [f"=== {benchmark} (area-optimised) ===", header, rule]
    for flow in FLOW_ORDER:
        if flow not in by_flow:
            continue
        flow_cells = sorted(by_flow[flow], key=lambda c: c.bits)
        first = flow_cells[0]
        for alloc_line in format_allocation(first):
            lines.append(f"    {alloc_line}")
        for cell in flow_cells:
            row = cell.row()
            line = (f"{FLOW_TITLES[flow]:<11} {row['muxes']:>4} "
                    f"{row['bits']:>4} {row['coverage_pct']:>8.2f}% "
                    f"{row['tg_effort_k']:>13.1f} {row['tg_seconds']:>7.2f} "
                    f"{row['test_cycles']:>7}")
            if show_area:
                line += f" {row['area_mm2']:>9.3f}"
            lines.append(line)
        lines.append(rule)
    return "\n".join(lines)


def render_summary(cells: list[CellResult]) -> str:
    """A compact cross-flow summary (one line per cell)."""
    lines = [f"{'bench':<8} {'flow':<10} {'bits':>4} {'steps':>5} "
             f"{'mods':>4} {'regs':>4} {'mux':>3} {'cov%':>7} "
             f"{'effort(k)':>9} {'cycles':>6} {'area':>7}"]
    for cell in cells:
        row = cell.row()
        lines.append(
            f"{row['benchmark']:<8} {row['flow']:<10} {row['bits']:>4} "
            f"{row['steps']:>5} {row['modules']:>4} {row['registers']:>4} "
            f"{row['muxes']:>3} {row['coverage_pct']:>7.2f} "
            f"{row['tg_effort_k']:>9.1f} {row['test_cycles']:>6} "
            f"{row['area_mm2']:>7.3f}")
    return "\n".join(lines)
