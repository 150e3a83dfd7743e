"""Unit tests for the markdown report generator."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.harness import load_rows, render_report, shape_checks, write_report

BENCH_SUPPORT = Path(__file__).resolve().parents[1] / "benchmarks" / "_support.py"


@pytest.fixture
def sample_rows():
    rows = []
    for flow, cov4, cov16, area16 in (
            ("camad", 80.0, 90.0, 1.5),
            ("approach1", 85.0, 93.0, 1.2),
            ("approach2", 86.0, 94.0, 1.2),
            ("ours", 88.0, 96.0, 1.0)):
        for bits, cov in ((4, cov4), (16, cov16)):
            rows.append({"kind": "table1", "benchmark": "ex", "flow": flow,
                         "bits": bits, "coverage_pct": cov,
                         "test_cycles": 100, "area_mm2": area16 if bits == 16
                         else 0.3, "paper_coverage_pct": 90.0,
                         "paper_test_cycles": 500})
    rows.append({"kind": "extra", "benchmark": "paulin", "flow": "ours",
                 "bits": 4, "coverage_pct": 91.0, "test_cycles": 50,
                 "area_mm2": 0.2})
    return rows


class TestShapeChecks:
    def test_all_claims_hold(self, sample_rows):
        checks = dict(shape_checks(sample_rows, "table1"))
        assert checks["CAMAD has the worst coverage at every width"]
        assert checks["ours has the best 16-bit coverage"]
        assert checks["ours has the smallest 16-bit area"]

    def test_violated_claim_flagged(self, sample_rows):
        for row in sample_rows:
            if row["flow"] == "camad" and row["bits"] == 4:
                row["coverage_pct"] = 99.0
        checks = dict(shape_checks(sample_rows, "table1"))
        assert not checks["CAMAD has the worst coverage at every width"]

    def test_empty_kind(self, sample_rows):
        assert shape_checks(sample_rows, "table3") == []


class TestRendering:
    def test_report_contains_tables_and_marks(self, sample_rows):
        text = render_report(sample_rows)
        assert "Table 1 — Ex" in text
        assert "✔" in text
        assert "90.0 → 88.0 %" in text
        assert "Extra benchmarks" in text

    def test_missing_tables_noted(self):
        text = render_report([])
        assert "no rows recorded" in text

    def test_roundtrip_through_files(self, sample_rows, tmp_path):
        rows_file = tmp_path / "rows.jsonl"
        with open(rows_file, "w") as handle:
            for row in sample_rows:
                handle.write(json.dumps(row) + "\n")
        output = tmp_path / "report.md"
        text = write_report(rows_file, output)
        assert output.read_text().strip() == text.strip()
        assert load_rows(rows_file) == sample_rows


def bench_session(out_dir):
    """A fresh load of the bench suite's ``_support`` module, as one
    bench process sees it, recording under ``out_dir``."""
    spec = importlib.util.spec_from_file_location("_support", BENCH_SUPPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT_DIR = out_dir
    return module


class TestBenchRows:
    def test_a_session_replaces_only_the_kinds_it_records(self, tmp_path):
        first = bench_session(tmp_path)
        first.record_row("table1", {"cell": 1})
        first.record_row("extra", {"cell": 2})
        first.record_row("table1", {"cell": 3})
        second = bench_session(tmp_path)
        second.record_row("table1", {"cell": 4})
        second.record_row("table1", {"cell": 5})
        rows = [json.loads(line) for line in
                (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert rows == [{"kind": "extra", "cell": 2},
                        {"kind": "table1", "cell": 4},
                        {"kind": "table1", "cell": 5}]
