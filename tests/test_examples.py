"""Smoke tests for the runnable examples (the fast ones).

The slower examples (compare_flows, custom_behavior) run full ATPG and
are exercised by the benchmark suite's equivalent paths; here we keep
the quick ones from rotting, and check that every example's imports
still resolve.
"""

import ast
import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "RTL check 4" in out
        assert "MISMATCH" not in out

    def test_testability_explorer_small(self):
        out = run_example("testability_explorer.py", "tseng")
        assert "quality" in out
        assert out.count("\n") > 9   # the grid printed

    def test_examples_all_importable(self):
        """Every example parses, and each of its import statements runs:
        every module it names loads and every name it imports exists."""
        missing = []
        for path in sorted(EXAMPLES.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (not isinstance(node, (ast.Import, ast.ImportFrom))
                        or getattr(node, "module", None) == "__future__"):
                    continue
                statement = ast.Module(body=[node], type_ignores=[])
                try:
                    exec(compile(statement, str(path), "exec"), {})
                except ImportError as exc:
                    missing.append(f"{path.name}: {exc}")
        assert not missing, missing
