"""Every name a ``repro`` module lists in ``__all__`` is defined there,
so ``from repro.x import *`` never meets a stale entry, and is used by
code outside ``tests/``; and ``import repro`` loads neither the retired
Petri-net model nor ``repro.analysis``, which only ``lint`` and
``analyze`` need."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Exported names kept although no code outside tests uses them: the
#: ``lint`` hints of SCH005 and GAT004 name them as the fix to apply.
KEPT_FOR_LINT_HINTS = {"compact", "prune_unobservable"}


def test_every_all_entry_resolves():
    names = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__,
                                                    prefix="repro.")]
    stale = []
    listed = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        listed += len(exported)
        stale += [f"{name}.{attr}" for attr in exported
                  if not hasattr(module, attr)]
    assert listed and not stale, stale


def test_every_all_entry_has_a_caller_outside_tests():
    # A use is any name or attribute (an assignment's target too) or an
    # import outside an ``__init__.py`` (there, an import is the
    # re-export itself), in code outside tests; strings and comments do
    # not count.
    used: set[str] = set()
    exported: dict[str, str] = {}
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (isinstance(node, ast.ImportFrom)
                      and path.name != "__init__.py"):
                    used.update(alias.name for alias in node.names)
            for node in tree.body:
                if (folder == "src" and isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__all__"
                                for t in node.targets)):
                    for name in ast.literal_eval(node.value):
                        exported[name] = str(path.relative_to(ROOT))
    assert exported
    unused = sorted(f"{path}: {name}" for name, path in exported.items()
                    if name not in used | KEPT_FOR_LINT_HINTS)
    assert unused == []


def test_import_loads_no_petri_or_analysis_module():
    # A fresh interpreter, since this process has imported everything.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = [m.split(".") for m in done.stdout.split()
              if m.startswith("repro.")]
    assert ["repro", "etpn", "design"] in loaded
    assert [m for m in loaded if m[1] in ("petri", "analysis")] == []
