"""Every name a ``repro`` module lists in ``__all__`` is defined there,
so ``from repro.x import *`` never meets a stale entry, and is used by
code outside ``tests/``; every defaulted parameter in ``src/`` is passed
by code outside ``tests/``; and ``import repro`` loads neither the
retired Petri-net model nor ``repro.analysis``, which only ``lint`` and
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

#: Defaulted parameters kept although no call outside tests passes them,
#: keyed by the name a call uses (a class for its ``__init__``).
KEPT_PARAMETERS = {
    ("Budget", "clock"): "tests drive deadlines with a fake clock",
    ("charge", "steps"): "tests exhaust a step budget in one charge",
    ("PodemEngine", "max_implications"):
        "tests abort PODEM on its implication limit",
    ("full_fault_list", "collapse"):
        "the exhaustive ATPG oracle's uncollapsed fault universe",
    ("mobility_path_schedule", "horizon"):
        "tests check balancing under slack",
    ("run_journaled_grid", "cell_wall_seconds"):
        "the per-cell deadline ROADMAP lists under Deferred",
    ("main", "argv"): "tests drive the CLI in-process; the console "
                      "script reads sys.argv",
    ("explore", "grid"): "perfbench passes it through its Bench._explore "
                         "alias",
}


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


def _defaulted_parameters(tree: ast.Module):
    """(call name, parameter, position or None) of each defaulted
    parameter of each function and method in ``tree``.

    A method's position excludes ``self``, and a class's ``__init__``
    is called by the class name.
    """
    methods: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[id(item)] = (node.name if item.name == "__init__"
                                         else item.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if id(node) in methods and not static else 0
        name = methods.get(id(node), node.name)
        positional = node.args.posonlyargs + node.args.args
        for index in range(len(positional) - len(node.args.defaults),
                           len(positional)):
            yield name, positional[index].arg, index - skip
        for arg, default in zip(node.args.kwonlyargs,
                                node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def test_every_defaulted_parameter_has_a_caller_outside_tests():
    """Each parameter with a default, of every function and method in
    ``src/``, is passed by keyword or by position by some call of that
    name in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.

    Calls are matched by name alone, and a call with ``*args`` or
    ``**kwargs`` passes everything.  So the scan cannot see a parameter
    that is only forwarded from another unused one (each forwarding
    call counts as a caller), nor a dataclass field such as
    ``ATPGConfig.analysis_prune``, which has no ``def``.
    """
    calls: dict[str, list[tuple[float, set]]] = {}
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    defaulted = [parameter for path in sorted((ROOT / "src").rglob("*.py"))
                 for parameter in _defaulted_parameters(
                     ast.parse(path.read_text(), str(path)))]
    assert defaulted
    unpassed = {(name, param) for name, param, index in defaulted
                if not any(param in keywords or None in keywords
                           or (index is not None and positional > index)
                           for positional, keywords in calls.get(name, ()))}
    # An allowlisted parameter that gains a caller leaves the allowlist.
    assert (sorted(unpassed - KEPT_PARAMETERS.keys()),
            sorted(KEPT_PARAMETERS.keys() - unpassed)) == ([], [])


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
