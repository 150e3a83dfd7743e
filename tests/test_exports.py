"""Every name a ``repro`` module lists in ``__all__`` is defined there,
so ``from repro.x import *`` never meets a stale entry; and ``import
repro`` loads neither the retired Petri-net model nor
``repro.analysis``, which only ``lint`` and ``analyze`` need."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


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
