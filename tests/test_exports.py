"""Every name a ``repro`` module lists in ``__all__`` is defined there,
so ``from repro.x import *`` never meets a stale entry."""

import importlib
import pkgutil

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
