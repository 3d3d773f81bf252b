"""Every name a `qmap_synth` module lists in `__all__` resolves, so an
export left behind by a deleted name fails here rather than in a
user's `from qmap_synth import *`."""
import importlib
import pkgutil

import pytest

import qmap_synth

MODULES = ["qmap_synth"] + [
    f"qmap_synth.{info.name}"
    for info in pkgutil.iter_modules(qmap_synth.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
