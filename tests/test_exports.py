"""Every name a kamforge module exports in ``__all__`` must exist.

A refactor that deletes a function but leaves its name in ``__all__``
breaks ``from kamforge.<module> import *``; this fails first.
"""

import importlib

import pytest

MODULES = ["scalar", "series", "normalform", "diophantine", "lie"]

EXPORTS = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(f"kamforge.{module}").__all__
]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_resolves(module, name):
    assert hasattr(importlib.import_module(f"kamforge.{module}"), name)
