"""The benchmark's tracer wraps kamforge functions by name; each name must exist.

``perfbench/tracer.py`` is loaded from its path and only read: no wrapper
is installed.  A refactor that renames or removes a traced function fails
here instead of when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "modname, path, count",
    [(mod, path, count) for _, mod, path, _, count in TARGETS],
    ids=[f"{mod}.{path}" for _, mod, path, _, _ in TARGETS],
)
def test_tracer_target_resolves(modname, path, count):
    module = importlib.import_module(modname)
    if "." in path:  # a method, wrapped on its class
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{path} is not defined on its class"
    else:  # a function, wrapped in every kamforge namespace that binds it
        assert callable(getattr(module, path)), f"{modname}.{path} is not a function"
    assert count is None or callable(count)


def test_tracer_targets_are_unique():
    names = [(mod, path) for _, mod, path, _, _ in TARGETS]
    assert len(names) == len(set(names))
