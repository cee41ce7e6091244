"""The benchmark's tracer wraps kamforge functions by name; each name must exist.

``perfbench/tracer.py`` is loaded from its path and only read: no wrapper
is installed.  A refactor that renames or removes a traced function fails
here instead of when the benchmark runs, and one that stops calling the
bracket through its module name, or with other arguments than ``(f, g)``,
fails the flow test below.
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


def test_flow_apply_sends_every_lie_step_through_the_module_bracket(monkeypatch):
    # the tracer's bracket counter unpacks ``f, g = args`` of kamforge.series.poisson_bracket
    from kamforge import Generator, PoissonSeries, TruncationSpec, series
    from kamforge.scalar import RATIONAL

    bracket, calls = series.poisson_bracket, []

    def recorder(*args, **kwargs):
        assert not kwargs
        f, g = args
        out = bracket(f, g)
        calls.append((f, g, out))
        return out

    monkeypatch.setattr(series, "poisson_bracket", recorder)
    tr = TruncationSpec(n=1, Dp=3, Dt=2, Nq=3)
    f = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, J=(2,))
    S = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, I=(1,), k=1)
    series.flow_apply(Generator.hamiltonian(S), f)
    # {p^2, q t} = 2 p q t, {2 p q t, q t} = 2 q^2 t^2, and the third bracket is past Dt
    assert len(calls) == 3
    assert calls[0][0] is f and all(g is S for _, g, _ in calls)
    assert calls[-1][2].is_zero()
