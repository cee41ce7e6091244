"""Bounded fuzz of the scenario boundary: every schema-valid scenario ends
in a report (exit 0) or a structured error (exit 1), never in a traceback,
and writes nothing to stderr.

Draws stay small (m <= 7, n <= 3, N <= 8, samples <= 64, |nu| <= 3,
R in [-2, 2]), so each scenario runs in well under a second; inputs whose
cost is unbounded (huge nu, large m) are outside the drawn range.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from kamforge.cli import main, validate_scenario

FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=5)
NU = st.one_of(st.integers(-3, 3), FRAC.map(str))
CUTOFF = st.integers(1, 8)
FLOAT = st.floats(-2, 2)


@st.composite
def context_and_omega(draw):
    """A scalar context and an omega of length n <= 3 in it (or across radicands)."""
    d = draw(st.sampled_from([None, 2, 3, 4, 5]))
    n = draw(st.integers(1, 3))
    if d is None:
        return {"mode": "rational"}, draw(st.lists(FRAC.map(str), min_size=n, max_size=n))
    quad = st.tuples(FRAC, FRAC, st.sampled_from([d, 2, 3, 5]))
    lit = st.one_of(FRAC.map(str), quad.map(lambda t: [str(t[0]), str(t[1]), t[2]]))
    return {"mode": "quadratic", "d": d}, draw(st.lists(lit, min_size=n, max_size=n))


@st.composite
def lattice_scenario(draw):
    kind = draw(st.sampled_from(["resonances", "diophantine", "hadamard"]))
    ctx, omega = draw(context_and_omega())
    scen = {"kind": kind, "context": ctx, "omega": omega, "N": draw(CUTOFF)}
    if kind == "diophantine":
        scen["nu"] = draw(NU)
    if kind == "hadamard":
        scen["decay_rate"] = draw(st.floats(-3, 3))
    return scen


@st.composite
def lie_scenario(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        vec = st.lists(FLOAT, min_size=n, max_size=n)
        scen = {"kind": "lie-homogeneous", "a": draw(vec), "b": draw(vec)}
    else:
        mat = st.lists(st.lists(FLOAT, min_size=n, max_size=n), min_size=n, max_size=n)
        scen = {"kind": "lie-parametric", "a": draw(mat), "b": draw(mat)}
    if draw(st.booleans()):
        scen["max_iter"] = draw(st.integers(1, 50))
    if draw(st.booleans()):
        scen["tol"] = draw(st.floats(-1e-3, 1e-2))
    return scen


LIOUVILLE = st.fixed_dictionaries({
    "kind": st.just("liouville"),
    "k_values": st.lists(st.integers(1, 8), max_size=3),
    "nu": NU,
    "m": st.integers(2, 7),
})
MEASURE = st.fixed_dictionaries({
    "kind": st.just("measure"),
    "n": st.integers(1, 3),
    "R": FLOAT,
    "C_values": st.lists(st.floats(-1, 10), max_size=3),
    "nu": NU,
    "N": CUTOFF,
    "samples": st.integers(1, 64),
    "seed": st.integers(0, 2**32),
})
SCENARIOS = st.one_of(LIOUVILLE, MEASURE, lattice_scenario(), lie_scenario())


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(SCENARIOS)
def test_schema_valid_scenario_ends_in_report_or_structured_error(scen):
    validate_scenario(scen)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "s.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(scen, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["run", path, "--out", out])
        with open(out) as fh:
            report = json.load(fh)
    assert rc in (0, 1)
    assert err.getvalue() == "" and [str(w.message) for w in caught] == []
    assert ("error" in report) == (rc == 1) != ("results" in report)
