"""Decoded keys are shared tuples, and the report writer writes each once.

``series._Keys`` decodes a packed key once per window into (I, J, k, |J|,
dirs, (k, |J|)), and equal I, J and group tuples of one window are one
object.  Here every decoded entry is checked against a plain decoder that
reads the fields by division, with the layout taken from ``pack`` alone.

``cli._dumps`` writes a tuple's text once per object and depth.  It must
still write exactly what ``json.dumps`` writes when one tuple object sits
at several depths, and when tuples that compare equal, such as (1, 2),
(1.0, 2.0) and (True, 2), are written differently or have no hash.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamforge import PoissonSeries, TruncationSpec
from kamforge.cli import _dumps
from kamforge.scalar import RATIONAL

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# windows with no q-room, no p-room, neither, and some of each
WINDOWS = {"Nq=0": (3, 0), "Dp=0": (0, 2), "both 0": (0, 0), "wide": (4, 3)}


def reference_decode(keys, n, P):
    """(I, J, k, |J|, dirs, (k, |J|)) of the packed key P, read field by field."""
    zero = (0,) * n
    origin = keys.pack(zero, zero, 0)  # every I field holds its offset
    unit = keys.pack(zero, zero[:-1] + (1,), 0) - origin  # one step of the J_n field
    off = origin // unit ** (2 * n)  # the top field, I_1
    fields = []
    for _ in range(2 * n + 1):  # k, J_n .. J_1, I_n .. I_1
        P, x = divmod(P, unit)
        fields.append(x)
    k = fields[0]
    J = tuple(reversed(fields[1 : n + 1]))
    I = tuple(x - off for x in reversed(fields[n + 1 :]))
    dirs = []
    for a, b in zip(I, J):
        if b:  # a Fraction keeps its denominator positive and in lowest terms
            r = Fraction(a, b)
            dirs.append((r.numerator, r.denominator))
        else:
            dirs.append((1, 0) if a else None)
    return I, J, k, sum(J), tuple(dirs), (k, sum(J))


@st.composite
def keys_in(draw, n, Dp, Dt, Nq):
    """(I, J, k) keys inside the window; each key comes again with another k."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        I = tuple(draw(st.integers(-Nq, Nq)) for _ in range(n))
        J, room = [], Dp
        for _ in range(n):
            J.append(draw(st.integers(0, room)))
            room -= J[-1]
        k = draw(st.integers(0, Dt))
        out += [(I, tuple(J), k), (I, tuple(J), (k + 1) % (Dt + 1))]
    return out


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_decode_matches_reference_and_shares_tuples(n, window, data):
    Nq, Dp = WINDOWS[window]
    Dt = data.draw(st.integers(0, 5))
    keys = TruncationSpec(n=n, Dp=Dp, Dt=Dt, Nq=Nq)._keys
    seen = {}
    for I, J, k in data.draw(keys_in(n, Dp, Dt, Nq)):
        P = keys.pack(I, J, k)
        entry = keys[P]
        assert entry == reference_decode(keys, n, P)
        assert entry[:3] == (I, J, k)
        assert keys[P] is entry  # decoded once
        for tup in (entry[0], entry[1], entry[5]):
            assert seen.setdefault(tup, tup) is tup  # equal tuples are one object


def test_series_json_holds_the_shared_tuples():
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
    terms = {((1, -1), (0, 1), 0): 1, ((1, -1), (1, 0), 1): 2, ((0, 0), (0, 1), 2): Fraction(1, 3)}
    terms = PoissonSeries(RATIONAL, tr, "torus", terms).to_json()["terms"]
    (I0, J0, _, _), (I1, J1, _, _), (_, J2, _, _) = terms  # in the order of (I, J, k)
    assert type(I0) is tuple and I0 == (0, 0) and J0 == (0, 1)
    assert I1 == (1, -1) and J2 == (1, 0)
    assert J0 is J1  # both (0, 1): one object


def _reference(x):
    return json.dumps(x, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_writer_with_one_tuple_at_several_depths():
    t = (1, -2, "x")
    nested = (t, [t])
    report = {"a": t, "b": [t, [t, [t, {"c": t}]]], "d": nested, "e": [nested, (nested, t)], "f": ()}
    assert _dumps(report) == _reference(report)
    tr = TruncationSpec(n=2, Dp=2, Dt=1, Nq=1)
    f = PoissonSeries(RATIONAL, tr, "torus", {((0, 1), (1, 0), 0): 1, ((0, 1), (1, 0), 1): -1})
    blob = f.to_json()
    report = {"series": blob, "nested": {"again": [blob, blob["terms"]]}}
    assert _dumps(report) == _reference(report)


def test_writer_with_equal_tuples_written_differently():
    # built at run time, so each is its own object
    ints, floats, flags, lists = tuple([1, 2]), tuple([1.0, 2.0]), tuple([True, 2]), tuple([[1], 2])
    assert ints == floats == flags and hash(ints) == hash(floats) == hash(flags)
    report = {
        "side by side": [ints, floats, flags, lists, ints, floats, flags, lists],
        "keyed": {"a": floats, "b": ints, "c": lists, "d": flags},
    }
    assert _dumps(report) == _reference(report)
