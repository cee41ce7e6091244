"""The report writer against the standard library.

``cli._dumps`` must write exactly what ``json.dumps(x, sort_keys=True,
indent=2, allow_nan=False)`` writes, plus a newline, for every JSON-like
value: nested dicts, lists and tuples, awkward strings (quotes,
backslashes, control characters, non-ASCII text, lone surrogates), big
integers, extreme floats and ``numpy.float64``.  A non-finite float at
any depth raises NonFiniteResult.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamforge.cli import _dumps
from kamforge.errors import NonFiniteResult

# hypothesis draws no surrogates, so the lone ones come from this list
AWKWARD = '"\\/\x00\x01\x1f\x7f\x80\xe9\u2028\u4e2d\ud800\udbff\udc00\udfff\U0001f600'
TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(AWKWARD)),
    max_size=8,
)
EXTREME = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EXTREME),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**300), 2**300),
    FINITE,
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=24)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])


def _reference(x):
    return json.dumps(x, sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(VALUES)
def test_writer_matches_json_dumps(x):
    assert _dumps(x) == _reference(x)


@pytest.mark.parametrize("x", [[], {}, (), [[]], {"a": {}}, [{}, [], ()], True, False, None, "", 0])
def test_empty_containers_and_constants(x):
    assert _dumps(x) == _reference(x)


@st.composite
def buried_non_finite(draw):
    """A non-finite float placed among finite siblings, at depth 0 to 5."""
    x = draw(NON_FINITE)
    for _ in range(draw(st.integers(0, 5))):
        siblings = draw(st.lists(SCALARS, max_size=2))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(siblings)))
            x = siblings[:at] + [x] + siblings[at:]
        else:
            keys = draw(st.lists(TEXT, min_size=len(siblings) + 1, max_size=len(siblings) + 1, unique=True))
            x = {**dict(zip(keys, siblings)), keys[-1]: x}
    return x


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(buried_non_finite())
def test_non_finite_float_raises_at_any_depth(x):
    with pytest.raises(ValueError):
        _reference(x)
    with pytest.raises(NonFiniteResult):
        _dumps(x)
