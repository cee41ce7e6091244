"""The scenario check agrees with jsonschema, and every shipped scenario passes it.

``cli._violations`` gives each scenario's verdict and error message.  Its
reference is jsonschema's Draft 2020-12 validator with a strict
``integer`` (``type(x) is int``, so 1.0 is no integer): on mutated
scenarios the two must agree on the verdict and on the message (the
hypothesis test below).  The check must know every keyword the schemas
use and raise on any other, and every golden and benchmark scenario must
pass it.
"""

import copy
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kamforge import cli
from kamforge.errors import SchemaError

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "golden"


def _benchmark_scenarios():
    """Seed 1 of every perfbench workload; ``perfbench/scenarios.py`` uses the standard library only."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", TESTS.parent / "perfbench" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{w}/{name}": scen for w in module.WORKLOADS for name, scen in module.generate(w, 1)}


GOLDEN_VALID = {
    path.name: json.loads(path.read_text())
    for path in sorted(GOLDEN.glob("*.scenario.json"))
    if path.name != "schema-error.scenario.json"
}
BYTE_IDENTITY = {case["name"]: case["scenario"] for case in json.loads((TESTS / "data" / "byte_identity.json").read_text())}
BENCHMARK = _benchmark_scenarios()
VALID = {**GOLDEN_VALID, **{f"byte-identity/{k}": v for k, v in BYTE_IDENTITY.items()}, **BENCHMARK}

# the reference: jsonschema with JSON's integer, which 1.0 is not
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda checker, x: type(x) is int),
)


def _reference(obj, kind):
    """jsonschema's message for ``obj``, the one ``jsonschema.validate`` raises, or None if it is valid."""
    error = jsonschema.exceptions.best_match(STRICT(cli.SCENARIO_SCHEMAS[kind]).iter_errors(obj))
    return None if error is None else error.message


def _message(obj):
    """The scenario check's message for ``obj``, or None if it is valid."""
    try:
        cli.validate_scenario(obj)
    except SchemaError as exc:
        prefix = f"scenario does not match the {obj['kind']!r} schema: "
        assert str(exc).startswith(prefix), exc
        return str(exc)[len(prefix) :]
    return None


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("prefixItems", ())]
    for sub in nested + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


SUBSCHEMAS = [sub for schema in cli.SCENARIO_SCHEMAS.values() for sub in _subschemas(schema)]


def test_walker_knows_every_schema_keyword():
    # the walker reads every keyword of a schema, whatever the value, and raises on one it does not know
    for sub in SUBSCHEMAS:
        list(cli._violations(None, sub))
    # const and enum compare with ==, which is jsonschema's equality for strings, not for bools
    assert all(type(v) is str for sub in SUBSCHEMAS for v in [sub.get("const", ""), *sub.get("enum", ())])


def test_unknown_keyword_raises():
    # never a pass: each of these schemas refuses some value
    schemas = [
        {"type": "integer", "maximum": 5},
        {"type": "array", "uniqueItems": True},
        {"type": "boolean"},
        {"type": "object", "additionalProperties": {"type": "integer"}},
    ]
    for schema in schemas:
        with pytest.raises(KeyError):
            list(cli._violations(None, schema))


def test_every_kind_has_a_shipped_valid_scenario():
    assert {scen["kind"] for scen in VALID.values()} == set(cli.SCENARIO_SCHEMAS)


@pytest.mark.parametrize("name", sorted(VALID))
def test_shipped_scenario_passes_the_plain_check(name):
    scen = VALID[name]
    assert list(cli._violations(scen, cli.SCENARIO_SCHEMAS[scen["kind"]])) == []


def _nf():
    return copy.deepcopy(GOLDEN_VALID["sqrt2-formal.scenario.json"])


def _measure():
    return copy.deepcopy(BENCHMARK["small-denominators/measure0"])


def _with(scen, edit):
    edit(scen)
    return scen


# (scenario, the message it is refused with, or None where it is accepted)
NAMED = {
    "bool-for-integer": (_with(_nf(), lambda s: s["trunc"].update(n=True)), "True is not of type 'integer'"),
    "integral-float-for-integer": (_with(_nf(), lambda s: s["trunc"].update(Dp=1.0)), "1.0 is not of type 'integer'"),
    "string-for-number": (_with(_measure(), lambda s: s.update(R="1")), "'1' is not of type 'number'"),
    "bool-for-number": (_with(_measure(), lambda s: s.update(R=True)), "True is not of type 'number'"),
    "extra-key": (
        _with(_nf(), lambda s: s.update(extra=1)),
        "Additional properties are not allowed ('extra' was unexpected)",
    ),
    "extra-key-in-trunc": (
        _with(_nf(), lambda s: s["trunc"].update(extra=1)),
        "Additional properties are not allowed ('extra' was unexpected)",
    ),
    "missing-key": (_with(_nf(), lambda s: s.pop("Q")), "'Q' is a required property"),
    "term-of-3": (_with(_nf(), lambda s: s["H"][0].pop()), "[[0, 0], [1, 0], 0] is too short"),
    "term-of-5": (
        _with(_nf(), lambda s: s["H"][0].append("1")),
        "[[0, 0], [1, 0], 0, ['1', '0', 2], '1'] is too long",
    ),
    "nested-array-literal": (_with(_nf(), lambda s: s["Q"][0].__setitem__(3, [[1, [2]], "3"])), None),
    "negative-seed": ({"kind": "selftest", "seed": -1}, "-1 is less than the minimum of 0"),
    "dp-minus-one": (_with(_nf(), lambda s: s["trunc"].update(Dp=-1)), "-1 is less than the minimum of 0"),
    "unknown-mode": (
        _with(_nf(), lambda s: s["context"].update(mode="float64")),
        "'float64' is not one of ['rational', 'quadratic']",
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_mutation(name):
    scen, message = NAMED[name]
    assert _message(scen) == _reference(scen, scen["kind"]) == message


REPLACEMENTS = [True, False, None, 1.0, 2.0, -1.0, 0.5, -1, 0, 1, 2, "1", "1/2", "x", [], {}, [[1]], [1, [2]], [[[0]], "1"]]


def _slots(node, parent=None, key=None):
    """(parent, key) of ``node`` and of every value nested in it."""
    yield parent, key
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _slots(v, node, k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _slots(v, node, i)


@st.composite
def mutated(draw):
    """A valid scenario of some kind with one to three mutations, and that kind."""
    kind = draw(st.sampled_from(sorted(cli.SCENARIO_SCHEMAS)))
    name = draw(st.sampled_from(sorted(k for k, v in VALID.items() if v["kind"] == kind)))
    holder = [copy.deepcopy(VALID[name])]

    def replacement():
        return copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))

    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "wrap", "grow", "shrink", "negate"]))
        # each operation picks among the values it can change
        takes = {"grow": (dict, list), "shrink": (dict, list), "negate": (int, float)}.get(op, object)
        slots = [(parent, key) for parent, key in _slots(holder[0], holder, 0) if isinstance(parent[key], takes)]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        node = parent[key]
        if op == "replace":
            parent[key] = replacement()
        elif op == "wrap":
            parent[key] = [node]
        elif op == "grow" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "kind", "seed", "Dp", "N"]))] = replacement()
        elif op == "grow":
            node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else replacement())
        elif op == "shrink" and node:
            del node[draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))]
        elif op == "negate":
            parent[key] = -node - 1
    return holder[0], kind


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(mutated())
def test_walker_agrees_with_jsonschema(case):
    scen, kind = case
    message = _reference(scen, kind)
    assert (list(cli._violations(scen, cli.SCENARIO_SCHEMAS[kind])) == []) is (message is None)
    if isinstance(scen, dict) and scen.get("kind") == kind:
        event("valid" if message is None else "refused")
        assert _message(scen) == message
    else:  # a scenario whose "kind" is gone or changed is refused before any schema is read
        event("kind changed")
        with pytest.raises(SchemaError):
            cli.validate_scenario(scen)
