"""The plain schema check is sound, and every shipped scenario passes it.

``cli._plainly_valid`` lets a scenario skip jsonschema only when it proves
the scenario valid; in any doubt jsonschema decides.  So it must never
pass a scenario jsonschema would refuse (the hypothesis test below), it
must know every keyword the schemas use, and every golden and benchmark
scenario must pass it, or those runs would load jsonschema again.
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


def _keywords(schema):
    """Every keyword in ``schema`` and in the schemas nested in it."""
    for key, value in schema.items():
        yield key
        if key == "properties":
            for sub in value.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(value)
        elif key == "prefixItems":
            for sub in value:
                yield from _keywords(sub)


def _errors(obj, kind):
    schema = cli.SCENARIO_SCHEMAS[kind]
    return list(jsonschema.validators.validator_for(schema)(schema).iter_errors(obj))


def test_plain_check_knows_every_schema_keyword():
    used = {key for schema in cli.SCENARIO_SCHEMAS.values() for key in _keywords(schema)}
    assert used <= set(cli._PLAIN_CHECKS), used - set(cli._PLAIN_CHECKS)


def test_every_kind_has_a_shipped_valid_scenario():
    assert {scen["kind"] for scen in VALID.values()} == set(cli.SCENARIO_SCHEMAS)


@pytest.mark.parametrize("name", sorted(VALID))
def test_shipped_scenario_passes_the_plain_check(name):
    scen = VALID[name]
    assert cli._plainly_valid(scen, cli.SCENARIO_SCHEMAS[scen["kind"]])


def _nf():
    return copy.deepcopy(GOLDEN_VALID["sqrt2-formal.scenario.json"])


def _with(scen, edit):
    edit(scen)
    return scen


# (scenario, what the plain check says, whether jsonschema finds it valid)
NAMED = {
    "bool-for-integer": (_with(_nf(), lambda s: s["trunc"].update(n=True)), False, False),
    "integral-float-for-integer": (_with(_nf(), lambda s: s["trunc"].update(Dp=1.0)), False, True),
    "string-for-number": (_with(copy.deepcopy(BENCHMARK["small-denominators/measure0"]), lambda s: s.update(R="1")), False, False),
    "bool-for-number": (_with(copy.deepcopy(BENCHMARK["small-denominators/measure0"]), lambda s: s.update(R=True)), False, False),
    "extra-key": (_with(_nf(), lambda s: s.update(extra=1)), False, False),
    "extra-key-in-trunc": (_with(_nf(), lambda s: s["trunc"].update(extra=1)), False, False),
    "missing-key": (_with(_nf(), lambda s: s.pop("Q")), False, False),
    "term-of-3": (_with(_nf(), lambda s: s["H"][0].pop()), False, False),
    "term-of-5": (_with(_nf(), lambda s: s["H"][0].append("1")), False, False),
    "nested-array-literal": (_with(_nf(), lambda s: s["Q"][0].__setitem__(3, [[1, [2]], "3"])), True, True),
    "negative-seed": ({"kind": "selftest", "seed": -1}, False, False),
    "dp-minus-one": (_with(_nf(), lambda s: s["trunc"].update(Dp=-1)), False, False),
    "unknown-mode": (_with(_nf(), lambda s: s["context"].update(mode="float64")), False, False),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_mutation(name):
    # a doubtful scenario, such as 1.0 for an integer, is judged by jsonschema
    scen, plain, valid = NAMED[name]
    assert cli._plainly_valid(scen, cli.SCENARIO_SCHEMAS[scen["kind"]]) is plain
    assert (not _errors(scen, scen["kind"])) is valid
    if valid:
        assert cli.validate_scenario(scen) == scen["kind"]
    else:
        with pytest.raises(SchemaError):
            cli.validate_scenario(scen)


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
def test_plain_check_is_sound(case):
    scen, kind = case
    plain = cli._plainly_valid(scen, cli.SCENARIO_SCHEMAS[kind])
    event(f"plain check: {plain}")
    if plain:
        assert _errors(scen, kind) == []


def test_unknown_keyword_is_doubtful():
    assert not cli._plainly_valid(1, {"type": "integer", "maximum": 5})
    assert not cli._plainly_valid([1], {"type": "array", "uniqueItems": True})
    assert cli._plainly_valid(1, {"type": "integer", "minimum": 0})
