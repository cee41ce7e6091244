import decimal
import json
import os
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction

import jsonschema
import pytest

import kamforge.cli as cli
from kamforge import series
from kamforge.cli import main, run_scenario, selftest, validate_scenario
from kamforge.errors import SchemaError


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


KNF = {
    "kind": "kolmogorov-nf",
    "context": {"mode": "rational"},
    "trunc": {"n": 1, "Dp": 3, "Dt": 3, "Nq": 3},
    "H": [[[0], [1], 0, "3"], [[0], [2], 0, "1/2"]],
    "Q": [[[0], [1], 0, "1"]],
}


def test_kolmogorov_scenario(tmp_path):
    out = tmp_path / "report.json"
    assert run_scenario(write(tmp_path, "s.json", KNF), str(out)) == 0
    report = json.loads(out.read_text())
    assert report["results"]["casimir"]["terms"] == [
        [[0], [0], 1, "-3"],
        [[0], [0], 2, "-1/2"],
    ]
    gens = report["results"]["generators"]
    assert gens == [{"kind": "translation", "order": 1, "d": ["-1"]}]
    assert report["results"]["remainder"]["terms"] == []


def test_resonances_scenario(tmp_path):
    scen = {
        "kind": "resonances",
        "context": {"mode": "rational"},
        "omega": ["1", "-2"],
        "N": 3,
    }
    out = tmp_path / "r.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 0
    report = json.loads(out.read_text())
    assert [2, 1] in report["results"]["resonances"]


def test_malformed_scenario(tmp_path):
    out = tmp_path / "r.json"
    rc = run_scenario(write(tmp_path, "bad.json", {"kind": "resonances"}), str(out))
    assert rc != 0
    assert json.loads(out.read_text())["error"]["type"] == "SchemaError"
    with pytest.raises(SchemaError):
        validate_scenario({"kind": "no-such-kind"})
    with pytest.raises(SchemaError):
        validate_scenario([1, 2, 3])


@pytest.mark.parametrize("kind", sorted(cli.SCENARIO_SCHEMAS))
def test_scenario_schemas_are_valid_schemas(kind):
    schema = cli.SCENARIO_SCHEMAS[kind]
    jsonschema.validators.validator_for(schema).check_schema(schema)


# omega = (1, -2) is resonant at I = (2, 1); Kolmogorov mode needs alpha invertible
RESONANT_H = {
    "formal-nf": [[[0, 0], [1, 0], 0, "1"], [[0, 0], [0, 1], 0, "-2"]],
    "kolmogorov-nf": [
        [[0, 0], [1, 0], 0, "1"],
        [[0, 0], [0, 1], 0, "-2"],
        [[0, 0], [2, 0], 0, "1/2"],
        [[0, 0], [0, 2], 0, "1/2"],
    ],
}


@pytest.mark.parametrize("kind", sorted(RESONANT_H))
def test_resonant_failure_is_report_not_crash(tmp_path, kind):
    scen = {
        "kind": kind,
        "context": {"mode": "rational"},
        "trunc": {"n": 2, "Dp": 2, "Dt": 2, "Nq": 3},
        "H": RESONANT_H[kind],
        "Q": [[[2, 1], [0, 0], 0, "1"]],
    }
    out = tmp_path / "r.json"
    rc = run_scenario(write(tmp_path, "s.json", scen), str(out))
    assert rc == 1
    err = json.loads(out.read_text())["error"]
    assert err["type"] == "ResonantDenominator"
    assert err["vector"] == [2, 1] and err["t_order"] == 1


def _resonant_nf(kind, Dp, Dt, omega, Q, extra_H=()):
    H = [
        [[0, 0], [1, 0], 0, omega[0]],
        [[0, 0], [0, 1], 0, omega[1]],
        [[0, 0], [2, 0], 0, "1/2"],
        [[0, 0], [0, 2], 0, "1/2"],
        *extra_H,
    ]
    trunc = {"n": 2, "Dp": Dp, "Dt": Dt, "Nq": 4}
    return {"kind": kind, "context": {"mode": "rational"}, "trunc": trunc, "H": H, "Q": Q}


# Several modes are resonant at the lowest p-degree of a later t-order.  The
# report names the first of them in the storage order that the generators and
# flows of the earlier orders leave, so these vectors pin that order.
LATER_RESONANCES = {
    "formal-t2": (
        _resonant_nf("formal-nf", 3, 3, ["1", "1"], [
            [[-2, 0], [0, 0], 0, "1"], [[-2, 1], [0, 0], 0, "3/2"], [[-1, 2], [0, 0], 0, "1/2"],
            [[0, -1], [1, 1], 0, "4"], [[0, 0], [0, 1], 0, "5"], [[0, 1], [1, 0], 0, "-1/3"],
            [[0, 1], [1, 1], 0, "2"], [[1, 0], [1, 0], 0, "-4"],
        ], extra_H=[[[0, 0], [1, 1], 0, "5"]]),
        [-2, 2], 2,
    ),
    "formal-t3": (
        _resonant_nf("formal-nf", 3, 4, ["2", "-1"], [
            [[-1, 0], [0, 1], 0, "3/2"], [[0, 2], [0, 0], 0, "1/4"], [[1, -1], [0, 0], 0, "-1"],
            [[1, 1], [1, 0], 0, "-1/2"], [[2, 0], [1, 1], 0, "1/2"],
        ]),
        [2, 4], 3,
    ),
    "kolmogorov-t3": (
        _resonant_nf("kolmogorov-nf", 2, 3, ["1", "1"], [
            [[-2, -1], [0, 1], 0, "-1"], [[0, 2], [0, 2], 0, "5/4"], [[1, -2], [0, 0], 0, "1"],
            [[1, 1], [0, 0], 0, "1/4"],
        ]),
        [3, -3], 3,
    ),
    "kolmogorov-t3-wide": (
        _resonant_nf("kolmogorov-nf", 2, 4, ["1", "1"], [
            [[-1, -1], [1, 0], 0, "3/4"], [[-1, 2], [0, 0], 0, "-3/4"], [[-1, 2], [1, 1], 0, "1/3"],
            [[0, 1], [0, 2], 0, "-5"], [[1, 0], [1, 0], 0, "5/2"], [[1, 2], [1, 0], 0, "-4"],
            [[2, 1], [0, 0], 0, "-2"],
        ]),
        [-1, 1], 3,
    ),
}


@pytest.mark.parametrize("case", sorted(LATER_RESONANCES))
def test_resonance_at_a_later_t_order_names_a_pinned_vector(tmp_path, case):
    scen, vector, t_order = LATER_RESONANCES[case]
    out = tmp_path / "r.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 1
    err = json.loads(out.read_text())["error"]
    assert err["type"] == "ResonantDenominator"
    assert (err["vector"], err["t_order"]) == (vector, t_order)


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    scen = write(tmp_path, "s.json", KNF)
    run_scenario(scen, str(a))
    run_scenario(scen, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_selftest_properties_and_determinism(tmp_path):
    r = selftest(7)
    assert r["all_pass"]
    assert set(r["properties"]) == {
        "jacobi",
        "flow_morphism",
        "eigen_relation",
        "commutant_orthogonality",
        "oracle_equivalence",
    }
    assert selftest(7) == r


def test_selftest_mutation_fixture(monkeypatch):
    def flipped(f, g):
        return series.poisson_bracket(g, f)

    monkeypatch.setattr(cli, "poisson_bracket", flipped)
    r = selftest(3)
    assert r["properties"]["jacobi"]["pass"]
    assert not r["properties"]["eigen_relation"]["pass"]
    assert "sign" in r["properties"]["eigen_relation"]["detail"]


def test_main_selftest_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--seed", "7", "--out", str(a)]) == 0
    assert main(["selftest", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_calls_do_not_share_flags(tmp_path, capsys):
    scen = write(tmp_path, "s.json", KNF)
    a, b, c, d = (tmp_path / f"{k}.json" for k in "abcd")
    assert main(["run", scen, "--out", str(a), "--timings"]) == 0
    assert main(["run", scen, "--out", str(b)]) == 0
    assert "elapsed_seconds" in json.loads(a.read_text())["diagnostics"]
    assert "elapsed_seconds" not in json.loads(b.read_text())["diagnostics"]
    capsys.readouterr()
    assert main(["run", scen]) == 0  # no --out: the report goes to stdout
    assert capsys.readouterr().out.encode() == b.read_bytes()
    assert main(["selftest", "--seed", "7", "--out", str(c)]) == 0
    assert main(["selftest", "--out", str(d)]) == 0
    assert json.loads(c.read_text())["scenario"]["seed"] == 7
    assert json.loads(d.read_text())["scenario"]["seed"] == 0


def _resonances(context, omega):
    return {"kind": "resonances", "context": context, "omega": omega, "N": 2}


def _formal(n, H, Q):
    return {
        "kind": "formal-nf",
        "context": {"mode": "rational"},
        "trunc": {"n": n, "Dp": 2, "Dt": 2, "Nq": 2},
        "H": H,
        "Q": Q,
    }


H1 = [[[0], [1], 0, "1"]]
HADAMARD = {"kind": "hadamard", "context": {"mode": "rational"}, "omega": ["1", "1393/985"], "N": 3}
DIOPHANTINE = {
    "kind": "diophantine", "context": {"mode": "rational"}, "omega": ["1", "1393/985"], "nu": "1", "N": 2
}
MEASURE = {"kind": "measure", "n": 2, "R": 1.0, "N": 3, "samples": 10, "seed": 1}
F64 = {"mode": "float64"}

# scenarios that must end in an error report, not a traceback; a str is the file's text
BAD_INPUT = {
    "quadratic-without-d": _resonances({"mode": "quadratic"}, ["1", "2"]),
    "quadratic-d-not-square-free": _resonances({"mode": "quadratic", "d": 4}, ["1", "2"]),
    "fraction-in-float64": _resonances(F64, ["1/3", "1"]),
    "float64-formal-nf": {**_formal(1, H1, []), "context": F64},
    "float64-kolmogorov-nf": {**KNF, "context": F64},
    "float64-diophantine": {"kind": "diophantine", "context": F64, "omega": ["1", "0.5"], "nu": "1", "N": 2},
    "float64-hadamard": {**HADAMARD, "context": F64, "decay_rate": 1.0},
    "non-numeric-literal": _resonances({"mode": "rational"}, ["abc", "1"]),
    "zero-denominator": _resonances({"mode": "rational"}, ["1/0", "1"]),
    "trunc-n-zero": _formal(0, H1, []),
    "term-of-wrong-dimension": _formal(1, H1, [[[0, 1], [1], 0, "1"]]),
    "hamiltonian-with-constant-term": _formal(1, H1 + [[[0], [0], 0, "2"]], []),
    "lie-parametric-not-square": {
        "kind": "lie-parametric",
        "a": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
        "b": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0]],
    },
    "nu-not-a-number": {
        "kind": "diophantine",
        "context": {"mode": "rational"},
        "omega": ["1", "1393/985"],
        "nu": "abc",
        "N": 5,
    },
    "lie-homogeneous-zero-a": {"kind": "lie-homogeneous", "a": [0, 0], "b": [0.01, 0]},
    "term-with-scalar-exponent": _formal(1, [[0, [1], 0, "1"]], []),
    "overflowing-float": json.dumps(HADAMARD)[:-1] + ', "decay_rate": 1e999}',
    "nan-in-unknown-kind": '{"kind": "no-such-kind", "x": NaN}',
    "kind-not-a-string": {"kind": [1]},
    # exp overflows, so the decay fit is NaN
    "hadamard-nan-fit": {**HADAMARD, "decay_rate": -1000},
    # JSON integers are unbounded; these do not fit in the floats the handlers use
    "hadamard-huge-integer-rate": {**HADAMARD, "decay_rate": 10**400},
    "measure-huge-integer-R": {**MEASURE, "R": 10**400, "C_values": [0.1], "nu": "1"},
    "measure-huge-integer-C": {**MEASURE, "C_values": [0.1, 10**400], "nu": "1"},
    "lie-homogeneous-huge-integer": {"kind": "lie-homogeneous", "a": [10**400, 1], "b": [0.01, 0]},
    "lie-parametric-huge-integer": {
        "kind": "lie-parametric",
        "a": [[1.0, 0.0], [0.0, 2.0]],
        "b": [[0.01, 0.0], [-(10**400), 0.01]],
    },
    # past the interpreter's digit limit for int(), so json.load cannot read it
    "integer-of-5001-digits": json.dumps(HADAMARD)[:-1] + ', "decay_rate": 1' + "0" * 5000 + "}",
    "measure-huge-integer-nu": {**MEASURE, "C_values": [0.1], "nu": "1" + "0" * 400},
    "measure-negative-seed": {**MEASURE, "C_values": [0.1], "nu": "1", "seed": -1},
    "measure-partitions": {**MEASURE, "C_values": [0.1], "nu": "1", "partitions": 4},
    "selftest-negative-seed": {"kind": "selftest", "seed": -5},
    "resonances-empty-omega": _resonances({"mode": "rational"}, []),
    "diophantine-empty-omega": {**DIOPHANTINE, "omega": []},
    "hadamard-empty-omega": {**HADAMARD, "omega": [], "decay_rate": 1.0},
    # JSON true is not the literal 1, and a float such as 0.5 is no literal
    "boolean-in-omega": _resonances({"mode": "rational"}, [True, "1"]),
    "boolean-literal-in-term": _formal(1, [[[0], [1], 0, True]], []),
    "float-in-omega": _resonances({"mode": "rational"}, [0.5, "1"]),
    "liouville-m-not-above-k": {"kind": "liouville", "k_values": [3], "nu": "1", "m": 3},
    "measure-negative-R": {**MEASURE, "R": -1, "C_values": [0.1], "nu": "1"},
    # |a|^2 underflows to 0, and a tiny |a|^2 leaves j no right inverse in floats
    "lie-homogeneous-underflowing-a": {"kind": "lie-homogeneous", "a": [5e-324], "b": [0.0]},
    "lie-homogeneous-tiny-a": {"kind": "lie-homogeneous", "a": [1e-160], "b": [0.0]},
}
# the other cases end in InvalidInput with exit 1
EXPECTED = {
    "fraction-in-float64": (2, "SchemaError"),  # every context is exact
    "float64-formal-nf": (2, "SchemaError"),
    "float64-kolmogorov-nf": (2, "SchemaError"),
    "float64-diophantine": (2, "SchemaError"),
    "float64-hadamard": (2, "SchemaError"),
    "integer-of-5001-digits": (2, "SchemaError"),
    "trunc-n-zero": (2, "SchemaError"),  # n >= 1 is part of the schema
    "term-with-scalar-exponent": (2, "SchemaError"),  # so are the types of I, J and k
    "overflowing-float": (2, "SchemaError"),  # a scenario holds finite numbers only
    "nan-in-unknown-kind": (2, "SchemaError"),
    "kind-not-a-string": (2, "SchemaError"),
    "measure-negative-seed": (2, "SchemaError"),
    "measure-partitions": (2, "SchemaError"),  # every C is answered from one sample stream
    "selftest-negative-seed": (2, "SchemaError"),
    "resonances-empty-omega": (2, "SchemaError"),
    "diophantine-empty-omega": (2, "SchemaError"),
    "hadamard-empty-omega": (2, "SchemaError"),
    "boolean-in-omega": (2, "SchemaError"),
    "boolean-literal-in-term": (2, "SchemaError"),
    "float-in-omega": (2, "SchemaError"),
    "hadamard-nan-fit": (1, "NonFiniteResult"),
}


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_invalid_scalar_input_is_report_not_crash(tmp_path, case):
    scen, out = tmp_path / "s.json", tmp_path / "r.json"
    text = BAD_INPUT[case]
    scen.write_text(text if isinstance(text, str) else json.dumps(text))
    rc = main(["run", str(scen), "--out", str(out)])
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert (rc, report["error"]["type"]) == EXPECTED.get(case, (1, "InvalidInput"))
    assert "results" not in report
    if isinstance(text, str):  # a non-finite number cannot be echoed
        assert report["scenario"] is None


def test_hadamard_overflow_is_a_silent_report(tmp_path):
    # exp(1000 |I|) overflows: the report names the non-finite fit, and
    # numpy's overflow warning does not reach stderr
    scen = write(tmp_path, "s.json", BAD_INPUT["hadamard-nan-fit"])
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "kamforge.cli", "run", scen, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(out.read_text())["error"]["type"] == "NonFiniteResult"


def test_failing_selftest_exits_nonzero_on_run(tmp_path, monkeypatch):
    def failing(seed=0):
        return {"kind": "selftest", "seed": seed, "properties": {}, "all_pass": False}

    monkeypatch.setattr(cli, "selftest", failing)
    out = tmp_path / "r.json"
    scen = write(tmp_path, "s.json", {"kind": "selftest", "seed": 1})
    assert main(["run", scen, "--out", str(out)]) == 1
    assert main(["selftest", "--seed", "1", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["results"]["all_pass"] is False


def test_report_to_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    expected = tmp_path / "expected.json"
    scen = write(tmp_path, "s.json", KNF)
    assert main(["run", scen, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive(), "nothing was written into the FIFO"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert main(["run", scen, "--out", str(expected)]) == 0
    assert received == [expected.read_text()]


@pytest.mark.parametrize(
    "umask, existing, expected",
    [(0o022, None, 0o644), (0o027, None, 0o640), (0o022, 0o640, 0o640)],
    ids=["new-umask-022", "new-umask-027", "existing-0640"],
)
def test_out_report_gets_the_mode_open_would_leave(tmp_path, umask, existing, expected):
    # a new report gets 0o666 less the umask, an existing one keeps its mode
    out = tmp_path / "r.json"
    if existing is not None:
        out.write_text("{}")
        out.chmod(existing)
    scen = write(tmp_path, "s.json", KNF)
    old = os.umask(umask)
    try:
        assert main(["run", scen, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == expected


UNWRITABLE_RUNS = {  # one per write path: success, structured error, schema error, selftest
    "report": ["run", KNF],
    "error-report": ["run", BAD_INPUT["zero-denominator"]],
    "schema-error": ["run", {"kind": "formal-nf"}],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("target", ["directory", "missing/dir/r.json"])
@pytest.mark.parametrize("path", sorted(UNWRITABLE_RUNS))
def test_unwritable_out_exits_2_without_temporary_files(tmp_path, capsys, target, path):
    out = tmp_path / target
    if target == "directory":
        out.mkdir()
    argv = [write(tmp_path, "s.json", x) if isinstance(x, dict) else x for x in UNWRITABLE_RUNS[path]]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"kamforge: cannot write report: {out}: ")
    assert list(tmp_path.rglob(".kamforge-*")) == []


@pytest.mark.parametrize("field", ["x", "seed"])  # an extra field, and one the schema checks
def test_deeply_nested_scenario_is_refused_or_echoed(tmp_path, capsys, field):
    # json.load stops at the interpreter's recursion limit; a file it reads
    # is echoed whole into its SchemaError report, and one it cannot read
    # is refused like malformed JSON
    scen, out = tmp_path / "s.json", tmp_path / "r.json"
    echoed = []
    for depth in range(900, 1101):
        scen.write_text(f'{{"kind": "selftest", "{field}": ' + "[" * depth + "]" * depth + "}")
        out.unlink(missing_ok=True)
        assert main(["run", str(scen), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if err.startswith(("kamforge: scenario does not match", "kamforge: scenario is nested too deeply")):
            text = out.read_text()
            assert '"type": "SchemaError"' in text and text.count("[\n") == depth - 1  # then "[]"
            echoed.append(depth)
        else:
            assert err.startswith("kamforge: cannot read scenario: maximum recursion depth exceeded")
            assert not out.exists()
    assert echoed == list(range(900, 900 + len(echoed)))  # every depth json.load reads
    assert 0 < len(echoed) < 201


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"kind": "selftest", "seed": [0] * 100_000}),
        json.dumps({"kind": [0] * 100_000}),
        '{"kind": "selftest", "seed": 1' + "0" * 5000 + ".0}",
    ],
    ids=["value-against-schema", "unknown-kind", "non-finite-number"],
)
def test_schema_error_message_is_cut(tmp_path, capsys, text):
    # each message quotes an offending value of about 300 KB or 5 KB
    scen, out = tmp_path / "s.json", tmp_path / "r.json"
    scen.write_text(text)
    assert main(["run", str(scen), "--out", str(out)]) == 2
    message = json.loads(out.read_text())["error"]["message"]
    assert len(message) < 1000 and message.endswith(" more characters cut)")
    assert capsys.readouterr().err == f"kamforge: {message}\n"
    assert len(out.read_bytes()) < 2048  # a file past 64 KiB is not echoed


@pytest.mark.parametrize(
    "scen",
    [
        {**DIOPHANTINE, "nu": "1" + "0" * 400},
        {**DIOPHANTINE, "nu": "1/1" + "0" * 400},
        {"kind": "liouville", "k_values": [1, 2, 3], "nu": "1" + "0" * 400, "m": 5},
        {**MEASURE, "C_values": [0.1], "nu": "1" + "0" * 300},  # refused in the exact recheck
    ],
    ids=["diophantine-huge-nu", "diophantine-tiny-nu", "liouville-huge-nu", "measure-huge-nu"],
)
def test_huge_nu_is_refused_before_any_power(tmp_path, capsys, scen):
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert main(["run", write(tmp_path, "s.json", scen), "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 2
    assert json.loads(out.read_text())["error"] == {
        "type": "InvalidInput",
        "message": "an exact key (|(omega, I)| * |I|^s)^(2q) would take more than 524288 bits",
    }
    assert capsys.readouterr().err == ""


def test_integer_past_the_digit_limit_is_a_structured_error(tmp_path, capsys):
    # the witness's beta is 10^5040, more digits than int() may write
    scen = write(tmp_path, "s.json", {"kind": "liouville", "k_values": [7], "nu": 1, "m": 8})
    out = tmp_path / "r.json"
    assert main(["run", scen, "--out", str(out)]) == 1
    limit = sys.get_int_max_str_digits()
    assert json.loads(out.read_text())["error"] == {
        "type": "ResultTooLarge",
        "message": f"a result is an integer of more than {limit} digits, the interpreter's limit for writing one",
    }
    assert capsys.readouterr().err == ""


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kamforge.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0  # requires a subcommand
    proc = subprocess.run(
        ["kamforge", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "kamforge" in proc.stdout


def test_measure_scenario_runs(tmp_path):
    scen = {
        "kind": "measure",
        "n": 2,
        "R": 1.0,
        "C_values": [0.1],
        "nu": "1",
        "N": 10,
        "samples": 500,
        "seed": 5,
    }
    out = tmp_path / "m.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 0
    rep = json.loads(out.read_text())
    row = rep["results"]["per_C"][0]
    assert 0.0 <= row["fraction_bad"] <= 1.0 and row["seed"] == 5


def test_measure_huge_threshold_is_a_report(tmp_path):
    # s = -4, so m(omega) <= |(omega, I)| for |I| = 1 stays finite and far below C
    scen = {**MEASURE, "C_values": [1e308], "nu": "-5"}
    out = tmp_path / "m.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 0
    assert json.loads(out.read_text())["results"]["per_C"][0]["fraction_bad"] == 1.0


@pytest.mark.parametrize("nu", ["51/50", "1001/1000"])
def test_diophantine_certified_past_cancellation(tmp_path, nu):
    """A high power of 1 + I2 sqrt(2) cancels far past 30 digits of sqrt(2)."""
    N = 10
    scen = {
        "kind": "diophantine",
        "context": {"mode": "quadratic", "d": 2},
        "omega": ["1", [0, 1, 2]],
        "nu": nu,
        "N": N,
    }
    out = tmp_path / "d.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 0
    value, err = json.loads(out.read_text())["results"]["C_est"]
    # independent oracle: the minimum over the half ball in 50-digit decimals
    with decimal.localcontext(decimal.Context(prec=50)):
        s = 1 + decimal.Decimal(Fraction(nu).numerator) / Fraction(nu).denominator
        root2 = decimal.Decimal(2).sqrt()
        true = min(
            abs(i1 + i2 * root2) * decimal.Decimal(i1 * i1 + i2 * i2) ** (s / 2)
            for i1 in range(-N, N + 1)
            for i2 in range(0, N + 1)
            if i2 > 0 or i1 > 0
        )
    v, e = decimal.Decimal(value), decimal.Decimal(err)
    assert v - e <= true <= v + e and err <= 1e-13 * value


@pytest.mark.parametrize("omega, worst", [(["0", "0"], [0, 1]), (["0", "0", "0"], [0, 0, 1])])
def test_diophantine_zero_omega_reports_first_half_ball_vector(tmp_path, omega, worst):
    # every vector is resonant, and (0, ..., 0, 1) comes first in half-ball order
    scen = {"kind": "diophantine", "context": {"mode": "rational"}, "omega": omega, "nu": 1, "N": 3}
    out = tmp_path / "d.json"
    assert run_scenario(write(tmp_path, "s.json", scen), str(out)) == 0
    results = json.loads(out.read_text())["results"]
    assert results["worst"] == worst and results["C_est"] == [0.0, 0.0]


def test_lie_scenarios(tmp_path):
    h = {
        "kind": "lie-homogeneous",
        "a": [1.0],
        "b": [0.1],
    }
    out = tmp_path / "h.json"
    assert run_scenario(write(tmp_path, "h_s.json", h), str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["residual"] < 1e-12
    p = {
        "kind": "lie-parametric",
        "a": [[1.0, 0.0], [0.0, 2.0]],
        "b": [[0.01, -0.008], [0.006, 0.011]],
    }
    out2 = tmp_path / "p.json"
    assert run_scenario(write(tmp_path, "p_s.json", p), str(out2)) == 0
    rep2 = json.loads(out2.read_text())
    ein = rep2["results"]["eigenvalues_input"]
    enf = rep2["results"]["eigenvalues_normal"]
    assert max(abs(x - y) for x, y in zip(ein, enf)) < 1e-9
