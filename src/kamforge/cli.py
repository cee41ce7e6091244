"""Scenario runner and report emitter.

Loads declarative JSON scenario files (a top-level "kind" discriminant
plus kind-specific parameters), dispatches to the computational modules
and writes deterministic JSON reports: identical inputs and seeds
produce byte-identical reports, so wall-clock timings are only included
on explicit request.

numpy, and ``lie`` with it, is imported only by the handlers of the float
kinds (hadamard, measure, lie-homogeneous, lie-parametric) and by
``selftest``, so an exact scenario runs without loading it.  Scenarios are
checked against ``SCENARIO_SCHEMAS`` by ``_violations``, with strict types.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
import tempfile
import time
from fractions import Fraction
from functools import cache

from . import __version__, diophantine, normalform, series
from .errors import InvalidInput, KamError, NonFiniteResult, ResonantDenominator, ResultTooLarge, SchemaError
from .normalform import IntegrableHamiltonian
from .scalar import RATIONAL, ScalarContext, parse_literal, quadratic
from .series import Generator, PoissonSeries, TruncationSpec, compose_flows, poisson_bracket

_CONTEXT = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["rational", "quadratic"]},
        "d": {"type": "integer", "minimum": 2},
    },
    "required": ["mode"],
    "additionalProperties": False,
}
_TRUNC = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        **{k: {"type": "integer", "minimum": 0} for k in ("Dp", "Dt", "Nq")},
    },
    "required": ["n", "Dp", "Dt", "Nq"],
    "additionalProperties": False,
}
_NUM = {"type": ["number", "string"]}
_VEC = {"type": "array", "items": {"type": "number"}}
_INTS = {"type": "array", "items": {"type": "integer"}}
# a scalar literal: "n/d" or an integer, or [a, b, d] in a quadratic context
_LITERAL = {"type": ["string", "integer", "array"]}
_OMEGA = {"type": "array", "items": _LITERAL, "minItems": 1}
# a term [I, J, k, literal]
_TERM = {
    "type": "array",
    "prefixItems": [_INTS, _INTS, {"type": "integer"}, _LITERAL],
    "minItems": 4,
    "maxItems": 4,
}
_TERMS = {"type": "array", "items": _TERM}
_MAT = {"type": "array", "items": _VEC}
_COUNT = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0}

_NF = {"context": _CONTEXT, "trunc": _TRUNC, "H": _TERMS, "Q": _TERMS}
_ITER = {"tol": {"type": "number"}, "max_iter": _COUNT}


def _schema(kind, required, optional=None):
    """Closed object schema: the "kind" constant, then required, then optional fields."""
    return {
        "type": "object",
        "properties": {"kind": {"const": kind}, **required, **(optional or {})},
        "required": ["kind", *required],
        "additionalProperties": False,
    }


SCENARIO_SCHEMAS = {
    "formal-nf": _schema("formal-nf", _NF),
    "kolmogorov-nf": _schema("kolmogorov-nf", _NF),
    "resonances": _schema(
        "resonances", {"context": _CONTEXT, "omega": _OMEGA, "N": _COUNT}
    ),
    "diophantine": _schema(
        "diophantine",
        {"context": _CONTEXT, "omega": _OMEGA, "nu": _NUM, "N": _COUNT},
    ),
    "liouville": _schema(
        "liouville",
        {
            "k_values": {"type": "array", "items": _COUNT},
            "nu": _NUM,
            "m": {"type": "integer", "minimum": 2},
        },
    ),
    "hadamard": _schema(
        "hadamard",
        {
            "context": _CONTEXT,
            "omega": _OMEGA,
            "N": _COUNT,
            "decay_rate": {"type": "number"},
        },
    ),
    "measure": _schema(
        "measure",
        {
            "n": _COUNT,
            "R": {"type": "number"},
            "C_values": {"type": "array", "items": {"type": "number"}},
            "nu": _NUM,
            "N": _COUNT,
            "samples": _COUNT,
            "seed": _SEED,
        },
    ),
    "lie-homogeneous": _schema("lie-homogeneous", {"a": _VEC, "b": _VEC}, _ITER),
    "lie-parametric": _schema("lie-parametric", {"a": _MAT, "b": _MAT}, _ITER),
    "selftest": _schema("selftest", {}, {"seed": _SEED}),
}

# the types a JSON value of each schema type can have: bool is no number, 1.0 no integer
_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "integer": (int,), "number": (int, float)}


def _violations(obj, schema: dict, path: tuple = ()):
    """Yield every way ``obj`` breaks ``schema``, as (path of the offending value, message).

    Keywords are read in schema order and worded as by jsonschema 4.26, with
    strict ``_TYPES``; one it does not know raises KeyError.  Each call
    descends one schema level, so the depth of ``obj`` cannot exhaust the stack.
    """
    want = schema.get("type", ())
    typed = type(obj) in _TYPES[want] if type(want) is str else any(type(obj) in _TYPES[name] for name in want)
    is_dict, is_number = type(obj) is dict, type(obj) in (int, float)
    size = len(obj) if type(obj) is list else -1  # -1 for a value that is no array
    for key, value in schema.items():
        message, children = None, ()
        if key == "type":
            names = [value] if type(value) is str else value
            message = not typed and f"{obj!r} is not of type {', '.join(map(repr, names))}"
        elif key == "const":
            message = obj != value and f"{value!r} was expected"
        elif key == "enum":
            message = obj not in value and f"{obj!r} is not one of {value!r}"
        elif key == "minimum":
            message = is_number and obj < value and f"{obj!r} is less than the minimum of {value!r}"
        elif key == "minItems":
            message = 0 <= size < value and f"{obj!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "maxItems":
            message = size > value and f"{obj!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif key == "required":
            missing = [name for name in value if name not in obj] if is_dict else ()
            yield from ((path, f"{name!r} is a required property") for name in missing)
        elif key == "additionalProperties" and value is False:
            extras = sorted(name for name in obj if name not in schema.get("properties", ())) if is_dict else ()
            listed = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            message = extras and f"Additional properties are not allowed ({listed} unexpected)"
        elif key == "properties":
            children = [(name, sub) for name, sub in value.items() if name in obj] if is_dict else ()
        elif key == "prefixItems":
            children = zip(range(size), value)
        elif key == "items":
            children = ((i, value) for i in range(len(schema.get("prefixItems", ())), size))
        else:
            raise KeyError(f"schema keyword {key!r} is not checked")
        if message:
            yield path, message
        for child, sub in children:
            yield from _violations(obj[child], sub, (*path, child))


def validate_scenario(obj) -> str:
    """The scenario's kind; SchemaError, with the message jsonschema would pick, when it does not match."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("scenario must be an object with a 'kind' field")
    kind = obj["kind"]
    schema = SCENARIO_SCHEMAS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise SchemaError(f"unknown scenario kind {kind!r}")
    try:
        found = list(_violations(obj, schema))
    except RecursionError:  # the repr of a value nested almost as deep as json.load reads
        raise SchemaError(f"scenario is nested too deeply to check against the {kind!r} schema") from None
    if found:
        # as jsonschema's best_match: the shallowest path, then the greatest, then the first found; its
        # preference for a value off its schema's type never decides here, as each path meets one schema
        message = max(found, key=lambda v: (-len(v[0]), v[0]))[1]
        raise SchemaError(f"scenario does not match the {kind!r} schema: {message}")
    return kind


def _omega(params) -> tuple:
    """The scenario's omega, read in its context, and that context."""
    ctx = ScalarContext.from_json(params["context"])
    return tuple(parse_literal(ctx, x) for x in params["omega"]), ctx


def _floats(value, name):
    """A JSON number as a float, or a list of them as a float64 array.

    JSON integers are unbounded, so one beyond the float range is
    InvalidInput here rather than an OverflowError in the handler.
    """
    import numpy as np

    try:
        return np.asarray(value, dtype=float) if isinstance(value, list) else float(value)
    except OverflowError:
        raise InvalidInput(f"{name} holds a number too large for a float") from None


def _stopping(params) -> dict:
    """The stopping fields the scenario sets; ``lie`` holds the defaults of the others."""
    return {key: params[key] for key in _ITER if key in params}


def _nu(params) -> Fraction:
    """nu belongs to no scalar context, so it is handed on as a Fraction."""
    nu = parse_literal(RATIONAL, str(params["nu"]))
    return Fraction(nu.a, nu.den)


# ---------------------------------------------------------------------------
# kind handlers


def _run_nf(params):
    def torus_series(terms):
        return PoissonSeries.from_json({**params, "mode": "torus", "terms": terms})

    H = IntegrableHamiltonian.from_series(torus_series(params["H"]))
    Q = torus_series(params["Q"])
    if params["kind"] == "formal-nf":
        res = normalform.formal_normal_form(H, Q)
    else:
        res = normalform.kolmogorov_normal_form(H, Q)
    return res.to_json(), {}


def _run_resonances(params):
    found = normalform.resonances(_omega(params)[0], params["N"])
    return {"resonances": [list(I) for I in found]}, {}


def _run_diophantine(params):
    omega = diophantine.FrequencyVector(*_omega(params))
    est = diophantine.kolmogorov_constant(omega, _nu(params), params["N"])
    return est.to_json(), {"smallest_denominator": est.c_est.to_json()}


def _run_liouville(params):
    nu = _nu(params)
    ws = [diophantine.liouville_witness(k, nu, params["m"]) for k in params["k_values"]]
    powers = [w.product_power() for w in ws]
    decreasing = all(powers[i + 1] < powers[i] for i in range(len(powers) - 1))
    return {
        "witnesses": [w.to_json() for w in ws],
        "products_strictly_decreasing": decreasing,
    }, {}


def _run_hadamard(params):
    import numpy as np

    omega = diophantine.FrequencyVector(*_omega(params))
    h = diophantine.small_denominator_series(omega, params["N"])
    rate = _floats(params["decay_rate"], "decay_rate")
    keys = list(h.coefficients)
    # exp may overflow to inf; the fits then turn out non-finite, which the
    # report names as NonFiniteResult
    with np.errstate(over="ignore"):
        exp = np.exp(-rate * np.sqrt((np.array(keys) ** 2).sum(axis=1)))
    f = diophantine.FourierTable(dict(zip(keys, exp.tolist())))
    prod = diophantine.hadamard_apply(h, f)
    return {
        "denominator_fit": diophantine.decay_fit(h).to_json(),
        "input_fit": diophantine.decay_fit(f).to_json(),
        "product_fit": diophantine.decay_fit(prod).to_json(),
    }, {}


def _run_measure(params):
    nu = _nu(params)
    _floats(nu, "nu")  # measure_estimate takes |I| to a float power
    ests = diophantine.measure_estimate(
        n=params["n"],
        R=_floats(params["R"], "R"),
        C_values=[_floats(C, "C_values") for C in params["C_values"]],
        nu=nu,
        N=params["N"],
        samples=params["samples"],
        seed=params["seed"],
    )
    return {"per_C": [est.to_json() for est in ests]}, {}


def _run_lie_homogeneous(params):
    import numpy as np

    from . import lie

    a = _floats(params["a"], "a")
    b = _floats(params["b"], "b")
    with np.errstate(over="ignore"):
        norm2 = float(a @ a)  # |a|^2 may underflow to 0 or overflow to inf
    if a.shape != b.shape or not norm2 > 0:
        raise InvalidInput("lie-homogeneous needs a nonzero vector a and a vector b of its length")
    if norm2 == math.inf:
        raise InvalidInput("lie-homogeneous needs a vector a whose |a|^2 is within the float range")
    action = lie.vector_action()

    def j(v):
        return np.outer(v, a) / norm2

    gens, trace = lie.lie_iterate_homogeneous(action, a, b, j, **_stopping(params))
    x = a + b
    for xi in gens:
        x = action.apply(-xi, x)
    return {
        "trace": trace.to_json(),
        "steps": len(gens),
        "residual": float(np.linalg.norm(x - a)),
    }, {}


def _run_lie_parametric(params):
    import numpy as np

    from . import lie

    msg = "lie-parametric needs square matrices a and b of one size"
    try:
        a = _floats(params["a"], "a")
        b = _floats(params["b"], "b")
    except ValueError:  # ragged rows
        raise InvalidInput(msg) from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise InvalidInput(msg)
    transversal = lie.transversal_from_commutant(a)
    gens, alpha_total, trace = lie.lie_iterate_parametric(a, b, transversal, **_stopping(params))
    return {
        "trace": trace.to_json(),
        "steps": len(gens),
        "alpha_total": alpha_total.tolist(),
        "normal_form": (a + alpha_total).tolist(),
        "eigenvalues_input": sorted(np.linalg.eigvals(a + b).real.tolist()),
        "eigenvalues_normal": sorted(np.linalg.eigvals(a + alpha_total).real.tolist()),
    }, {}


_HANDLERS = {
    "formal-nf": _run_nf,
    "kolmogorov-nf": _run_nf,
    "resonances": _run_resonances,
    "diophantine": _run_diophantine,
    "liouville": _run_liouville,
    "hadamard": _run_hadamard,
    "measure": _run_measure,
    "lie-homogeneous": _run_lie_homogeneous,
    "lie-parametric": _run_lie_parametric,
    "selftest": lambda params: (selftest(params.get("seed", 0)), {}),
}


# ---------------------------------------------------------------------------
# selftest: the release-gate invariant suite


def random_series(rng, ctx, trunc, mode, n_terms=4, max_absI=1, max_pdeg=2, max_t=1):
    """Random sparse series; its degree budgets can keep an identity's products in the window."""
    n = trunc.n
    terms = {}
    for _ in range(n_terms):
        I = tuple(rng.randint(-max_absI, max_absI) for _ in range(n))
        total = rng.randint(0, max_pdeg)
        J = [0] * n
        for _ in range(total):
            J[rng.randrange(n)] += 1
        k = rng.randint(0, max_t)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        key = (I, tuple(J), k)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return PoissonSeries(ctx, trunc, mode, terms)


def selftest(seed: int = 0) -> dict:
    """Run the invariant suite and report pass/fail per property.

    A bracket of the opposite orientation satisfies the Poisson-algebra
    axioms too; only the eigen-relation tells the two apart, and it says
    so with a sign diagnostic.
    """
    rng = random.Random(seed)
    props = {}
    pb = poisson_bracket

    # Jacobi (+ antisymmetry and Leibniz), both bracket modes, with
    # degree budgets keeping all intermediate products inside the window.
    trunc = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    ok = True
    for mode in ("torus", "symplectic"):
        for _ in range(20):
            f = random_series(rng, RATIONAL, trunc, mode)
            g = random_series(rng, RATIONAL, trunc, mode)
            h = random_series(rng, RATIONAL, trunc, mode, max_pdeg=0)
            anti = pb(f, g) + pb(g, f)
            leib = pb(f, g * h) - (pb(f, g) * h + g * pb(f, h))
            jac = pb(pb(f, g), h) + pb(pb(g, h), f) + pb(pb(h, f), g)
            if not (anti.is_zero() and leib.is_zero() and jac.is_zero()):
                ok = False
    props["jacobi"] = {"pass": ok, "trials": 40}

    # Flow morphism: products and brackets preserved exactly mod trunc.
    trunc = TruncationSpec(n=2, Dp=4, Dt=3, Nq=6)
    ok = True
    for _ in range(10):
        f = random_series(rng, RATIONAL, trunc, "torus", n_terms=3)
        g = random_series(rng, RATIONAL, trunc, "torus", n_terms=3)
        if rng.random() < 0.5:
            S = random_series(rng, RATIONAL, trunc, "torus", n_terms=3, max_pdeg=1, max_t=trunc.Dt)
            gen = Generator.hamiltonian(S.select(lambda I, J, k: k >= 1))
        else:
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(trunc.n)]
            gen = Generator.translation(rng.randint(1, trunc.Dt), shift, RATIONAL)
        ff, gg = series.flow_apply(gen, f), series.flow_apply(gen, g)
        mult = series.flow_apply(gen, f * g) - ff * gg
        morp = series.flow_apply(gen, pb(f, g)) - pb(ff, gg)
        if not (mult.is_zero() and morp.is_zero()):
            ok = False
    props["flow_morphism"] = {"pass": ok, "trials": 10}

    # Eigen-relation: p-degree-0 part of {H, q^I} is (omega, I) q^I.
    ctx = quadratic(2)
    trunc = TruncationSpec(n=2, Dp=2, Dt=0, Nq=12)
    sqrt2 = ctx.sqrt_d()
    H = PoissonSeries(
        ctx,
        trunc,
        "torus",
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): sqrt2,
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    )
    omega = (ctx.one, sqrt2)
    ok, detail = True, ""
    for _ in range(30):
        I = (0, 0)
        while all(x == 0 for x in I):
            I = (rng.randint(-12, 12), rng.randint(-12, 12))
        qI = PoissonSeries.monomial(ctx, trunc, "torus", 1, I=I)
        got = pb(H, qI).select(lambda _I, J, k: sum(J) == 0)
        pairing = omega[0] * I[0] + omega[1] * I[1]
        want = qI.scale(pairing)
        if got != want:
            ok = False
            if got == -want:
                detail = "bracket sign flipped: eigenvalue is -(omega, I)"
            else:
                detail = "eigen-relation mismatch"
            break
    props["eigen_relation"] = {"pass": ok, "trials": 30, **({"detail": detail} if detail else {})}

    # Commutant orthogonality for a random matrix.
    import numpy as np

    from . import lie

    nprng = np.random.default_rng(seed)
    A = nprng.standard_normal((3, 3))
    try:
        lie.transversal_from_commutant(A, seed=seed)
        props["commutant_orthogonality"] = {"pass": True, "checks": lie.ORBIT_CHECKS}
    except KamError as exc:
        props["commutant_orthogonality"] = {"pass": False, "detail": str(exc)}

    # Oracle equivalence: normal forms reproduced by composing their flows.
    ok, detail = True, ""
    try:
        trunc = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)
        Hs = PoissonSeries(RATIONAL, trunc, "torus", {((0,), (1,), 0): 1})
        H1 = IntegrableHamiltonian.from_series(Hs)
        Q = PoissonSeries(
            RATIONAL,
            trunc,
            "torus",
            {((0,), (2,), 0): 1, ((1,), (1,), 0): 1, ((-1,), (1,), 0): 1},
        )
        res = normalform.formal_normal_form(H1, Q)
        t = PoissonSeries.monomial(RATIONAL, trunc, "torus", 1, k=1)
        if compose_flows(res.generators, Hs + t * Q) != res.normal:
            ok, detail = False, "formal normal form disagrees with its flow oracle"
        Hk = PoissonSeries(RATIONAL, trunc, "torus", {((0,), (1,), 0): 3, ((0,), (2,), 0): Fraction(1, 2)})
        H2 = IntegrableHamiltonian.from_series(Hk)
        Qk = PoissonSeries(RATIONAL, trunc, "torus", {((0,), (1,), 0): 1})
        resk = normalform.kolmogorov_normal_form(H2, Qk)
        expected_c = PoissonSeries(
            RATIONAL, trunc, "torus", {((0,), (0,), 1): -3, ((0,), (0,), 2): Fraction(-1, 2)}
        )
        if resk.casimir != expected_c or not resk.remainder.is_zero():
            ok, detail = False, "Kolmogorov normal form disagrees with the substitution oracle"
        if compose_flows(resk.generators, Hk + t * Qk) != resk.normal:
            ok, detail = False, "Kolmogorov normal form disagrees with its flow oracle"
    except KamError as exc:
        ok, detail = False, str(exc)
    props["oracle_equivalence"] = {"pass": ok, **({"detail": detail} if detail else {})}

    return {
        "kind": "selftest",
        "seed": seed,
        "properties": props,
        "all_pass": all(p["pass"] for p in props.values()),
    }


# ---------------------------------------------------------------------------
# report plumbing


_encode_str = json.encoder.encode_basestring_ascii  # the C function json.dumps uses
# _INDENTS[depth] is (newline, separator): "\n" plus two spaces per level of
# depth, and the same after a comma; grown on first use of a depth
_INDENTS = [("\n", ",\n")]


def _dumps(report) -> str:
    """The report as strict JSON text.

    The text is exactly ``json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False)`` plus a newline, written by ``_container`` in a
    fraction of the time of the pure-Python encoder that ``indent`` forces
    ``json`` onto.  A non-finite float raises NonFiniteResult, and an
    integer longer than the interpreter's digit limit raises
    ResultTooLarge.
    """
    out = []
    try:
        if isinstance(report, (dict, list, tuple)):
            _container(report, 0, out, {})
        else:
            out.append(_scalar(report))
    except ValueError:  # only int.__repr__ raises it, past sys.get_int_max_str_digits()
        raise ResultTooLarge(
            f"a result is an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for writing one"
        ) from None
    out.append("\n")
    return "".join(out)


def _container(obj, depth: int, out: list, written: dict) -> None:
    """Append a dict, list or tuple at nesting ``depth`` to ``out`` as indent-2 JSON text.

    Dict keys are strings, as in every report.  Each nesting level costs
    one frame, so any depth json.load reads can be written: the items are
    encoded in this loop, strings and ints inline, and only a nested
    container recurses.  The pieces are joined once, by the caller, so
    deep nesting is not copied level by level.

    A tuple item's text is made once per object and depth and kept in
    ``written`` under (id, depth): a series shares its I and J tuples
    among its terms.  The key is the identity, not the value, because
    equal tuples such as (1, 2) and (1.0, 2.0) are written differently and
    a tuple holding a list has no hash; the report keeps every tuple alive
    for the whole call, so no id is reused.
    """
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    depth += 1
    if depth == len(_INDENTS):
        newline = _INDENTS[-1][0] + "  "
        _INDENTS.append((newline, "," + newline))
    newline, separator = _INDENTS[depth]
    append = out.append
    is_dict = isinstance(obj, dict)
    append(("{" if is_dict else "[") + newline)
    for value in sorted(obj) if is_dict else obj:
        if is_dict:  # so far the key
            append(_encode_str(value) + ": ")
            value = obj[value]
        cls = type(value)
        if cls is str:
            append(_encode_str(value))
        elif cls is int:
            append(int.__repr__(value))
        elif cls is tuple:
            text = written.get((id(value), depth))
            if text is None:
                part = []
                _container(value, depth, part, written)
                text = written[id(value), depth] = "".join(part)
            append(text)
        elif cls is list or cls is dict or isinstance(value, (dict, list, tuple)):
            _container(value, depth, out, written)
        else:
            append(_scalar(value))
        append(separator)
    out[-1] = _INDENTS[depth - 1][0] + ("}" if is_dict else "]")  # in place of the last separator


def _scalar(value) -> str:
    """A string, number, bool or None as JSON text."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteResult(
                "a result is not a finite number "
                f"(Out of range float values are not JSON compliant: {value!r})"
            )
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_report(text: str, out_path: str | None, status: int) -> int:
    """Write the report and return ``status``, or 2 when it cannot be written."""
    try:
        _write(text, out_path)
    except OSError as exc:
        target = "standard output" if out_path is None else out_path
        sys.stderr.write(f"kamforge: cannot write report: {target}: {exc.strerror or exc}\n")
        return 2
    return status


def _write(text: str, out_path: str | None) -> None:
    """Write to stdout, replace a report file atomically, or write in place to a device or FIFO."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        target = os.stat(out_path)
    except FileNotFoundError:  # a new file
        target = None
    if target is not None and not stat.S_ISREG(target.st_mode):
        with open(out_path, "w") as fh:  # a device or FIFO must not be replaced
            fh.write(text)
        return
    umask = os.umask(0o022)  # only read: the report gets the mode open(out_path, "w") would leave
    os.umask(umask)
    mode = 0o666 & ~umask if target is None else stat.S_IMODE(target.st_mode)
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kamforge-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)  # mkstemp makes the file 0600
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_scenario(path: str, out: str | None = None, timings: bool = False) -> int:
    """Execute a scenario file and write its report; returns the exit status."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8, whatever the locale
            text = fh.read()
        raw = json.loads(text, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is a file nested past the stack
        sys.stderr.write(f"kamforge: cannot read scenario: {exc}\n")
        return 2
    except SchemaError as exc:  # the report cannot echo a non-finite number
        return _schema_error(None, exc, out)
    return _execute(raw, out, timings, echo=len(text) <= _ECHO_CHARS)


def _finite(text: str) -> float:
    """Read a JSON number or constant; a scenario holds finite numbers only."""
    x = float(text)
    if not math.isfinite(x):
        raise SchemaError(f"scenario holds the non-finite number {text}")
    return x


def _integer(text: str) -> int:
    """Read a JSON integer; one past the interpreter's digit limit is a schema error."""
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"scenario holds an integer of {len(text.lstrip('-'))} digits") from None


# a schema error can quote an offending value of any size; its message keeps this many characters
_MESSAGE_CHARS = 200
# and its report echoes a scenario file of at most this many characters
_ECHO_CHARS = 1 << 16


def _schema_error(raw, exc: SchemaError, out: str | None) -> int:
    message = str(exc)
    if len(message) > _MESSAGE_CHARS:
        message = f"{message[:_MESSAGE_CHARS]}... ({len(message) - _MESSAGE_CHARS} more characters cut)"
    sys.stderr.write(f"kamforge: {message}\n")
    error = {"type": "SchemaError", "message": message}
    return _write_report(_dumps({"scenario": raw, "version": __version__, "error": error}), out, 2)


def _execute(raw, out: str | None, timings: bool, echo: bool = True) -> int:
    """Validate and run one scenario object and write its report.

    A schema-error report echoes the scenario only if ``echo``.  Exit
    status: 0 on success, 1 on a structured computational error or a
    failing selftest property, 2 on a schema error.
    """
    try:
        kind = validate_scenario(raw)
    except SchemaError as exc:
        return _schema_error(raw if echo else None, exc, out)
    report = {"scenario": raw, "version": __version__}
    drops0 = series.drop_count()
    t0 = time.perf_counter()
    try:
        results, diag = _HANDLERS[kind](raw)
        diag.setdefault("dropped_terms", series.drop_count() - drops0)
        if timings:
            diag["elapsed_seconds"] = time.perf_counter() - t0
        text = _dumps({**report, "results": results, "diagnostics": diag})
    except KamError as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ResonantDenominator):
            err["vector"] = list(exc.vector)
            if exc.t_order is not None:
                err["t_order"] = exc.t_order
        report["error"] = err
        return _write_report(_dumps(report), out, 1)
    return _write_report(text, out, 0 if results.get("all_pass", True) else 1)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kamforge",
        description="Executable formal KAM theory: scenario runner and self tests.",
    )
    parser.add_argument("--version", action="version", version=f"kamforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a JSON scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")
    p_run.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p_st = sub.add_parser("selftest", help="run the invariant suite")
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, args.out, args.timings)
    return _execute({"kind": "selftest", "seed": args.seed}, args.out, timings=False)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
