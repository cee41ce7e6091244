"""Independent correctness checks on kamforge reports.

Nothing here imports kamforge: scalars are re-read from their literals
into pairs (a, b) of Fractions standing for a + b*sqrt(d), and every
identity is recomputed from the scenario itself.  ``check_all`` returns,
per scenario name, the list of problems found (empty when it passes).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

Pair = tuple  # (Fraction, Fraction): a + b*sqrt(d)
ZERO = (Fraction(0), Fraction(0))


def lit(x) -> Pair:
    """A scenario or report literal as an exact (a, b) pair."""
    if isinstance(x, list):
        return Fraction(str(x[0])), Fraction(str(x[1]))
    return Fraction(str(x)), Fraction(0)


def _add(u: Pair, v: Pair) -> Pair:
    return u[0] + v[0], u[1] + v[1]


def _terms(term_list, shift_k=0) -> dict:
    """{(I, J, k): pair} with duplicate keys summed and zeros removed."""
    out = {}
    for I, J, k, c in term_list:
        key = (tuple(I), tuple(J), k + shift_k)
        out[key] = _add(out.get(key, ZERO), lit(c))
    return {key: c for key, c in out.items() if c != ZERO}


def _sum(*dicts) -> dict:
    out = {}
    for d in dicts:
        for key, c in d.items():
            out[key] = _add(out.get(key, ZERO), c)
    return {key: c for key, c in out.items() if c != ZERO}


def _formal_nf(scen, res):
    normal = _terms(res["normal"]["terms"])
    problems = [f"q-dependent term {key}" for key in normal if any(key[0])]
    # first-order averaging: the t^1 part of the normal form is t * <Q>
    avg_q = {key: c for key, c in _terms(scen["Q"], shift_k=1).items() if not any(key[0])}
    t1 = {key: c for key, c in normal.items() if key[2] == 1}
    if t1 != avg_q:
        problems.append("t^1 part of the normal form differs from t*<Q>")
    return problems


def _kolmogorov_nf(scen, res):
    normal = _terms(res["normal"]["terms"])
    casimir = _terms(res["casimir"]["terms"])
    remainder = _terms(res["remainder"]["terms"])
    problems = []
    if normal != _sum(_terms(scen["H"]), casimir, remainder):
        problems.append("normal != H + casimir + remainder")
    for I, J, k in casimir:
        if any(I) or any(J) or k < 1:
            problems.append(f"casimir term {(I, J, k)} is not c*t^k, k >= 1")
    for I, J, k in remainder:
        if sum(J) < 2 or k < 1:
            problems.append(f"remainder term {(I, J, k)} outside I^2 (t)")
    return problems


def _sqrt2_convergents(limit: int):
    """(p, q) with p/q the convergents of sqrt(2), by p' = p + 2q, q' = p + q."""
    p, q = 1, 1
    while q <= limit:
        yield p, q
        p, q = p + 2 * q, p + q


def _diophantine(scen, res):
    w = tuple(abs(x) for x in res["worst"])
    if w not in set(_sqrt2_convergents(scen["N"])):
        return [f"worst vector {res['worst']} is not a convergent pair of sqrt(2)"]
    return []


def _measure(scen, res):
    return [
        f"fraction_bad {row['fraction_bad']} outside [0, 1]"
        for row in res["per_C"]
        if not 0.0 <= row["fraction_bad"] <= 1.0
    ]


def _lie(scen, res):
    problems = []
    if res["trace"]["termination"] != "converged":
        problems.append(f"termination {res['trace']['termination']!r}")
    if "eigenvalues_input" in res:
        gap = max(abs(a - b) for a, b in zip(res["eigenvalues_input"], res["eigenvalues_normal"]))
        if not gap <= 1e-10:
            problems.append(f"eigenvalues moved by {gap:.3e}")
    return problems


def _resonances(scen, res):
    omega = [lit(x) for x in scen["omega"]]
    N = scen["N"]
    expected = []
    for I in product(range(-N, N + 1), repeat=len(omega)):
        if next((x for x in I if x), 0) <= 0:
            continue
        dot = (sum(w[0] * i for w, i in zip(omega, I)), sum(w[1] * i for w, i in zip(omega, I)))
        if dot == ZERO:  # sqrt(d) is irrational, so a + b sqrt(d) = 0 iff a = b = 0
            expected.append(list(I))
    if res["resonances"] != sorted(expected):
        return [f"resonances {res['resonances']} != exact enumeration {sorted(expected)}"]
    return []


def _liouville(scen, res):
    prods = [w["product"] for w in res["witnesses"]]
    for (v0, e0), (v1, e1) in zip(prods, prods[1:]):
        if not v1 + e1 < v0 - e0:
            return [f"products not strictly decreasing: {prods}"]
    return []


def _hadamard(scen, res):
    fits = [res[key] for key in ("denominator_fit", "input_fit", "product_fit")]
    if not all(math.isfinite(v) for fit in fits for v in fit.values()):
        return ["non-finite decay fit"]
    return []


def _selftest(scen, res):
    return [] if res.get("all_pass") is True else ["selftest reports a failing property"]


_CHECKS = {
    "formal-nf": _formal_nf,
    "kolmogorov-nf": _kolmogorov_nf,
    "diophantine": _diophantine,
    "measure": _measure,
    "lie-homogeneous": _lie,
    "lie-parametric": _lie,
    "resonances": _resonances,
    "liouville": _liouville,
    "hadamard": _hadamard,
    "selftest": _selftest,
}


def check_all(reports: dict) -> dict:
    """Problems per scenario name; ``reports`` maps name -> (scenario, report)."""
    problems = {}
    for name, (scen, rep) in reports.items():
        if rep is None or "results" not in rep or "error" in rep:
            problems[name] = [f"no results: {None if rep is None else rep.get('error')}"]
            continue
        try:
            problems[name] = _CHECKS[scen["kind"]](scen, rep["results"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems[name] = [f"malformed report: {type(exc).__name__}: {exc}"]
    # across scenarios: C_est does not increase with N, fraction_bad with 1/C
    dioph = sorted(
        (scen["N"], name, rep["results"]["C_est"])
        for name, (scen, rep) in reports.items()
        if scen["kind"] == "diophantine" and not problems[name]
    )
    for (_, _, (v0, e0)), (_, name, (v1, e1)) in zip(dioph, dioph[1:]):
        if v1 - e1 > v0 + e0:
            problems[name].append("C_est increased with N")
    meas = sorted(
        (row["C"], name, row["fraction_bad"])
        for name, (scen, rep) in reports.items()
        if scen["kind"] == "measure" and not problems[name]
        for row in rep["results"]["per_C"]
    )
    for (_, _, f0), (_, name, f1) in zip(meas, meas[1:]):
        if f1 < f0:
            problems[name].append("fraction_bad decreased as C grew")
    return problems
