"""A normal-form report is a function of the scenario's content.

Shuffling the term lists of H and Q leaves the report unchanged, and
relabeling the coordinates gives the relabeled report, less the
scenario echo in both cases.  Draws are n = 2 and n = 3 formal and
Kolmogorov scenarios in Q and Q(sqrt 2), kept small enough to run in well
under a second each.
"""

import json
import os
import random
import tempfile
from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kamforge.cli import run_scenario

CONTEXTS = {"rational": {"mode": "rational"}, "sqrt2": {"mode": "quadratic", "d": 2}}
SQRT2 = ["0", "1", 2]
FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool).map(str)
# omega of n = 2: three resonant ones, then one without a resonance in the
# window (|I|_sup <= Nq = 4 here; (5, 7) is resonant only at (7, -5))
OMEGAS_2 = {
    "rational": [["1", "1"], ["2", "-1"], ["1", "2"], ["5", "7"]],
    "sqrt2": [["1", "1"], ["2", "-1"], ["1", "2"], ["1", SQRT2]],
}
# components of an omega of n = 3, with resonances among them and without
OMEGA_PARTS = {"rational": ["1", "2", "-1", "1/3"], "sqrt2": ["1", "2", "-1", SQRT2]}
PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def unit(n, j, e=1):
    return [e if i == j else 0 for i in range(n)]


@st.composite
def nf_scenarios(draw, n, window, max_absI):
    """A formal or Kolmogorov scenario with H = (omega, p) + alpha-part and 3-7 Q terms."""
    ctx = draw(st.sampled_from(sorted(CONTEXTS)))
    if n == 2:
        omega = draw(st.sampled_from(OMEGAS_2[ctx]))
    else:
        omega = draw(st.lists(st.sampled_from(OMEGA_PARTS[ctx]), min_size=n, max_size=n))
    coeff = FRAC
    if ctx == "sqrt2":
        coeff = st.one_of(FRAC, st.tuples(FRAC, FRAC).map(lambda ab: [*ab, 2]))
    zero = [0] * n
    H = [[zero, unit(n, j), 0, w] for j, w in enumerate(omega)]
    H += [[zero, unit(n, j, 2), 0, draw(st.sampled_from(["1/2", "1", "3/2"]))] for j in range(n)]
    if draw(st.booleans()):
        H.append([zero, [1, 1] + [0] * (n - 2), 0, draw(FRAC)])
    Dp, Dt, Nq = window
    I = st.lists(st.integers(-max_absI, max_absI), min_size=n, max_size=n)
    J = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda J: sum(J) <= 2)
    keys = draw(st.lists(st.tuples(I, J), min_size=3, max_size=7, unique_by=repr))
    return {
        "kind": draw(st.sampled_from(["formal-nf", "kolmogorov-nf"])),
        "context": CONTEXTS[ctx],
        "trunc": {"n": n, "Dp": Dp, "Dt": Dt, "Nq": Nq},
        "H": H,
        "Q": [[I, J, 0, draw(coeff)] for I, J in keys],
    }


def report(scen):
    """The report of ``kamforge run`` on scen, less its scenario echo."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "s.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(scen, fh)
        run_scenario(path, out)
        with open(out) as fh:
            got = json.load(fh)
    del got["scenario"]
    return got


def motivation(kind):
    """H = p1 + p2 + (p1^2 + p2^2)/2 and Q = q1/q2 + 2 q1^2/q2^2 + q1/3: the modes
    (1, -1) and (2, -2) are both resonant at p-degree 0 of t-order 1."""
    z = [0, 0]
    return {
        "kind": kind,
        "context": {"mode": "rational"},
        "trunc": {"n": 2, "Dp": 2, "Dt": 2, "Nq": 4},
        "H": [[z, [1, 0], 0, "1"], [z, [0, 1], 0, "1"], [z, [2, 0], 0, "1/2"], [z, [0, 2], 0, "1/2"]],
        "Q": [[[1, -1], z, 0, "1"], [[2, -2], z, 0, "2"], [[1, 0], z, 0, "1/3"]],
    }


@PROPERTY
@given(nf_scenarios(2, (3, 3, 4), max_absI=2), st.randoms(use_true_random=False))
@example(motivation("formal-nf"), random.Random(0))
@example(motivation("kolmogorov-nf"), random.Random(0))
def test_report_ignores_the_order_of_the_terms_of_H_and_Q(scen, rnd):
    want = report(scen)
    assert report({**scen, "H": scen["H"][::-1], "Q": scen["Q"][::-1]}) == want
    H, Q = list(scen["H"]), list(scen["Q"])
    rnd.shuffle(H)
    rnd.shuffle(Q)
    assert report({**scen, "H": H, "Q": Q}) == want


def relabel(v, perm):
    return [v[j] for j in perm]


def relabeled_series(s, perm):
    terms = [[relabel(I, perm), relabel(J, perm), k, c] for I, J, k, c in s["terms"]]
    return {**s, "terms": sorted(terms, key=lambda t: t[:3])}  # reports list terms by (I, J, k)


def relabeled_scenario(scen, perm):
    terms = {
        key: [[relabel(I, perm), relabel(J, perm), k, c] for I, J, k, c in scen[key]]
        for key in ("H", "Q")
    }
    return {**scen, **terms}


def is_resonant(scen, I):
    """(omega, I) = 0, with omega read off the linear terms of scen's H."""
    omega = {J.index(1): c for _, J, _, c in scen["H"] if sum(J) == 1}
    parts = [c if isinstance(c, list) else [c, "0"] for c in (omega[j] for j in range(len(I)))]
    return all(sum(Fraction(p[x]) * i for p, i in zip(parts, I)) == 0 for x in (0, 1))


def relabeled_results(res, perm):
    gens = [
        {**g, "S": relabeled_series(g["S"], perm)}
        if g["kind"] == "hamiltonian"
        else {**g, "d": relabel(g["d"], perm)}
        for g in res["generators"]
    ]
    series = {key: relabeled_series(res[key], perm) for key in ("normal", "casimir", "remainder")}
    same = {key: res[key] for key in ("per_order", "smallest_denominator")}
    return {"generators": gens, **series, **same}


@PROPERTY
@given(
    st.one_of(
        nf_scenarios(2, (3, 3, 2), max_absI=2),
        nf_scenarios(3, (2, 2, 2), max_absI=1),
    )
)
@example(
    # Kolmogorov, (Dp, Dt, Nq) = (3, 3, 1): 491 dropped terms, 490 with the coordinates swapped
    {
        "kind": "kolmogorov-nf",
        "context": {"mode": "rational"},
        "trunc": {"n": 2, "Dp": 3, "Dt": 3, "Nq": 1},
        "H": [
            [[0, 0], [1, 0], 0, "2"], [[0, 0], [0, 1], 0, "-5/7"], [[0, 0], [2, 0], 0, "1/2"],
            [[0, 0], [0, 2], 0, "1"], [[0, 0], [1, 1], 0, "1/5"],
        ],
        "Q": [
            [[1, 0], [2, 0], 0, "-3/4"], [[1, -1], [0, 0], 0, "1/2"], [[-1, 0], [0, 2], 0, "1"],
            [[-1, 1], [1, 1], 0, "-3"], [[1, 0], [1, 2], 0, "-3"],
        ],
    }
)
def test_report_relabels_with_the_coordinates(scen):
    """Every non-identity relabeling of the coordinates gives the relabeled report.

    ``dropped_terms`` is left out: the translation flow counts the partial
    images it cuts while it expands the shifted p_j in index order, so its
    count depends on how the coordinates are numbered (the @example above).
    A ResonantDenominator keeps its type and t-order, and names a mode that
    is resonant for the relabeled omega; with two or more resonant modes at
    one p-degree it need not be the relabeled mode, because the least mode
    in tuple order is not relabeled with the coordinates.
    """
    want = report(scen)
    n = scen["trunc"]["n"]
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        moved = relabeled_scenario(scen, perm)
        got = report(moved)
        assert set(got) == set(want)
        if "error" in want:
            err, err2 = want["error"], got["error"]
            assert (err2["type"], err2.get("t_order")) == (err["type"], err.get("t_order"))
            if "vector" in err:
                assert is_resonant(moved, err2["vector"])
            continue
        results = {key: value for key, value in got["results"].items() if key != "dropped_terms"}
        assert results == relabeled_results(want["results"], perm)
