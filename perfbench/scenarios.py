"""Seeded scenario generator for the benchmark workloads.

Every scenario is a plain JSON object in the format `kamforge run` reads.
The generator uses only the standard library, so the inputs do not depend
on the code under test; the same (workload, seed) always yields the same
files.  All inputs are nonresonant inside their truncation window by
construction, so every scenario must exit 0.

The seed picks coefficient values, samples and small parameters; which
monomials occur in each perturbation (its sparsity pattern) is fixed per
workload.  Every seed therefore asks for the same amount of work, and the
spread between runs with different seeds measures the host and the
program, not the luck of the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

SQRT2 = 2  # radicand of the quadratic context used throughout


def _lit(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _qlit(a: Fraction, b: Fraction = Fraction(0)) -> list:
    return [_lit(a), _lit(b), SQRT2]


def _rand_frac(rng: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))


def _random_terms(pattern, values, n, n_terms, max_absI, max_pdeg, coeff):
    """Distinct-key term list with p-degree <= max_pdeg and |I|_sup <= max_absI.

    Keys come from the ``pattern`` generator, nonzero coefficients from
    ``coeff(pattern, values)``.
    """
    terms = {}
    while len(terms) < n_terms:
        I = tuple(pattern.randint(-max_absI, max_absI) for _ in range(n))
        J = [0] * n
        for _ in range(pattern.randint(0, max_pdeg)):
            J[pattern.randrange(n)] += 1
        key = (I, tuple(J))
        if key not in terms:
            terms[key] = coeff(pattern, values)
    return [[list(I), list(J), 0, c] for (I, J), c in sorted(terms.items())]


def _hamiltonian(n, omega_lits, half_lit):
    """H = (omega, p) + (p_1^2 + ... + p_n^2) / 2 as a term list."""
    terms = []
    for i in range(n):
        J = [0] * n
        J[i] = 1
        terms.append([[0] * n, J, 0, omega_lits[i]])
    for i in range(n):
        J = [0] * n
        J[i] = 2
        terms.append([[0] * n, J, 0, half_lit])
    return terms


def _nonresonant(omega: list[Fraction], N: int) -> bool:
    """No 0 < |I|_sup <= N with (omega, I) = 0, checked exactly."""
    for I in product(range(-N, N + 1), repeat=len(omega)):
        if any(I) and sum(w * i for w, i in zip(omega, I)) == 0:
            return False
    return True


def _nf(kind, context, trunc, H, Q):
    return {"kind": kind, "context": context, "trunc": trunc, "H": H, "Q": Q}


def _nf_kind(i: int) -> str:
    return "formal-nf" if i % 2 == 0 else "kolmogorov-nf"


def nf_quadratic(seed: int) -> list[tuple[str, dict]]:
    """20 perturbations of H = p1 + sqrt2 p2 + (p1^2 + p2^2)/2 in Q(sqrt2)."""
    pattern = random.Random("nf-quadratic")
    values = random.Random(f"nf-quadratic:{seed}")
    ctx = {"mode": "quadratic", "d": SQRT2}
    trunc = {"n": 2, "Dp": 4, "Dt": 3, "Nq": 4}
    H = _hamiltonian(2, [_qlit(Fraction(1)), _qlit(Fraction(0), Fraction(1))], _qlit(Fraction(1, 2)))

    def coeff(pattern, values):
        irrational = pattern.random() < 0.5
        return _qlit(_rand_frac(values), _rand_frac(values) if irrational else Fraction(0))

    out = []
    for i in range(20):
        Q = _random_terms(pattern, values, 2, 6, 1, 2, coeff)
        out.append((f"q{i:02d}", _nf(_nf_kind(i), ctx, trunc, H, Q)))
    return out


def nf_rational(seed: int) -> list[tuple[str, dict]]:
    """Rational normal forms in three shapes plus one selftest scenario."""
    pattern = random.Random("nf-rational")
    values = random.Random(f"nf-rational:{seed}")
    ctx = {"mode": "rational"}

    def coeff(pattern, values):
        return _lit(_rand_frac(values))

    shapes = [
        # large denominators: omega_2 = 1393/985 is a convergent of sqrt2
        ("w", 10, [Fraction(1), Fraction(1393, 985)], {"n": 2, "Dp": 4, "Dt": 3, "Nq": 4}),
        # long t-order chains and translation flows in one dimension
        ("l", 9, [Fraction(1)], {"n": 1, "Dp": 8, "Dt": 8, "Nq": 8}),
        # three degrees of freedom, small window
        ("t", 9, [Fraction(1), Fraction(1393, 985), Fraction(311, 99)], {"n": 3, "Dp": 3, "Dt": 2, "Nq": 2}),
    ]
    out = []
    for tag, count, omega, trunc in shapes:
        if not _nonresonant(omega, trunc["Nq"]):
            raise ValueError(f"shape {tag}: omega {omega} is resonant inside the window")
        H = _hamiltonian(trunc["n"], [_lit(w) for w in omega], "1/2")
        for i in range(count):
            Q = _random_terms(pattern, values, trunc["n"], 6, 1, 2, coeff)
            out.append((f"{tag}{i:02d}", _nf(_nf_kind(i), ctx, trunc, H, Q)))
    out.append(("selftest", {"kind": "selftest", "seed": seed}))
    return out


def small_denominators(seed: int) -> list[tuple[str, dict]]:
    """Diophantine constants, Monte-Carlo measure, Liouville, Hadamard, Lie."""
    rng = random.Random(f"small-denominators:{seed}")
    ctx = {"mode": "quadratic", "d": SQRT2}
    omega = ["1", [0, 1, SQRT2]]
    out = []
    for N in (10, 100, 1000, 2000):
        out.append((f"dioph{N}", {"kind": "diophantine", "context": ctx, "omega": omega, "nu": 1, "N": N}))
    # scenarios stay short (at most about 2 s) so that the reference runs
    # around each one see the host in the same state as the scenario did;
    # one scenario per C on the same samples, so fraction_bad is monotone in C
    for i, C in enumerate((0.1, 0.05, 0.025)):
        out.append((f"measure{i}", {
            "kind": "measure", "n": 2, "R": 1.0, "C_values": [C], "nu": 1,
            "N": 50, "samples": 4_000, "seed": seed,
        }))
    out.append(("hadamard", {
        "kind": "hadamard", "context": ctx, "omega": omega, "N": 12,
        "decay_rate": round(rng.uniform(0.2, 0.6), 3),
    }))
    out.append(("liouville", {"kind": "liouville", "k_values": [1, 2, 3], "nu": 1, "m": 5}))
    # omega_3 = omega_1 + omega_2 makes (1, 1, -1) resonant
    out.append(("resonances", {
        "kind": "resonances", "context": ctx,
        "omega": ["1", [0, 1, SQRT2], [1, 1, SQRT2]], "N": rng.randint(3, 5),
    }))
    a = [1.0, 0.0, 0.0]
    b = [rng.uniform(-0.05, 0.05) for _ in range(3)]
    out.append(("lie-homogeneous", {"kind": "lie-homogeneous", "a": a, "b": b}))
    A = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.5]]
    B = [[rng.uniform(-0.01, 0.01) for _ in range(3)] for _ in range(3)]
    out.append(("lie-parametric", {"kind": "lie-parametric", "a": A, "b": B}))
    return out


GENERATORS = {
    "nf-quadratic": nf_quadratic,
    "nf-rational": nf_rational,
    "small-denominators": small_denominators,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    return GENERATORS[workload](seed)
