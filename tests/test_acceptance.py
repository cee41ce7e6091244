"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from kamforge import (
    Generator,
    IntegrableHamiltonian,
    PoissonSeries,
    TruncationSpec,
    compose_flows,
    flow_apply,
    formal_normal_form,
    kolmogorov_normal_form,
    normal_space_class,
    poisson_bracket,
)
from kamforge.cli import main
from kamforge.diophantine import (
    FrequencyVector,
    kolmogorov_constant,
    liouville_witness,
    measure_estimate,
)
from kamforge.errors import ResonantDenominator
from kamforge.lie import (
    commutant_basis,
    lie_iterate_homogeneous,
    lie_iterate_parametric,
    transversal_from_commutant,
    vector_action,
)
from kamforge.scalar import RATIONAL, continued_fraction, convergents, exact_sign, quadratic

from conftest import random_series

CTX2 = quadratic(2)


class Criterion:
    def __init__(self, num, name, budget_s):
        self.num, self.name, self.budget = num, name, budget_s
        self.t0 = time.perf_counter()
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def finish(self, note=""):
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        note = f" [{note}]" if note else ""
        detail = "" if not self.failures else " :: " + "; ".join(self.failures)
        print(f"\nACCEPTANCE {self.num:02d} {self.name}: {status} ({elapsed:.1f}s){note}{detail}")
        assert not self.failures, f"criterion {self.num} ({self.name}): {self.failures}"


def _budget_series(rng, tr, mode, pdeg):
    return random_series(rng, RATIONAL, tr, mode, n_terms=4, max_absI=1, max_pdeg=pdeg, max_t=1)


def test_criterion_01_poisson_axioms():
    c = Criterion(1, "poisson axiom suite", 30)
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    rng = random.Random(101)
    for mode in ("torus", "symplectic"):
        for _ in range(200):
            f, g = _budget_series(rng, tr, mode, 2), _budget_series(rng, tr, mode, 2)
            h0 = _budget_series(rng, tr, mode, 0)
            anti = poisson_bracket(f, g) + poisson_bracket(g, f)
            c.check(anti.is_zero(), f"antisymmetry violated ({mode})")
            jac = (
                poisson_bracket(poisson_bracket(f, g), h0)
                + poisson_bracket(poisson_bracket(g, h0), f)
                + poisson_bracket(poisson_bracket(h0, f), g)
            )
            c.check(jac.is_zero(), f"Jacobi violated ({mode})")
            f1 = _budget_series(rng, tr, mode, 1)
            leib = poisson_bracket(f1, g * h0) - (
                poisson_bracket(f1, g) * h0 + g * poisson_bracket(f1, h0)
            )
            c.check(leib.is_zero(), f"Leibniz violated ({mode})")
    c.finish()


def test_criterion_02_eigen_relation():
    c = Criterion(2, "eigen-relation", 5)
    tr = TruncationSpec(n=2, Dp=2, Dt=0, Nq=20)
    s2 = CTX2.sqrt_d()
    H = PoissonSeries(
        CTX2,
        tr,
        "torus",
        {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): s2, ((0, 0), (0, 2), 0): Fraction(1, 2)},
    )
    rng = random.Random(102)
    for _ in range(100):
        I = (0, 0)
        while I == (0, 0):
            I = (rng.randint(-20, 20), rng.randint(-20, 20))
        qI = PoissonSeries.monomial(CTX2, tr, "torus", 1, I=I)
        got = poisson_bracket(H, qI).select(lambda _I, J, k: sum(J) == 0)
        want = qI.scale(I[0] + s2 * I[1])
        c.check(got == want, f"eigen-relation failed at I={I}")
    c.finish()


def test_criterion_03_flow_morphism():
    c = Criterion(3, "flow-morphism", 60)
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=6)
    rng = random.Random(103)
    for trial in range(50):
        f = _budget_series(rng, tr, "torus", 2)
        g = _budget_series(rng, tr, "torus", 2)
        if trial % 2 == 0:
            S = random_series(
                rng, RATIONAL, tr, "torus", n_terms=3, max_absI=1, max_pdeg=1, max_t=tr.Dt
            ).select(lambda I, J, k: k >= 1)
            gen = Generator.hamiltonian(S)
        else:
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            gen = Generator.translation(rng.randint(1, 3), shift, RATIONAL)
        ff, gg = flow_apply(gen, f), flow_apply(gen, g)
        c.check(flow_apply(gen, f * g) == ff * gg, f"product not preserved ({gen.kind})")
        c.check(
            flow_apply(gen, poisson_bracket(f, g)) == poisson_bracket(ff, gg),
            f"bracket not preserved ({gen.kind})",
        )
    c.finish()


def _t_times(Q):
    return PoissonSeries.monomial(Q.context, Q.trunc, Q.mode, 1, k=1) * Q


def test_criterion_04_formal_stability():
    c = Criterion(4, "formal stability", 120)
    # the worked example: H = p, Q = p^2 + pq + pq^-1
    tr1 = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)
    H1 = IntegrableHamiltonian.from_series(
        PoissonSeries(RATIONAL, tr1, "torus", {((0,), (1,), 0): 1})
    )
    Q1 = PoissonSeries(
        RATIONAL, tr1, "torus", {((0,), (2,), 0): 1, ((1,), (1,), 0): 1, ((-1,), (1,), 0): 1}
    )
    res = formal_normal_form(H1, Q1)
    c.check(
        res.normal.select(lambda I, J, k: I != (0,)).is_zero(),
        "worked example: q-dependence survives",
    )
    c.check(
        res.normal.t_part(1) == PoissonSeries.monomial(RATIONAL, tr1, "torus", 1, J=(2,), k=1),
        "worked example: order-t part is not t p^2",
    )
    c.check(
        compose_flows(res.generators, H1.series + _t_times(Q1)) == res.normal,
        "worked example: oracle mismatch",
    )
    # 20 random nonresonant perturbations on the omega = (1, sqrt2) base
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    H = IntegrableHamiltonian.from_series(
        PoissonSeries(
            CTX2,
            tr,
            "torus",
            {
                ((0, 0), (1, 0), 0): 1,
                ((0, 0), (0, 1), 0): CTX2.sqrt_d(),
                ((0, 0), (0, 2), 0): Fraction(1, 2),
            },
        )
    )
    rng = random.Random(104)
    for trial in range(20):
        Q = random_series(rng, CTX2, tr, "torus", n_terms=6, max_absI=1, max_pdeg=2, max_t=0)
        res = formal_normal_form(H, Q)
        c.check(
            res.normal.select(lambda I, J, k: I != (0, 0)).is_zero(),
            f"perturbation {trial}: q-dependence survives",
        )
        c.check(
            compose_flows(res.generators, H.series + _t_times(Q)) == res.normal,
            f"perturbation {trial}: oracle mismatch",
        )
    c.finish()


def test_criterion_05_resonance_failure():
    c = Criterion(5, "resonance failure and rescaling", 10)
    tr = TruncationSpec(n=2, Dp=2, Dt=2, Nq=3)
    H = IntegrableHamiltonian.from_series(
        PoissonSeries(RATIONAL, tr, "torus", {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): -2})
    )
    Q = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, I=(2, 1))
    try:
        formal_normal_form(H, Q)
        c.check(False, "resonant case did not fail")
    except ResonantDenominator as exc:
        c.check(exc.vector == (2, 1), f"wrong resonance vector {exc.vector}")
    Hg = IntegrableHamiltonian.from_series(
        PoissonSeries(
            CTX2, tr, "torus", {((0, 0), (1, 0), 0): CTX2.sqrt_d(), ((0, 0), (0, 1), 0): -2}
        )
    )
    Qg = PoissonSeries.monomial(CTX2, tr, "torus", 1, I=(2, 1))
    try:
        resg = formal_normal_form(Hg, Qg)
        c.check(
            resg.normal.select(lambda I, J, k: I != (0, 0)).is_zero(),
            "rescaled case left q-dependence",
        )
    except ResonantDenominator:
        c.check(False, "rescaled nonresonant case failed")
    c.finish()


def test_criterion_06_kolmogorov_normal_form():
    c = Criterion(6, "Kolmogorov normal form", 120)
    # 1-D: omega=3, alpha=1/2, Q=p
    tr1 = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)
    H1 = IntegrableHamiltonian.from_series(
        PoissonSeries(RATIONAL, tr1, "torus", {((0,), (1,), 0): 3, ((0,), (2,), 0): Fraction(1, 2)})
    )
    Q1 = PoissonSeries.monomial(RATIONAL, tr1, "torus", 1, J=(1,))
    res = kolmogorov_normal_form(H1, Q1)
    c.check(
        len(res.generators) == 1
        and res.generators[0].kind == "translation"
        and res.generators[0].shift == (Fraction(-1),),
        "1-D: generators are not [translation d=-1]",
    )
    c.check(
        res.casimir
        == PoissonSeries(RATIONAL, tr1, "torus", {((0,), (0,), 1): -3, ((0,), (0,), 2): Fraction(-1, 2)}),
        "1-D: c(t) != -3t - t^2/2",
    )
    c.check(res.remainder.is_zero(), "1-D: nonzero remainder")
    # substitution oracle, coefficient for coefficient
    p = PoissonSeries.monomial(RATIONAL, tr1, "torus", 1, J=(1,))
    t = PoissonSeries.monomial(RATIONAL, tr1, "torus", 1, k=1)
    sub = p - t
    oracle = sub.scale(3) + (sub * sub).scale(Fraction(1, 2)) + t * sub
    c.check(res.normal == oracle, "1-D: substitution oracle mismatch")
    # 2-D: H = p1 + sqrt2 p2 + (p1^2 + p2^2)/2, Q = q1 + q1^-1 + p1, Dt = 3
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    s2 = CTX2.sqrt_d()
    H = IntegrableHamiltonian.from_series(
        PoissonSeries(
            CTX2,
            tr,
            "torus",
            {
                ((0, 0), (1, 0), 0): 1,
                ((0, 0), (0, 1), 0): s2,
                ((0, 0), (2, 0), 0): Fraction(1, 2),
                ((0, 0), (0, 2), 0): Fraction(1, 2),
            },
        )
    )
    Q = PoissonSeries(
        CTX2,
        tr,
        "torus",
        {((1, 0), (0, 0), 0): 1, ((-1, 0), (0, 0), 0): 1, ((0, 0), (1, 0), 0): 1},
    )
    res2 = kolmogorov_normal_form(H, Q)
    c.check(
        res2.normal == H.series + res2.casimir + res2.remainder,
        "2-D: decomposition not exact",
    )
    c.check(
        all(I == (0, 0) and sum(J) == 0 and k >= 1 for (I, J, k), _ in res2.casimir.items()),
        "2-D: casimir not in t K[[t]]",
    )
    c.check(
        all(sum(J) >= 2 and k >= 1 for (I, J, k), _ in res2.remainder.items()),
        "2-D: remainder not in I^2 (t)",
    )
    c.check(
        compose_flows(res2.generators, H.series + _t_times(Q)) == res2.normal,
        "2-D: oracle mismatch",
    )
    c.finish()


def test_criterion_07_normal_space_classes():
    c = Criterion(7, "normal-space classes", 10)
    tr = TruncationSpec(n=2, Dp=3, Dt=0, Nq=2)
    H = IntegrableHamiltonian.from_series(
        PoissonSeries(CTX2, tr, "torus", {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): CTX2.sqrt_d()})
    )
    for i in range(2):
        J = tuple(1 if j == i else 0 for j in range(2))
        nc = normal_space_class(H, PoissonSeries.monomial(CTX2, tr, "torus", 1, J=J))
        c.check(
            all((nc.nu[j] == 1) == (j == i) for j in range(2)),
            f"nu(p_{i + 1}) != e_{i + 1}",
        )
    f = PoissonSeries.monomial(CTX2, tr, "torus", 1, I=(1, -1))
    nc = normal_space_class(H, f)
    c.check(all(x == 0 for x in nc.nu), "nu(q1 q2^-1) != 0")
    recon = poisson_bracket(H.series, nc.g) + nc.ideal_part
    recon = recon + PoissonSeries.monomial(CTX2, tr, "torus", nc.constant)
    for i in range(2):
        J = tuple(1 if j == i else 0 for j in range(2))
        recon = recon + PoissonSeries.monomial(CTX2, tr, "torus", nc.nu[i], J=J)
    c.check(recon == f, "certificate fails bracket re-verification")
    trh = TruncationSpec(n=1, Dp=4, Dt=0, Nq=4)
    pq = PoissonSeries.monomial(RATIONAL, trh, "symplectic", 1, I=(1,), J=(1,))
    fh = PoissonSeries(
        RATIONAL, trh, "symplectic", {((2,), (2,), 0): 1, ((1,), (1,), 0): 1}
    )
    nch = normal_space_class(pq, fh)
    c.check(nch.nu == (Fraction(1),) and nch.basis == "pq", "hyperbolic class coefficient != 1")
    c.finish()


def test_criterion_08_diophantine_constant():
    c = Criterion(8, "Diophantine constant", 120)
    om = FrequencyVector((CTX2.one, CTX2.sqrt_d()), CTX2)
    ests = {N: kolmogorov_constant(om, 1, N) for N in (10, 100, 1000, 10000)}
    ns = sorted(ests)
    for a, b in zip(ns, ns[1:]):
        c.check(
            exact_sign(ests[b].min_power - ests[a].min_power) <= 0,
            f"C_est not monotone between N={a} and N={b}",
        )
    # C_est(10^4) >= C_est(10^2) / 2, compared exactly on the squared values
    big, small = ests[10000], ests[100]
    c.check(
        exact_sign(big.min_power * (2**big.power) - small.min_power) >= 0,
        "C_est(10^4) < C_est(10^2)/2",
    )
    pairs = set(convergents(continued_fraction(CTX2.sqrt_d(), 30)))
    for N, est in ests.items():
        p, q = abs(est.worst[0]), abs(est.worst[1])
        c.check((p, q) in pairs, f"worst vector {est.worst} at N={N} is not a convergent pair")
    c.finish()


def test_criterion_09_liouville_witness():
    c = Criterion(9, "Liouville witness", 5)
    ws = [liouville_witness(k, 1, 4) for k in (1, 2, 3)]
    powers = [w.product_power() for w in ws]
    c.check(powers[0] > powers[1] > powers[2], "products do not strictly decrease")
    w1 = ws[0]
    lo, hi = w1.pairing_exact - w1.tail_bound, w1.pairing_exact + w1.tail_bound
    c.check(
        Fraction("0.10001") <= lo and hi <= Fraction("0.10002"),
        f"|(omega, beta_1)| interval [{float(lo)}, {float(hi)}] not within [0.10001, 0.10002]",
    )
    c.finish()


def test_criterion_10_measure_estimate():
    c = Criterion(10, "measure estimate", 180)
    Cs = [0.1, 0.05, 0.025]
    ests = dict(
        zip(Cs, measure_estimate(n=2, R=1.0, C_values=Cs, nu=1, N=50, samples=100_000, seed=7))
    )
    fr = [ests[C].fraction_bad for C in Cs]
    c.check(fr[2] <= fr[1] <= fr[0], "fraction_bad not monotone in C")
    # In the unit disc the band |(omega, I)| < C/|I|^2 is the strip of half-width
    # w = C/|I|^3 about a line through the origin.  The band of a non-primitive mI
    # lies inside that of I, so the bad set is the union over primitive I only.
    norms = [
        math.hypot(a, b)
        for a in range(0, 51)
        for b in range(-50, 51)
        if (a > 0 or b > 0) and math.gcd(a, b) == 1
    ]

    def strip_fraction(w):
        w = min(1.0, w)
        return 2.0 / math.pi * (w * math.sqrt(1.0 - w * w) + math.asin(w))

    # (a) linear measure bound: the exact union bound U_N(C) <= K_N C
    for C in Cs:
        union = sum(strip_fraction(C / r**3) for r in norms)
        est = ests[C]
        c.check(
            est.fraction_bad <= union + 3.0 * est.stderr,
            f"fraction_bad {est.fraction_bad:.5f} above union bound {union:.5f} + 3 se at C={C}",
        )
    # Distinct bands overlap near omega = 0 in area O(C^2), so
    # fraction_bad/C = K_N + k2 C + O(C^2) with K_N = (4/pi) sum |I|^-3 and k2 < 0.
    K_N = 4.0 / math.pi * sum(r**-3 for r in norms)
    ratios = np.array([ests[C].fraction_bad / C for C in Cs])
    rel_se = np.array([ests[C].stderr / C for C in Cs])
    weights = np.linalg.pinv(np.array([[1.0, C] for C in Cs]))
    k1, k2 = weights @ ratios
    # the three estimates share their samples; sum |w_i| se_i bounds the spread
    # of each fitted coefficient under any correlation between them
    se1, se2 = np.abs(weights) @ rel_se
    # (b) first-order constant
    c.check(
        abs(k1 - K_N) <= 3.0 * se1,
        f"fitted first-order constant {k1:.3f} +- {se1:.3f} differs from K_N = {K_N:.4f}",
    )
    # (c) inclusion-exclusion makes the overlap term negative
    c.check(k2 + 3.0 * se2 < 0, f"overlap term k2 = {k2:.2f} +- {se2:.2f} not negative")
    c.finish(f"K_N = {K_N:.4f}, k1 = {k1:.3f} +- {se1:.3f}, k2 = {k2:.2f} +- {se2:.2f}")


def test_criterion_11_lie_iteration():
    c = Criterion(11, "Lie iteration", 30)
    # (a) commutant orthogonality residual <= 1e-10 on 100 random checks
    rng = np.random.default_rng(111)
    A = rng.standard_normal((4, 4))
    basis = commutant_basis(A)
    for B in basis.mats:
        for _ in range(100 // max(1, basis.dim)):
            X = rng.standard_normal((4, 4))
            resid = abs(np.trace((A @ X - X @ A) @ B))
            c.check(
                resid <= 1e-10 * max(1.0, np.linalg.norm(A) * np.linalg.norm(X)),
                f"orthogonality residual {resid:.2e}",
            )
    # (b) parametric diag(1,2), |b| = 0.02: eigenvalues to 1e-10, order >= 1.8
    a = np.diag([1.0, 2.0])
    b = rng.standard_normal((2, 2))
    b *= 0.02 / np.linalg.norm(b)
    _, alpha, trace = lie_iterate_parametric(a, b, transversal_from_commutant(a))
    eig = np.sort(np.linalg.eigvals(a + b).real)
    got = np.sort(np.diag(a + alpha))
    c.check(np.max(np.abs(got - eig)) <= 1e-10, "eigenvalues not recovered to 1e-10")
    c.check(trace.order is not None and trace.order >= 1.8, f"order {trace.order} < 1.8")
    # (c) nilpotent 2x2: lambda_1 = tr/2, lambda_2 = tr^2/4 - det to 1e-8
    an = np.array([[0.0, 1.0], [0.0, 0.0]])
    bn = rng.standard_normal((2, 2))
    bn *= 0.01 / np.linalg.norm(bn)
    _, alphan, _ = lie_iterate_parametric(an, bn, transversal_from_commutant(an))
    nf = an + alphan
    lam1 = np.trace(an + bn) / 2
    lam2 = np.trace(an + bn) ** 2 / 4 - np.linalg.det(an + bn)
    c.check(abs(nf[0, 0] - lam1) <= 1e-8, "lambda_1 not recovered to 1e-8")
    c.check(abs(nf[1, 0] - lam2) <= 1e-8, "lambda_2 not recovered to 1e-8")
    # (d) homogeneous scalar run matches 1/(1+b) to 1e-12
    act = vector_action()
    a1 = np.array([1.0])
    gens, _ = lie_iterate_homogeneous(
        act, a1, np.array([0.1]), lambda v: np.outer(v, a1) / float(a1 @ a1)
    )
    prod = 1.0
    for xi in gens:
        prod *= float(np.exp(-xi[0, 0]))
    c.check(abs(prod - 1 / 1.1) <= 1e-12, "scalar product does not match 1/(1+b)")
    c.finish()


def test_criterion_12_determinism(tmp_path):
    c = Criterion(12, "selftest determinism", 60)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["selftest", "--seed", "7", "--out", str(a)])
    main(["selftest", "--seed", "7", "--out", str(b)])
    c.check(a.read_bytes() == b.read_bytes(), "reports differ byte-wise")
    c.check(json.loads(a.read_text())["results"]["all_pass"], "selftest reports failures")
    c.finish()
