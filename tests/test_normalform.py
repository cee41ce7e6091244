import dataclasses
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from kamforge import (
    Generator,
    IntegrableHamiltonian,
    PoissonSeries,
    TruncationSpec,
    compose_flows,
    flow_apply,
    formal_normal_form,
    homological_solve,
    kolmogorov_normal_form,
    normal_space_class,
    poisson_bracket,
    resonances,
)
from kamforge.diophantine import FrequencyVector
from kamforge.errors import DegenerateAlpha, InvalidInput, ResonantDenominator
from kamforge.normalform import exact_det, solve_linear
from kamforge.scalar import RATIONAL, quadratic
from kamforge.series import drop_count

from conftest import random_series


def series(ctx, tr, terms, mode="torus"):
    return PoissonSeries(ctx, tr, mode, terms)


def integrable(ctx, tr, terms):
    return IntegrableHamiltonian.from_series(series(ctx, tr, terms))


TR1 = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)
CTX2 = quadratic(2)


def t_times(Q):
    t = PoissonSeries.monomial(Q.context, Q.trunc, Q.mode, 1, k=1)
    return t * Q


def test_resonances_examples():
    assert (2, 1) in resonances((Fraction(1), Fraction(-2)), 3)
    assert resonances((Fraction(1), Fraction(1)), 1) == [(1, -1)]
    assert resonances((CTX2.one, CTX2.sqrt_d()), 50) == []


def test_integrable_extraction():
    H = integrable(
        RATIONAL,
        TruncationSpec(n=2, Dp=3, Dt=1, Nq=1),
        {
            ((0, 0), (1, 0), 0): 3,
            ((0, 0), (0, 1), 0): -1,
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (1, 1), 0): 4,
        },
    )
    assert H.omega == (3, -1)
    assert H.alpha == ((Fraction(1, 2), Fraction(2)), (Fraction(2), Fraction(0)))
    # n = 3 over Q(sqrt 2): the cubic term is neither omega nor alpha
    s2, zero = CTX2.sqrt_d(), (0, 0, 0)
    H3 = integrable(
        CTX2,
        TruncationSpec(n=3, Dp=3, Dt=0, Nq=1),
        {(zero, (0, 0, 1), 0): s2, (zero, (1, 0, 1), 0): 3, (zero, (0, 2, 0), 0): Fraction(1, 2),
         (zero, (1, 0, 0), 0): 1, (zero, (1, 1, 1), 0): 7},
    )
    assert H3.omega == (1, 0, s2)
    h = Fraction(3, 2)
    assert H3.alpha == ((0, 0, h), (0, Fraction(1, 2), 0), (h, 0, 0))
    with pytest.raises(ValueError):
        integrable(RATIONAL, TR1, {((1,), (0,), 0): 1})
    with pytest.raises(ValueError):
        integrable(RATIONAL, TR1, {((0,), (0,), 0): 1})


def test_homological_solve_one_dim():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 1})
    R = series(RATIONAL, TR1, {((1,), (1,), 1): 1, ((-1,), (1,), 1): 1})
    S, residual = homological_solve(H, R, p_cap=3)
    assert S == series(RATIONAL, TR1, {((-1,), (1,), 1): 1, ((1,), (1,), 1): -1})
    assert residual.is_zero()
    # bracket oracle: {H, S} = -R
    assert poisson_bracket(H.series, S) == -R


def test_homological_solve_quadratic_field():
    tr = TruncationSpec(n=2, Dp=2, Dt=2, Nq=2)
    H = integrable(CTX2, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): CTX2.sqrt_d()})
    R = PoissonSeries.monomial(CTX2, tr, "torus", 1, I=(1, -1), k=1)
    S, residual = homological_solve(H, R, p_cap=2)
    assert residual.is_zero()
    # pole structure: S = R / (sqrt2 - 1) = (1 + sqrt2) R
    assert S == R.scale(1 + CTX2.sqrt_d())
    assert S.coefficient((1, -1), (0, 0), 1) == 1 + CTX2.sqrt_d()
    assert poisson_bracket(H.series, S) == -R


def test_homological_solve_average_passthrough():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 1})
    R = series(RATIONAL, TR1, {((0,), (2,), 1): 5, ((0,), (0,), 2): 1})
    S, residual = homological_solve(H, R, p_cap=3)
    assert S.is_zero()
    assert residual == R


def test_homological_solve_nonlinear_coupling():
    # H with quadratic part: degree-1 stage must receive alpha cross-terms
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 1, ((0,), (2,), 0): Fraction(1, 2)})
    R = series(RATIONAL, TR1, {((1,), (0,), 1): 1, ((1,), (1,), 1): 2})
    S, residual = homological_solve(H, R, p_cap=3)
    assert residual.is_zero()
    assert (poisson_bracket(H.series, S) + R).is_zero()


def cubic(ctx, tr):
    """A nonresonant H with a cubic part, which carries p-degree m to m + 2."""
    w2 = CTX2.sqrt_d() if ctx is CTX2 else Fraction(1393, 985)
    return integrable(
        ctx,
        tr,
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): w2,
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
            ((0, 0), (3, 0), 0): 1,
            ((0, 0), (1, 2), 0): Fraction(-1, 3),
        },
    )


@pytest.mark.parametrize("ctx", [RATIONAL, CTX2], ids=["rational", "sqrt2"])
def test_homological_solve_residual_is_one_bracket(rng, ctx):
    # corrections of p-degree Dp - 1 and Dp have bracket terms past Dp, which are dropped
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
    H = cubic(ctx, tr)
    zero_I = (0, 0)
    solve_drops = 0
    for _ in range(8):
        R = random_series(rng, ctx, tr, "torus", n_terms=6, max_absI=2, max_pdeg=3, max_t=2)
        for p_cap in (1, 3):
            d0 = drop_count()
            S, residual = homological_solve(H, R, p_cap=p_cap)
            d1 = drop_count()
            assert residual == poisson_bracket(H.series, S) + R
            assert drop_count() - d1 == d1 - d0
            assert all(I != zero_I and sum(J) <= p_cap for (I, J, _), _c in S.items())
            assert all(I == zero_I or sum(J) > p_cap for (I, J, _), _c in residual.items())
            solve_drops += d1 - d0
    assert solve_drops > 0


def test_homological_solve_resonance():
    tr = TruncationSpec(n=2, Dp=2, Dt=2, Nq=3)
    H = integrable(RATIONAL, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): -2})
    R = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, I=(2, 1), k=1)
    with pytest.raises(ResonantDenominator) as exc:
        homological_solve(H, R, p_cap=2)
    assert exc.value.vector == (2, 1)


# omega = (1, -1) is resonant at I = (1, 1), (2, 2), ...
TR_RES = TruncationSpec(n=2, Dp=3, Dt=1, Nq=3)
RESONANT_H = {
    ((0, 0), (1, 0), 0): 1,
    ((0, 0), (0, 1), 0): -1,
    ((0, 0), (2, 0), 0): Fraction(1, 2),
    ((0, 0), (0, 2), 0): Fraction(1, 2),
}


FIRST_RESONANCES = pytest.mark.parametrize(
    "terms, vector",
    [
        # (2, 2) is R's first resonant term, but (1, 1) is the least resonant mode of degree 1
        ([((1, 0), (0, 0)), ((2, 2), (0, 2)), ((2, 2), (0, 1)), ((1, 1), (1, 0))], (1, 1)),
        # the degree-0 mode is named, though (1, 1) < (2, 2)
        ([((1, 1), (1, 0)), ((2, 2), (0, 0))], (2, 2)),
    ],
    ids=["least-mode-of-the-degree", "lowest-degree-first"],
)


@FIRST_RESONANCES
def test_homological_solve_names_the_first_resonance(terms, vector):
    H = integrable(RATIONAL, TR_RES, RESONANT_H)
    R = series(RATIONAL, TR_RES, [((I, J, 1), 1) for I, J in terms])
    with pytest.raises(ResonantDenominator) as exc:
        homological_solve(H, R, p_cap=3)
    assert exc.value.vector == vector


@pytest.mark.parametrize("ctx", [RATIONAL, CTX2], ids=["rational", "sqrt2"])
def test_homological_solve_ignores_the_storage_order_of_R(rng, ctx):
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
    H = cubic(ctx, tr)
    reordered = 0
    for _ in range(8):
        R = random_series(rng, ctx, tr, "torus", n_terms=10, max_absI=2, max_pdeg=3, max_t=1)
        R = R.select(lambda I, J, k: k == 1 and I != (0, 0))
        for p_cap in (1, 3):
            S, residual = homological_solve(H, R, p_cap=p_cap)
            for _ in range(3):
                terms = list(R.items())
                rng.shuffle(terms)
                X = series(ctx, tr, terms)
                reordered += list(X._num) != list(R._num)
                assert homological_solve(H, X, p_cap=p_cap) == (S, residual)
    assert reordered


@pytest.mark.parametrize("ctx", [RATIONAL, CTX2], ids=["rational", "sqrt2"])
@FIRST_RESONANCES
def test_named_resonance_ignores_the_storage_order_of_R(ctx, terms, vector):
    H = integrable(ctx, TR_RES, RESONANT_H)
    for order in permutations(terms):
        R = series(ctx, TR_RES, [((I, J, 1), 1) for I, J in order])
        with pytest.raises(ResonantDenominator) as exc:
            homological_solve(H, R, p_cap=3)
        assert exc.value.vector == vector


def test_homological_solve_leaves_a_resonant_mode_above_p_cap():
    H = integrable(RATIONAL, TR_RES, RESONANT_H)
    R = series(RATIONAL, TR_RES, {((1, 1), (2, 0), 1): 3, ((1, 0), (0, 0), 1): 1})
    S, residual = homological_solve(H, R, p_cap=1)
    assert residual.coefficient((1, 1), (2, 0), 1) == 3
    assert residual == poisson_bracket(H.series, S) + R


def test_homological_solve_rejects_symplectic_mode():
    # the symplectic bracket lowers I, so no mode is solved on its own
    tr = TruncationSpec(n=1, Dp=2, Dt=1, Nq=2)
    H = IntegrableHamiltonian.from_series(
        series(RATIONAL, tr, {((0,), (1,), 0): 1}, mode="symplectic")
    )
    R = series(RATIONAL, tr, {((1,), (0,), 1): 1}, mode="symplectic")
    with pytest.raises(InvalidInput):
        homological_solve(H, R, p_cap=2)


def test_formal_normal_form_paper_example():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 1})
    Q = series(RATIONAL, TR1, {((0,), (2,), 0): 1, ((1,), (1,), 0): 1, ((-1,), (1,), 0): 1})
    res = formal_normal_form(H, Q)
    zero_I = (0,)
    assert res.normal.select(lambda I, J, k: I != zero_I).is_zero()
    assert res.normal.t_part(1) == PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, J=(2,), k=1)
    # oracle contract: the emitted generators reproduce the normal form
    assert compose_flows(res.generators, H.series + t_times(Q)) == res.normal
    assert all(g.kind == "hamiltonian" for g in res.generators)


def test_formal_normal_form_resonance_and_rescaling():
    tr = TruncationSpec(n=2, Dp=2, Dt=2, Nq=3)
    H = integrable(RATIONAL, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): -2})
    Q = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, I=(2, 1))
    with pytest.raises(ResonantDenominator) as exc:
        formal_normal_form(H, Q)
    assert exc.value.vector == (2, 1)
    assert exc.value.t_order == 1
    # scaled frequency (sqrt2, -2) is nonresonant and the monomial transforms away
    Hg = integrable(CTX2, tr, {((0, 0), (1, 0), 0): CTX2.sqrt_d(), ((0, 0), (0, 1), 0): -2})
    Qg = PoissonSeries.monomial(CTX2, tr, "torus", 1, I=(2, 1))
    res = formal_normal_form(Hg, Qg)
    assert res.normal == Hg.series
    assert compose_flows(res.generators, Hg.series + t_times(Qg)) == res.normal


def test_formal_normal_form_random_perturbations(rng):
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    H = integrable(
        CTX2,
        tr,
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): CTX2.sqrt_d(),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    )
    zero_I = (0, 0)
    for _ in range(5):
        Q = random_series(rng, CTX2, tr, "torus", n_terms=5, max_absI=1, max_pdeg=2, max_t=0)
        res = formal_normal_form(H, Q)
        assert res.normal.select(lambda I, J, k: I != zero_I).is_zero()
        assert compose_flows(res.generators, H.series + t_times(Q)) == res.normal


# (context, declared window (Dp, Dt, Nq), H) of the conjugation oracle
CONJUGATION_CASES = {
    "n2-sqrt2": (
        CTX2,
        (2, 3, 1),
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): CTX2.sqrt_d(),
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    ),
    "n1-rational": (RATIONAL, (3, 3, 1), {((0,), (1,), 0): 1, ((0,), (2,), 0): Fraction(1, 2)}),
}


@pytest.mark.parametrize(
    "case, kolmogorov",
    [pytest.param(case, False, id=case) for case in sorted(CONJUGATION_CASES)]
    + [pytest.param(case, True, id=f"kolmogorov-{case}") for case in sorted(CONJUGATION_CASES)],
)
def test_formal_normal_form_is_invariant_under_conjugation(case, kolmogorov):
    """A central flow exp(ad S), S of t-degree >= 1, takes H + tQ to H + tQ'.
    The formal normal form is unique, so Q and Q' have the same one.  So is
    the energy c(t) of the omega-torus, the ``casimir`` of the Kolmogorov
    normal form: a central Poisson automorphism keeps an invariant torus's
    frequency and energy, and for nonresonant omega and invertible alpha
    the omega-torus is formally unique.

    Unlike replaying the generators, this checks the normal form itself.  It
    is computed in the box W1 = (Dp + Dt, Dt, max(Nq, Dt r)), r = 1 the
    largest |I|_sup of Q and S, and projected onto the declared window W0:
    the weight |J| + k never falls under brackets and flows whose operands
    have weight >= 1, so no term past W1 feeds W0, and a term of t-order k
    has |I|_sup <= k r.
    """
    ctx, (Dp, Dt, Nq), h_terms = CONJUGATION_CASES[case]
    n = len(next(iter(h_terms))[0])
    W0 = TruncationSpec(n=n, Dp=Dp, Dt=Dt, Nq=Nq)
    W1 = TruncationSpec(n=n, Dp=Dp + Dt, Dt=Dt, Nq=max(Nq, Dt))
    H = integrable(ctx, W1, h_terms)
    differ = []
    for seed in range(40):
        rng = random.Random(seed)
        Q = random_series(rng, ctx, W1, "torus", n_terms=4, max_absI=1, max_pdeg=2, max_t=0)
        S = random_series(rng, ctx, W1, "torus", n_terms=3, max_absI=1, max_pdeg=2, max_t=Dt)
        S = S.select(lambda I, J, k: k >= 1)
        X = flow_apply(Generator.hamiltonian(S), H.series + t_times(Q))
        shifted = {}
        for (I, J, k), c in (X - H.series).items():
            assert k >= 1
            shifted[(I, J, k - 1)] = c
        Q2 = series(ctx, W1, shifted)
        if kolmogorov:
            got = [kolmogorov_normal_form(H, q).casimir.select(W0.admits) for q in (Q, Q2)]
        else:
            got = [formal_normal_form(H, q).normal.select(W0.admits) for q in (Q, Q2)]
        if got[0] != got[1]:
            differ.append(seed)
    assert differ == []


def test_kolmogorov_one_dim_example():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 3, ((0,), (2,), 0): Fraction(1, 2)})
    Q = PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, J=(1,))
    res = kolmogorov_normal_form(H, Q)
    assert len(res.generators) == 1
    gen = res.generators[0]
    assert gen.kind == "translation" and gen.order == 1 and gen.shift == (Fraction(-1),)
    assert res.casimir == series(RATIONAL, TR1, {((0,), (0,), 1): -3, ((0,), (0,), 2): Fraction(-1, 2)})
    assert res.remainder.is_zero()
    # independent substitution oracle: expand H + tQ at p -> p - t with ring ops only
    p = PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, J=(1,))
    t = PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, k=1)
    shifted = p - t
    oracle = shifted.scale(3) + (shifted * shifted).scale(Fraction(1, 2)) + t * shifted
    assert res.normal == oracle
    assert compose_flows(res.generators, H.series + t_times(Q)) == res.normal


def test_kolmogorov_trivial_and_degenerate():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 3, ((0,), (2,), 0): Fraction(1, 2)})
    res = kolmogorov_normal_form(H, PoissonSeries(RATIONAL, TR1, "torus"))
    assert res.generators == [] and res.casimir.is_zero() and res.remainder.is_zero()
    Hdeg = integrable(RATIONAL, TR1, {((0,), (1,), 0): 3})
    with pytest.raises(DegenerateAlpha, match="quadratic part alpha is not invertible"):
        kolmogorov_normal_form(Hdeg, PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, J=(1,)))


def test_kolmogorov_two_dim_decomposition():
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    s2 = CTX2.sqrt_d()
    H = integrable(
        CTX2,
        tr,
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): s2,
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    )
    Q = series(
        CTX2,
        tr,
        {((1, 0), (0, 0), 0): 1, ((-1, 0), (0, 0), 0): 1, ((0, 0), (1, 0), 0): 1},
    )
    res = kolmogorov_normal_form(H, Q)
    assert res.normal == H.series + res.casimir + res.remainder
    for (I, J, k), _ in res.remainder.items():
        assert sum(J) >= 2 and k >= 1
    zero_I = (0, 0)
    for (I, J, k), _ in res.casimir.items():
        assert I == zero_I and sum(J) == 0 and k >= 1
    assert compose_flows(res.generators, H.series + t_times(Q)) == res.normal


def test_shift_solvability_matches_surjectivity():
    # with alpha invertible, 2 alpha d = e_i is exactly solvable for each i
    alpha = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(2)))
    two_alpha = tuple(tuple(2 * x for x in row) for row in alpha)
    assert exact_det(two_alpha) != 0
    for i in range(2):
        e = [Fraction(1) if j == i else Fraction(0) for j in range(2)]
        d = solve_linear(two_alpha, e, RATIONAL)
        back = [sum(two_alpha[r][c] * d[c] for c in range(2)) for r in range(2)]
        assert back == e


def cofactor_det(M):
    """Reference determinant by expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    minors = ([row[:j] + row[j + 1 :] for row in M[1:]] for j in range(len(M)))
    return sum((-1) ** j * M[0][j] * cofactor_det(m) for j, m in enumerate(minors))


def elimination_matrices():
    """Matrices over Q and Q(sqrt 2), n <= 4: fixed pivoting and singular
    cases, then random ones with zeros, some made singular by a row sum."""
    s2 = CTX2.sqrt_d()
    out = [
        (RATIONAL, [[0, 1], [1, 0]]),  # one swap
        (RATIONAL, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        (RATIONAL, [[0, 1, 2], [0, 3, 4], [5, 6, 7]]),  # pivot from the last row
        (RATIONAL, [[1, 2], [2, 4]]),  # singular
        (RATIONAL, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),  # no pivot in column 1
        (RATIONAL, [[0, 0], [0, 0]]),
        (CTX2, [[s2, 1], [2, s2]]),  # det 2 - 2 = 0
        (CTX2, [[0, s2], [1 + s2, 3]]),
    ]
    out = [(ctx, [[ctx.coerce(x) for x in row] for row in M]) for ctx, M in out]
    rng = random.Random(15)

    def entry(ctx):
        if rng.random() < 0.3:
            return ctx.zero
        a = ctx.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return a + s2 * rng.randint(-2, 2) if ctx is CTX2 else a

    for ctx in (RATIONAL, CTX2):
        for n in range(1, 5):
            for singular in (False, True):
                M = [[entry(ctx) for _ in range(n)] for _ in range(n)]
                if singular and n >= 2:
                    M[-1] = [x + y for x, y in zip(M[0], M[1 % (n - 1)])]
                out.append((ctx, M))
    return out


@pytest.mark.parametrize("ctx, M", elimination_matrices())
def test_elimination_matches_cofactor_expansion(ctx, M):
    before = [list(row) for row in M]
    det = exact_det(M)
    assert det == cofactor_det(M)
    assert M == before  # exact_det eliminates on a copy
    rhs = [ctx.coerce(i - 1) for i in range(len(M))]
    if not det:
        with pytest.raises(DegenerateAlpha):
            solve_linear(M, rhs, ctx)
        return
    x = solve_linear(M, rhs, ctx)
    assert [sum(a * b for a, b in zip(row, x)) for row in M] == rhs


def pairing_cases():
    s2, s3 = CTX2.sqrt_d(), quadratic(3).sqrt_d()
    return [
        (RATIONAL, [Fraction(1), Fraction(-2, 3), Fraction(5, 7)]),
        (RATIONAL, [Fraction(0), Fraction(3, 4)]),
        (CTX2, [CTX2.one, s2, CTX2.zero]),
        (CTX2, [s2 * Fraction(1, 3) + Fraction(1, 2), Fraction(-5, 6), s2]),
        (quadratic(3), [Fraction(2, 5), s3 - 1, Fraction(0)]),
        (CTX2, [Fraction(1), Fraction(3, 2), Fraction(-1, 5)]),  # rational omega in Q(sqrt 2)
    ]


@pytest.mark.parametrize("ctx, omega", pairing_cases())
def test_pairing_equals_scalar_sum(ctx, omega):
    n = len(omega)
    fv = FrequencyVector(tuple(omega), ctx)
    tr = TruncationSpec(n=n, Dp=2, Dt=1, Nq=1)
    zero_I = (0,) * n
    terms = {(zero_I, tuple(int(i == j) for i in range(n)), 0): w for j, w in enumerate(omega)}
    H = integrable(ctx, tr, terms)
    for I in product(range(-3, 4), repeat=n):
        want = ctx.zero
        for w, i in zip(omega, I):
            want = want + ctx.coerce(w) * i
        for got in (fv.dot(I), H.pairing(I)):
            assert got == want and hash(got) == hash(want)
            assert (got.a, got.b, got.den, got.d) == (want.a, want.b, want.den, want.d)


def test_normal_forms_make_no_frequency_vector_dot_calls(monkeypatch):
    calls = []
    dot = FrequencyVector.dot
    monkeypatch.setattr(FrequencyVector, "dot", lambda self, I: calls.append(I) or dot(self, I))
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
    H = integrable(
        CTX2,
        tr,
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): CTX2.sqrt_d(),
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    )
    Q = series(CTX2, tr, {((1, 0), (0, 0), 0): 1, ((1, -1), (1, 0), 0): 2, ((0, 0), (0, 1), 0): 1})
    assert formal_normal_form(H, Q).generators
    assert kolmogorov_normal_form(H, Q).generators
    assert calls == []
    FrequencyVector(H.omega, CTX2).dot((1, 1))  # the patch counts
    assert calls == [(1, 1)]


def test_normal_space_class_basis_directions():
    tr = TruncationSpec(n=2, Dp=3, Dt=0, Nq=2)
    H = integrable(CTX2, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): CTX2.sqrt_d()})
    for i in range(2):
        J = tuple(1 if j == i else 0 for j in range(2))
        f = PoissonSeries.monomial(CTX2, tr, "torus", 1, J=J)
        nc = normal_space_class(H, f)
        assert [x == 1 for x in nc.nu] == [j == i for j in range(2)]
        assert nc.g.is_zero() and nc.ideal_part.is_zero() and nc.constant == 0


def test_normal_space_class_certificate():
    tr = TruncationSpec(n=2, Dp=3, Dt=0, Nq=2)
    s2 = CTX2.sqrt_d()
    H = integrable(CTX2, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): s2})
    f = series(
        CTX2,
        tr,
        {
            ((1, -1), (0, 0), 0): 1,
            ((1, 0), (1, 0), 0): 2,
            ((0, 1), (2, 0), 0): 3,
            ((0, 0), (0, 1), 0): Fraction(5, 2),
            ((0, 0), (0, 0), 0): 7,
        },
    )
    nc = normal_space_class(H, f)
    assert nc.nu == (CTX2.zero, CTX2.coerce(Fraction(5, 2)))
    assert nc.constant == 7
    # certificate identity re-verified with the bracket
    recon = poisson_bracket(H.series, nc.g) + nc.ideal_part
    recon = recon + PoissonSeries.monomial(CTX2, tr, "torus", nc.constant)
    for i in range(2):
        J = tuple(1 if j == i else 0 for j in range(2))
        recon = recon + PoissonSeries.monomial(CTX2, tr, "torus", nc.nu[i], J=J)
    assert recon == f
    for (I, J, k), _ in nc.ideal_part.items():
        assert sum(J) >= 2


def test_normal_space_class_resonant_error():
    tr = TruncationSpec(n=2, Dp=2, Dt=0, Nq=3)
    H = integrable(RATIONAL, tr, {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): -2})
    f = PoissonSeries.monomial(RATIONAL, tr, "torus", 1, I=(2, 1))
    with pytest.raises(ResonantDenominator):
        normal_space_class(H, f)


def test_normal_space_class_hyperbolic():
    tr = TruncationSpec(n=1, Dp=4, Dt=0, Nq=4)
    pq = PoissonSeries.monomial(RATIONAL, tr, "symplectic", 1, I=(1,), J=(1,))
    f = series(RATIONAL, tr, {((2,), (2,), 0): 1, ((1,), (1,), 0): 1}, mode="symplectic")
    nc = normal_space_class(pq, f)
    assert nc.basis == "pq"
    assert nc.nu == (Fraction(1),)
    assert nc.ideal_part == series(RATIONAL, tr, {((2,), (2,), 0): 1}, mode="symplectic")
    # off-diagonal monomials are exact bracket preimages
    g = series(RATIONAL, tr, {((3,), (1,), 0): 2, ((0,), (2,), 0): 1}, mode="symplectic")
    nc2 = normal_space_class(pq, g)
    recon = poisson_bracket(pq, nc2.g) + nc2.ideal_part
    recon = recon + PoissonSeries.monomial(RATIONAL, tr, "symplectic", nc2.constant)
    recon = recon + PoissonSeries.monomial(RATIONAL, tr, "symplectic", nc2.nu[0], I=(1,), J=(1,))
    assert recon == g
    # over Q(sqrt 2), with divisors j - i = -3, -1 and 2 for p^3, q p^2 and q^3 p
    r2 = CTX2.sqrt_d()
    terms = {((0,), (3,), 0): 1 + r2, ((1,), (2,), 0): r2 / 3, ((3,), (1,), 0): 5 - 2 * r2}
    diagonal = {((0,), (0,), 0): 2 * r2, ((1,), (1,), 0): 3 - r2, ((2,), (2,), 0): r2}
    f2 = series(CTX2, tr, {**terms, **diagonal}, mode="symplectic")
    pq2 = PoissonSeries.monomial(CTX2, tr, "symplectic", 1, I=(1,), J=(1,))
    nc3 = normal_space_class(pq2, f2)
    quotients = {(I, J, 0): c / (I[0] - J[0]) for (I, J, _), c in terms.items()}
    assert nc3.g == series(CTX2, tr, quotients, mode="symplectic")
    assert (nc3.constant, nc3.nu) == (2 * r2, (3 - r2,))
    recon = poisson_bracket(pq2, nc3.g) + nc3.ideal_part
    recon = recon + PoissonSeries.monomial(CTX2, tr, "symplectic", nc3.constant)
    recon = recon + PoissonSeries.monomial(CTX2, tr, "symplectic", nc3.nu[0], I=(1,), J=(1,))
    assert recon == f2


def test_per_order_diagnostics_and_serialization():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 1})
    Q = series(RATIONAL, TR1, {((1,), (1,), 0): 1, ((-1,), (1,), 0): 1})
    res = formal_normal_form(H, Q)
    assert res.per_order and res.per_order[0]["t_order"] == 1
    assert res.smallest_denominator is not None
    assert abs(res.smallest_denominator.value - 1.0) < 1e-12
    blob = res.to_json()
    assert blob["normal"] == res.normal.to_json()
    assert isinstance(blob["generators"], list)


def test_smallest_denominator_first_met_at_t_order_two():
    # Q's modes (1, 0) and (0, -1) give |(omega, I)| = 1 and sqrt 2 at t^1;
    # the mode (1, -1), with |1 - sqrt 2| ~ 0.41421, is eliminated only at t^2
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
    H = integrable(
        CTX2,
        tr,
        {
            ((0, 0), (1, 0), 0): 1,
            ((0, 0), (0, 1), 0): CTX2.sqrt_d(),
            ((0, 0), (2, 0), 0): Fraction(1, 2),
            ((0, 0), (0, 2), 0): Fraction(1, 2),
        },
    )
    Q = series(CTX2, tr, {((1, 0), (0, 1), 0): 1, ((0, -1), (1, 0), 0): 1})
    want = abs(float(FrequencyVector(H.omega, CTX2).dot((1, -1))))
    assert abs(want - 0.41421) < 1e-5
    for normal_form in (formal_normal_form, kolmogorov_normal_form):
        got = normal_form(H, Q).smallest_denominator
        assert abs(got.value - want) <= got.err


def test_normal_form_result_is_frozen():
    H = integrable(RATIONAL, TR1, {((0,), (1,), 0): 3, ((0,), (2,), 0): Fraction(1, 2)})
    res = kolmogorov_normal_form(H, PoissonSeries.monomial(RATIONAL, TR1, "torus", 1, J=(1,)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.casimir = res.remainder


def _normal_space_refusals():
    """Per case: H, an f, and the message of the one check that the pair breaks."""
    tr1 = TruncationSpec(n=1, Dp=2, Dt=1, Nq=2)
    tr2 = TruncationSpec(n=2, Dp=2, Dt=0, Nq=2)

    def mono(tr, mode, **key):
        return PoissonSeries.monomial(RATIONAL, tr, mode, 1, **key)

    pq = mono(tr1, "symplectic", I=(1,), J=(1,))
    return {
        "t-dependent": (pq, pq + mono(tr1, "symplectic", k=1), "t-free elements"),
        "t-dependent-torus": (
            integrable(RATIONAL, tr1, {((0,), (1,), 0): 1}),
            mono(tr1, "torus", I=(1,), k=1),
            "t-free elements",
        ),
        "raw-torus-H": (mono(tr1, "torus", I=(1,), J=(1,)), mono(tr1, "torus", I=(2,), J=(1,)), "only used in symplectic mode"),
        "two-dimensional": (mono(tr2, "symplectic", I=(1, 0), J=(1, 0)), mono(tr2, "symplectic", I=(0, 1)), "one-dimensional"),
        "not-pq": (pq.scale(2), mono(tr1, "symplectic", I=(2,), J=(1,)), "expects H = p q"),
    }


@pytest.mark.parametrize("case", sorted(_normal_space_refusals()))
def test_normal_space_class_refuses_each_bad_input(case):
    H, f, message = _normal_space_refusals()[case]
    with pytest.raises(ValueError, match=message):
        normal_space_class(H, f)
