import random
from fractions import Fraction
from itertools import count
from math import comb

import pytest

from kamforge import (
    Generator,
    PoissonSeries,
    TruncationSpec,
    average,
    compose_flows,
    flow_apply,
    poisson_bracket,
)
from kamforge.errors import ContextMismatch, GeneratorOrderViolation, InvalidInput
from kamforge.series import drop_count
from kamforge.scalar import RATIONAL, quadratic

from conftest import random_series

TR1 = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)


def mono(ctx, tr, mode, c, I=None, J=None, k=0):
    return PoissonSeries.monomial(ctx, tr, mode, c, I=I, J=J, k=k)


def test_ring_ops_examples():
    q = mono(RATIONAL, TR1, "torus", 1, I=(1,))
    qi = mono(RATIONAL, TR1, "torus", 1, I=(-1,))
    one = mono(RATIONAL, TR1, "torus", 1)
    p = mono(RATIONAL, TR1, "torus", 1, J=(1,))
    assert q * qi == one
    tr = TruncationSpec(n=1, Dp=2, Dt=0, Nq=1)
    p2 = mono(RATIONAL, tr, "torus", 1, J=(1,))
    one2 = mono(RATIONAL, tr, "torus", 1)
    assert (one2 + p2) * (one2 - p2) == one2 - p2 * p2
    # truncation kills p^(Dp+1)
    assert ((p2 * p2) * p2).is_zero()
    assert (p - p) == PoissonSeries(RATIONAL, TR1, "torus")


def test_context_mismatch_rejected():
    other = TruncationSpec(n=1, Dp=2, Dt=2, Nq=2)
    f = mono(RATIONAL, TR1, "torus", 1, J=(1,))
    g = mono(RATIONAL, other, "torus", 1, J=(1,))
    with pytest.raises(ContextMismatch):
        f + g
    h = mono(RATIONAL, TR1, "symplectic", 1, J=(1,))
    with pytest.raises(ContextMismatch):
        poisson_bracket(f, h)


def test_series_is_unhashable():
    # a series defines __eq__ and no __hash__
    with pytest.raises(TypeError, match="unhashable"):
        hash(mono(RATIONAL, TR1, "torus", 1, J=(1,)))


def test_bracket_examples():
    p = mono(RATIONAL, TR1, "torus", 1, J=(1,))
    q = mono(RATIONAL, TR1, "torus", 1, I=(1,))
    qi = mono(RATIONAL, TR1, "torus", 1, I=(-1,))
    assert poisson_bracket(p, q) == q
    # derived via Leibniz: 0 = {p, q q^-1} = {p,q} q^-1 + q {p,q^-1}
    assert poisson_bracket(p, q * qi).is_zero()
    assert poisson_bracket(p, qi) == -qi

    ctx = quadratic(2)
    tr = TruncationSpec(n=2, Dp=2, Dt=1, Nq=2)
    H = PoissonSeries(ctx, tr, "torus", {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): ctx.sqrt_d()})
    g = mono(ctx, tr, "torus", 1, I=(1, -1))
    assert poisson_bracket(H, g) == g.scale(1 - ctx.sqrt_d())

    # symplectic: {pq, p^i q^j} = (j - i) p^i q^j under the fixed convention
    tr2 = TruncationSpec(n=1, Dp=4, Dt=0, Nq=4)
    pq = mono(RATIONAL, tr2, "symplectic", 1, I=(1,), J=(1,))
    for i, j in [(1, 0), (0, 2), (2, 3), (2, 2)]:
        m = mono(RATIONAL, tr2, "symplectic", 1, I=(j,), J=(i,))
        assert poisson_bracket(pq, m) == m.scale(j - i)


def test_average():
    p = mono(RATIONAL, TR1, "torus", 1, J=(1,))
    q = mono(RATIONAL, TR1, "torus", 1, I=(1,))
    assert average(q * p).is_zero()
    assert average(p * p + q * p) == p * p
    f = p + p * p
    assert average(f) == f


def test_flow_identity_and_centrality(rng):
    tr = TruncationSpec(n=1, Dp=3, Dt=3, Nq=3)
    zero_gen = Generator.hamiltonian(PoissonSeries(RATIONAL, tr, "torus"))
    f = random_series(rng, RATIONAL, tr, "torus")
    assert flow_apply(zero_gen, f) == f
    t = mono(RATIONAL, tr, "torus", 1, k=1)
    for gen in [
        Generator.hamiltonian(mono(RATIONAL, tr, "torus", 1, I=(1,), J=(1,), k=1)),
        Generator.translation(1, [Fraction(1, 2)], RATIONAL),
    ]:
        assert flow_apply(gen, t) == t


def test_flow_kills_first_order_terms():
    # S = t(p q^-1 - p q) removes the t*pq and t*pq^-1 terms of f
    S = PoissonSeries(RATIONAL, TR1, "torus", {((-1,), (1,), 1): 1, ((1,), (1,), 1): -1})
    f = PoissonSeries(
        RATIONAL,
        TR1,
        "torus",
        {((0,), (1,), 0): 1, ((0,), (2,), 1): 1, ((1,), (1,), 1): 1, ((-1,), (1,), 1): 1},
    )
    res = flow_apply(Generator.hamiltonian(S), f)
    assert res.coefficient((1,), (1,), 1) == 0
    assert res.coefficient((-1,), (1,), 1) == 0
    assert res.t_part(1) == mono(RATIONAL, TR1, "torus", 1, J=(2,), k=1)
    # oracle: explicit bracket expansion of the exponential
    ad1 = poisson_bracket(f, S)
    ad2 = poisson_bracket(ad1, S)
    ad3 = poisson_bracket(ad2, S)
    expected = f + ad1 + ad2.scale(Fraction(1, 2)) + ad3.scale(Fraction(1, 6))
    assert res == expected


def test_translation_flow_in_a_deep_t_window():
    # 3p + p^2/2 under p -> p + t/3 at Dt = 20000: sum_J c_J sum_m C(J, m) (t/3)^m p^(J - m)
    tr = TruncationSpec(n=1, Dp=2, Dt=20000, Nq=0)
    c = {1: Fraction(3), 2: Fraction(1, 2)}
    f = PoissonSeries(RATIONAL, tr, "torus", {((0,), (J,), 0): cJ for J, cJ in c.items()})
    shift = Fraction(1, 3)
    expected = {}
    for J, cJ in c.items():
        for m in range(J + 1):
            key = ((0,), (J - m,), m)
            expected[key] = expected.get(key, 0) + cJ * comb(J, m) * shift**m
    out = flow_apply(Generator.translation(1, [shift], RATIONAL), f)
    assert out == PoissonSeries(RATIONAL, tr, "torus", expected)
    assert len(out) == 5 and out._den == 18


def test_generator_validation():
    with pytest.raises(GeneratorOrderViolation):
        Generator.hamiltonian(mono(RATIONAL, TR1, "torus", 1, I=(1,), J=(1,)))  # k = 0
    with pytest.raises(GeneratorOrderViolation):  # one term of t-degree 0 among others
        Generator.hamiltonian(mono(RATIONAL, TR1, "torus", 1, J=(1,), k=2) + mono(RATIONAL, TR1, "torus", 1))
    Generator.hamiltonian(PoissonSeries(RATIONAL, TR1, "torus"))  # the zero series has no t-degree
    with pytest.raises(GeneratorOrderViolation):
        Generator.translation(0, [1], RATIONAL)


def test_generator_built_without_its_factory_is_checked():
    # S = p^2 has t-degree 0: its Lie series would not close in the window,
    # and flow_apply would cut it short (q - 2qp instead of q e^(-2p))
    tr = TruncationSpec(n=1, Dp=6, Dt=0, Nq=3)
    S = mono(RATIONAL, tr, "torus", 1, J=(2,))
    with pytest.raises(GeneratorOrderViolation):
        Generator(kind="hamiltonian", S=S)
    with pytest.raises(GeneratorOrderViolation):
        Generator(kind="translation", order=0, shift=(1,))
    with pytest.raises(ValueError, match="unknown generator kind"):
        Generator(kind="nonsense")
    with pytest.raises(InvalidInput, match="needs a series S"):
        Generator(kind="hamiltonian")


def test_compose_flows_and_inverses(rng):
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=6)
    f = random_series(rng, RATIONAL, tr, "torus", n_terms=5)
    assert compose_flows([], f) == f
    S = random_series(rng, RATIONAL, tr, "torus", n_terms=3, max_pdeg=1).select(
        lambda I, J, k: k >= 1
    )
    gens = [
        Generator.hamiltonian(S),
        Generator.translation(2, [Fraction(1, 3), Fraction(-2, 1)], RATIONAL),
        Generator(kind="translation", order=1, shift=(RATIONAL.coerce(Fraction(-1, 2)), RATIONAL.coerce(3))),
    ]
    for g in gens:
        assert compose_flows([g, g.inverse()], f) == f


def _budgeted_triple(rng, tr, mode, pdegs):
    return [
        random_series(rng, RATIONAL, tr, mode, n_terms=4, max_absI=1, max_pdeg=d, max_t=1)
        for d in pdegs
    ]


@pytest.mark.parametrize("mode", ["torus", "symplectic"])
def test_poisson_axioms(mode, rng):
    # degree budgets keep every intermediate product inside the window
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    for _ in range(50):
        f, g, h = _budgeted_triple(rng, tr, mode, (2, 2, 0))
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()
        jac = (
            poisson_bracket(poisson_bracket(f, g), h)
            + poisson_bracket(poisson_bracket(g, h), f)
            + poisson_bracket(poisson_bracket(h, f), g)
        )
        assert jac.is_zero()
        f, g, h = _budgeted_triple(rng, tr, mode, (1, 2, 2))
        leib = poisson_bracket(f, g * h) - (poisson_bracket(f, g) * h + g * poisson_bracket(f, h))
        assert leib.is_zero()



# -- independent all-pairs reference for the bracket and the product ------
#
# Written from the definitions on dicts of coefficient pairs (x, y) of
# Fractions, standing for x + y*sqrt(d) (d = 0 in Q): every pair of terms
# is visited, and each term produced outside the window is one drop.

def _outside(tr, I, J, k):
    return k > tr.Dt or sum(J) > tr.Dp or any(abs(i) > tr.Nq for i in I)


def _times(c1, c2, d, w=1):
    (x1, y1), (x2, y2) = c1, c2
    return (w * (x1 * x2 + d * y1 * y2), w * (x1 * y2 + x2 * y1))


def _accumulate(acc, key, c):
    x, y = acc.get(key, (Fraction(0), Fraction(0)))
    acc[key] = (x + c[0], y + c[1])


def _nonzero(acc):
    """The reference result without its zero sums, and their number."""
    out = {key: c for key, c in acc.items() if c != (0, 0)}
    return out, len(acc) - len(out)


def _ref_bracket(f, g, mode, tr, d):
    acc, drops = {}, 0
    for (I1, J1, k1), c1 in f.items():
        for (I2, J2, k2), c2 in g.items():
            for j in range(tr.n):
                # d_pj f * q_j d_qj g - q_j d_qj f * d_pj g on monomials
                w = J1[j] * I2[j] - I1[j] * J2[j]
                if w == 0:
                    continue
                I = [a + b for a, b in zip(I1, I2)]
                if mode == "symplectic":
                    I[j] -= 1  # d_qj instead of q_j d_qj
                J = [a + b for a, b in zip(J1, J2)]
                J[j] -= 1
                if _outside(tr, I, J, k1 + k2):
                    drops += 1
                    continue
                _accumulate(acc, (tuple(I), tuple(J), k1 + k2), _times(c1, c2, d, w))
    return acc, drops


def _ref_product(f, g, tr, d):
    acc, drops = {}, 0
    for (I1, J1, k1), c1 in f.items():
        for (I2, J2, k2), c2 in g.items():
            I = [a + b for a, b in zip(I1, I2)]
            J = [a + b for a, b in zip(J1, J2)]
            if _outside(tr, I, J, k1 + k2):
                drops += 1
                continue
            _accumulate(acc, (tuple(I), tuple(J), k1 + k2), _times(c1, c2, d))
    return acc, drops


# (I_j, J_j) per coordinate: zero, antiparallel (1,0)/(-2,0), parallel
# (1,1)/(2,2) and (0,1)/(0,2), and directions that meet nothing
_PAIRS = [(0, 0), (1, 0), (-2, 0), (1, 1), (2, 2), (-1, 1), (0, 1), (0, 2), (3, 1), (-1, 2)]


def _rational_coeff(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)), Fraction(0)


def _pool_terms(rng, tr, size, k_choices, p_choices, coeff=_rational_coeff):
    """Up to ``size`` terms inside the window with t-degree in k_choices and
    p-degree in p_choices, each coordinate drawn from _PAIRS."""
    terms = {}
    for _ in range(size * 20):
        if len(terms) == size:
            break
        pairs = [rng.choice(_PAIRS) for _ in range(tr.n)]
        I = tuple(a for a, _ in pairs)
        J = tuple(b for _, b in pairs)
        if sum(J) in p_choices and max(map(abs, I)) <= tr.Nq:
            terms[(I, J, rng.choice(k_choices))] = coeff(rng)
    return terms


def _series(ctx, tr, mode, terms):
    def value(x, y):
        return ctx.coerce(x) + ctx.sqrt_d() * y if y else ctx.coerce(x)

    return PoissonSeries(ctx, tr, mode, {key: value(*c) for key, c in terms.items()})


def _as_pairs(f):
    """The coefficients of f as (x, y) pairs; no stored coefficient is 0."""
    assert all(c for _, c in f.items())
    return {key: (Fraction(c.a, c.den), Fraction(c.b, c.den)) for key, c in f.items()}


def _check_against_reference(tr, mode, f_terms, g_terms, ctx=RATIONAL):
    """Equal series and an equal drop-count delta, for {f, g} and f * g;
    returns the number of output keys whose sum cancelled."""
    d = ctx.d or 0
    f, g = _series(ctx, tr, mode, f_terms), _series(ctx, tr, mode, g_terms)
    cancelled = 0
    for op, ref in (
        (poisson_bracket, lambda: _ref_bracket(f_terms, g_terms, mode, tr, d)),
        (PoissonSeries.__mul__, lambda: _ref_product(f_terms, g_terms, tr, d)),
    ):
        before = drop_count()
        got = _as_pairs(op(f, g))
        acc, drops = ref()
        want, zeros = _nonzero(acc)
        assert (got, drop_count() - before) == (want, drops)
        cancelled += zeros
    return cancelled


@pytest.mark.parametrize("mode", ["torus", "symplectic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_and_product_match_all_pairs_reference(mode, n):
    rng = random.Random(1000 * n + len(mode))
    for _ in range(60):
        tr = TruncationSpec(n=n, Dp=rng.randint(0, 4), Dt=rng.randint(0, 3), Nq=rng.randint(0, 3))
        ks, ps = range(tr.Dt + 1), range(tr.Dp + 1)
        f_terms = _pool_terms(rng, tr, rng.randint(0, 8), ks, ps)
        _check_against_reference(tr, mode, f_terms, _pool_terms(rng, tr, rng.randint(0, 8), ks, ps))


def _quadratic_coeff(rng):
    """x + y*sqrt(d) with pairwise coprime denominators, so that one
    operand's common denominator is a true lcm of its terms'."""
    dens = (1, 3, 5, 7, 11)
    x = Fraction(rng.randint(-9, 9), rng.choice(dens))
    y = Fraction(rng.randint(-9, 9), rng.choice(dens))
    return (x, y) if x or y else (Fraction(1, rng.choice(dens)), y)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", ["torus", "symplectic"])
@pytest.mark.parametrize("n", [1, 2])
def test_bracket_and_product_match_all_pairs_reference_quadratic(d, mode, n):
    rng = random.Random(100 * d + 10 * n + len(mode))
    ctx = quadratic(d)
    cancelled = 0
    for _ in range(40):
        tr = TruncationSpec(n=n, Dp=rng.randint(1, 4), Dt=rng.randint(0, 3), Nq=rng.randint(1, 3))
        ks, ps = range(tr.Dt + 1), range(tr.Dp + 1)
        u = _pool_terms(rng, tr, rng.randint(1, 6), ks, ps, _quadratic_coeff)
        v = _pool_terms(rng, tr, rng.randint(1, 6), ks, ps, _quadratic_coeff)
        v = {key: c for key, c in v.items() if key not in u}
        s = _quadratic_coeff(rng)
        # (u + v) * s(u - v): the cross terms s*u_i*v_j cancel in pairs
        f = {**u, **v}
        g = {key: _times(s, c, d, -1 if key in v else 1) for key, c in f.items()}
        cancelled += _check_against_reference(tr, mode, f, g, ctx)
        # g is s*f off e's keys, plus e: in {f, g} the pairs of f x s*f cancel
        e = _pool_terms(rng, tr, rng.randint(0, 4), ks, ps, _quadratic_coeff)
        g = {key: _times(s, c, d) for key, c in f.items() if key not in e}
        cancelled += _check_against_reference(tr, mode, f, {**g, **e}, ctx)
    assert cancelled > 0  # some output sums did cancel exactly


@pytest.mark.parametrize("mode", ["torus", "symplectic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tight_windows_match_all_pairs_reference(mode, n):
    rng = random.Random(7 * n + len(mode))
    for _ in range(20):
        for tr, ks, ps in (
            # every pair lands past Dt: operands at t-degree Dt >= 1
            (TruncationSpec(n=n, Dp=3, Dt=1, Nq=3), (1,), range(4)),
            (TruncationSpec(n=n, Dp=3, Dt=2, Nq=3), (2,), range(4)),
            # every bracket pair lands past Dp: p-degree 2 + 2 - 1 > 2
            (TruncationSpec(n=n, Dp=2, Dt=1, Nq=3), range(2), (2,)),
            # every product pair lands past Dp = 1, brackets stay inside
            (TruncationSpec(n=n, Dp=1, Dt=1, Nq=3), range(2), (1,)),
            # Dp = 0: no bracket term at all, products only in q and t
            (TruncationSpec(n=n, Dp=0, Dt=1, Nq=2), range(2), (0,)),
        ):
            f_terms = _pool_terms(rng, tr, 8, ks, ps)
            _check_against_reference(tr, mode, f_terms, _pool_terms(rng, tr, 8, ks, ps))


def _random_budgeted_generator(rng, tr, kind):
    if kind == "hamiltonian":
        S = random_series(rng, RATIONAL, tr, "torus", n_terms=3, max_absI=1, max_pdeg=1, max_t=tr.Dt)
        S = S.select(lambda I, J, k: k >= 1)
        return Generator.hamiltonian(S)
    shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(tr.n)]
    return Generator.translation(rng.randint(1, tr.Dt), shift, RATIONAL)


@pytest.mark.parametrize("kind", ["hamiltonian", "translation"])
def test_flow_morphism_and_multiplicativity(kind, rng):
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=6)
    for _ in range(15):
        f = random_series(rng, RATIONAL, tr, "torus", n_terms=3, max_absI=1, max_pdeg=2, max_t=1)
        g = random_series(rng, RATIONAL, tr, "torus", n_terms=3, max_absI=1, max_pdeg=2, max_t=1)
        gen = _random_budgeted_generator(rng, tr, kind)
        ff, gg = flow_apply(gen, f), flow_apply(gen, g)
        assert flow_apply(gen, f * g) == ff * gg
        assert flow_apply(gen, poisson_bracket(f, g)) == poisson_bracket(ff, gg)


def test_eigen_relation(rng):
    # p-degree-0 part of {H, q^I} is (omega, I) q^I for nonresonant H in K[[p]]
    ctx = quadratic(2)
    tr = TruncationSpec(n=2, Dp=2, Dt=0, Nq=15)
    s2 = ctx.sqrt_d()
    H = PoissonSeries(
        ctx,
        tr,
        "torus",
        {((0, 0), (1, 0), 0): 1, ((0, 0), (0, 1), 0): s2, ((0, 0), (0, 2), 0): Fraction(1, 2)},
    )
    for _ in range(50):
        I = (0, 0)
        while I == (0, 0):
            I = (rng.randint(-15, 15), rng.randint(-15, 15))
        qI = mono(ctx, tr, "torus", 1, I=I)
        got = poisson_bracket(H, qI).select(lambda _I, J, k: sum(J) == 0)
        assert got == qI.scale(I[0] + s2 * I[1])


def test_json_round_trip(rng):
    tr = TruncationSpec(n=2, Dp=3, Dt=2, Nq=3)
    f = random_series(rng, RATIONAL, tr, "torus", n_terms=6, max_pdeg=3, max_t=2)
    assert PoissonSeries.from_json(f.to_json()) == f
    ctx = quadratic(2)
    g = PoissonSeries(ctx, tr, "symplectic", {((1, -1), (0, 2), 1): ctx.sqrt_d() - 3})
    assert PoissonSeries.from_json(g.to_json()) == g
    # byte-stable ordering
    import json

    assert json.dumps(f.to_json()) == json.dumps(PoissonSeries.from_json(f.to_json()).to_json())


def test_series_constructor_validation():
    with pytest.raises(InvalidInput):
        PoissonSeries(RATIONAL, TR1, "torus", {((5,), (0,), 0): 1})  # outside Nq
    with pytest.raises(InvalidInput):
        PoissonSeries(RATIONAL, TR1, "torus", {((0,), (0,), 9): 1})  # outside Dt
    with pytest.raises(InvalidInput):
        PoissonSeries(RATIONAL, TR1, "torus", {((0, 0), (0,), 0): 1})  # wrong dimension
    with pytest.raises(InvalidInput):
        PoissonSeries(RATIONAL, TR1, "torus", {((0,), (-1,), 0): 1})  # negative p-power
    with pytest.raises(ValueError):
        PoissonSeries(RATIONAL, TR1, "nonsense", {})


@pytest.mark.parametrize(
    "n, Dp, Dt, Nq, message",
    [
        (0, 1, 1, 1, "dimension n must be >= 1"),
        (1, -1, 1, 1, "truncation bounds must be >= 0"),
        (1, 1, -1, 1, "truncation bounds must be >= 0"),
        (1, 1, 1, -1, "truncation bounds must be >= 0"),
    ],
)
def test_truncation_spec_validation(n, Dp, Dt, Nq, message):
    with pytest.raises(ValueError, match=message):
        TruncationSpec(n=n, Dp=Dp, Dt=Dt, Nq=Nq)


@pytest.mark.parametrize(
    "n, Dp, Dt, Nq",
    [(2, 4.0, 3, 4), (2.0, 4, 3, 4), (2, "4", 3, 4), (True, 4, 3, 4)],
    ids=["float-Dp", "float-n", "str-Dp", "bool-n"],
)
def test_truncation_spec_rejects_non_integer_bounds(n, Dp, Dt, Nq):
    # a float bound used to fail inside the key packing, and True passed as n = 1
    with pytest.raises(ValueError, match="truncation bounds must be integers"):
        TruncationSpec(n=n, Dp=Dp, Dt=Dt, Nq=Nq)


def _chained_flow(gen, f):
    """The Lie series as a chain: each scaled bracket added to the running sum."""
    out = term = f
    for m in count(1):
        term = poisson_bracket(term, gen.S).scale(Fraction(1, m))
        if term.is_zero():
            return out
        out = out + term


def _check_flow_against_chain(gen, f):
    d0 = drop_count()
    want = _chained_flow(gen, f)
    d1 = drop_count()
    got = flow_apply(gen, f)
    assert got == want
    assert drop_count() - d1 == d1 - d0
    return got


@pytest.mark.parametrize("mode", ["torus", "symplectic"])
@pytest.mark.parametrize("ctx", [RATIONAL, quadratic(2)], ids=["rational", "sqrt2"])
def test_flow_apply_matches_the_chained_lie_series(ctx, mode, rng):
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=4)
    unit = ctx.one if ctx is RATIONAL else 1 + ctx.sqrt_d()  # gives b != 0 in Q(sqrt 2)
    for _ in range(12):
        f = random_series(rng, ctx, tr, mode, n_terms=8, max_absI=2, max_pdeg=3, max_t=2)
        S = random_series(rng, ctx, tr, mode, n_terms=4, max_absI=1, max_pdeg=2, max_t=2)
        S = S.select(lambda I, J, k: k >= 1).scale(unit)
        _check_flow_against_chain(Generator.hamiltonian(S), f.scale(unit))


def test_flow_apply_keeps_a_key_that_cancels_and_comes_back():
    # with S = q t: {f, S} = (d_p f) q t, so for f = -q^2 t^2 + p^2 + p q t
    # u_1 = 2 p q t + q^2 t^2 cancels f's first key and u_2 / 2 = q^2 t^2 brings it back
    tr = TruncationSpec(n=1, Dp=3, Dt=2, Nq=3)
    back = ((2,), (0,), 2)
    f = PoissonSeries(RATIONAL, tr, "torus", [(back, -1), (((0,), (2,), 0), 1), (((1,), (1,), 1), 1)])
    S = mono(RATIONAL, tr, "torus", 1, I=(1,), k=1)
    gen = Generator.hamiltonian(S)
    assert (f + poisson_bracket(f, S)).coefficient(*back) == 0
    got = _check_flow_against_chain(gen, f)
    want = {((0,), (2,), 0): 1, ((1,), (1,), 1): 3, back: 1}
    assert got == PoissonSeries(RATIONAL, tr, "torus", want)


@pytest.mark.parametrize("ctx", [RATIONAL, quadratic(2)], ids=["rational", "sqrt2"])
def test_oscillating_part_selects_the_oscillating_terms_of_a_degree(ctx, rng):
    tr = TruncationSpec(n=2, Dp=4, Dt=3, Nq=2)
    for _ in range(20):
        f = random_series(rng, ctx, tr, "torus", n_terms=14, max_absI=2, max_pdeg=4, max_t=3)
        for k in range(tr.Dt + 1):
            for p_max in (0, 1, tr.Dp):
                got = f.oscillating_part(k, p_max)
                want = f.select(lambda I, J, t: t == k and I != (0, 0) and sum(J) <= p_max)
                assert got == want
