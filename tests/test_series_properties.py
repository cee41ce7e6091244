"""Property tests of the series storage against a reference on Fraction pairs.

A coefficient x + y*sqrt(d) of the reference is a pair (x, y) of
Fractions (y = 0 and d = 0 in Q); a series is a dict from (I, J, k) to
such pairs, without zero pairs.  Every operation is written out from its
definition, visiting all pairs of terms, so it shares nothing with the
packed-key, one-denominator kernels it checks.
"""

from fractions import Fraction
from math import comb, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from kamforge import (
    Generator,
    IntegrableHamiltonian,
    PoissonSeries,
    TruncationSpec,
    flow_apply,
    homological_solve,
    poisson_bracket,
)
from kamforge.scalar import RATIONAL, QuadScalar, quadratic
from kamforge.series import drop_count

CTX2 = quadratic(2)
PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


# -- the reference --------------------------------------------------------

def _d(ctx):
    return ctx.d or 0


def _mul(c1, c2, d):
    (x1, y1), (x2, y2) = c1, c2
    return (x1 * x2 + d * y1 * y2, x1 * y2 + x2 * y1)


def _add_into(acc, key, c):
    x, y = acc.get(key, (Fraction(0), Fraction(0)))
    acc[key] = (x + c[0], y + c[1])


def _clean(acc):
    return {key: c for key, c in acc.items() if c != (0, 0)}


def _outside(tr, I, J, k):
    return k > tr.Dt or sum(J) > tr.Dp or any(abs(i) > tr.Nq for i in I)


def ref_add(f, g):
    acc = dict(f)
    for key, c in g.items():
        _add_into(acc, key, c)
    return _clean(acc)


def ref_scale(f, s, d):
    return _clean({key: _mul(c, s, d) for key, c in f.items()})


def ref_product(f, g, tr, d):
    acc, drops = {}, 0
    for (I1, J1, k1), c1 in f.items():
        for (I2, J2, k2), c2 in g.items():
            I = tuple(a + b for a, b in zip(I1, I2))
            J = tuple(a + b for a, b in zip(J1, J2))
            if _outside(tr, I, J, k1 + k2):
                drops += 1
            else:
                _add_into(acc, (I, J, k1 + k2), _mul(c1, c2, d))
    return _clean(acc), drops


def ref_bracket(f, g, mode, tr, d):
    acc, drops = {}, 0
    for (I1, J1, k1), c1 in f.items():
        for (I2, J2, k2), c2 in g.items():
            for j in range(tr.n):
                w = J1[j] * I2[j] - I1[j] * J2[j]
                if not w:
                    continue
                I = [a + b for a, b in zip(I1, I2)]
                if mode == "symplectic":
                    I[j] -= 1
                J = [a + b for a, b in zip(J1, J2)]
                J[j] -= 1
                if _outside(tr, I, J, k1 + k2):
                    drops += 1
                else:
                    c = tuple(w * x for x in _mul(c1, c2, d))
                    _add_into(acc, (tuple(I), tuple(J), k1 + k2), c)
    return _clean(acc), drops


def ref_hamiltonian_flow(S, f, mode, tr, d):
    """sum_m ad_S^m(f) / m!; S has t-degree >= 1, so m <= Dt suffices."""
    out, term = dict(f), dict(f)
    for m in range(1, tr.Dt + 1):
        term = ref_scale(ref_bracket(term, S, mode, tr, d)[0], (Fraction(1, m), Fraction(0)), d)
        out = ref_add(out, term)
    return out


def ref_translation_flow(order, shift, f, tr, d):
    """p_j -> p_j + d_j t^order, each power expanded by the binomial theorem.

    The shifted coordinates are expanded in index order.  A partial image
    of t-degree kk that meets p_j^J_j, with J_j > 0 and d_j != 0, drops one
    image for each m <= J_j with kk + order*m > Dt, and a dropped image is
    not expanded further."""
    acc, drops = {}, 0
    for (I, J, k), c in f.items():
        images = [((), k, c)]
        for j in range(tr.n):
            if J[j] == 0 or shift[j] == (0, 0):
                images = [(Jp + (J[j],), kk, cc) for Jp, kk, cc in images]
                continue
            nxt = []
            for Jp, kk, cc in images:
                power = (Fraction(1), Fraction(0))
                for m in range(J[j] + 1):
                    if kk + order * m > tr.Dt:
                        drops += 1
                    else:
                        coeff = _mul(cc, power, d)
                        coeff = (coeff[0] * comb(J[j], m), coeff[1] * comb(J[j], m))
                        nxt.append((Jp + (J[j] - m,), kk + order * m, coeff))
                    power = _mul(power, shift[j], d)
            images = nxt
        for Jn, kk, cc in images:
            _add_into(acc, (I, Jn, kk), cc)
    return _clean(acc), drops


# -- between the two ------------------------------------------------------

def to_series(ctx, tr, mode, terms):
    def value(x, y):
        return QuadScalar(x, y, ctx.d) if y else x

    return PoissonSeries(ctx, tr, mode, {key: value(*c) for key, c in terms.items()})


def to_ref(s):
    return {key: (Fraction(c.a, c.den), Fraction(c.b, c.den)) for key, c in s.items()}


def assert_canonical(s):
    """One positive denominator, numerators and denominator coprime, no zero pair."""
    D, num = s._den, s._num
    assert D > 0
    assert all(a or b for a, b in num.values())
    assert gcd(D, *(x for pair in num.values() for x in pair)) == 1


# -- strategies -----------------------------------------------------------

def _fractions():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def setups(draw, min_Dt=0):
    ctx = draw(st.sampled_from([RATIONAL, CTX2]))
    mode = draw(st.sampled_from(["torus", "symplectic"]))
    tr = TruncationSpec(
        n=draw(st.integers(1, 2)),
        Dp=draw(st.integers(0, 3)),
        Dt=draw(st.integers(min_Dt, 2)),
        Nq=draw(st.integers(0, 2)),
    )
    return ctx, mode, tr


@st.composite
def coefficients(draw, ctx):
    x = draw(_fractions())
    y = draw(_fractions()) if ctx.d else Fraction(0)
    return (x, y) if x or y else (Fraction(1), y)


@st.composite
def keys(draw, tr, min_k=0):
    I = tuple(draw(st.integers(-tr.Nq, tr.Nq)) for _ in range(tr.n))
    J, budget = [], tr.Dp
    for _ in range(tr.n):
        J.append(draw(st.integers(0, budget)))
        budget -= J[-1]
    return I, tuple(J), draw(st.integers(min_k, tr.Dt))


def term_dicts(ctx, tr, min_k=0, max_size=6):
    return st.dictionaries(keys(tr, min_k), coefficients(ctx), max_size=max_size)


# -- properties -----------------------------------------------------------

@PROPERTY
@given(st.data())
def test_ring_operations_match_reference(data):
    ctx, mode, tr = data.draw(setups())
    d = _d(ctx)
    ft, gt = data.draw(term_dicts(ctx, tr)), data.draw(term_dicts(ctx, tr))
    s = data.draw(coefficients(ctx))
    f, g = to_series(ctx, tr, mode, ft), to_series(ctx, tr, mode, gt)
    scalar = QuadScalar(s[0], s[1], ctx.d) if s[1] else s[0]
    neg_g = {key: (-x, -y) for key, (x, y) in gt.items()}
    for got, want in (
        (f, ft),
        (f + g, ref_add(ft, gt)),
        (f - g, ref_add(ft, neg_g)),
        (-g, neg_g),
        (f.scale(scalar), ref_scale(ft, s, d)),
    ):
        assert_canonical(got)
        assert to_ref(got) == want
    for op, ref in (
        (PoissonSeries.__mul__, ref_product(ft, gt, tr, d)),
        (poisson_bracket, ref_bracket(ft, gt, mode, tr, d)),
    ):
        before = drop_count()
        got = op(f, g)
        assert_canonical(got)
        assert (to_ref(got), drop_count() - before) == ref


@PROPERTY
@given(st.data())
def test_flows_match_reference(data):
    ctx, mode, tr = data.draw(setups(min_Dt=1))
    d = _d(ctx)
    ft = data.draw(term_dicts(ctx, tr))
    f = to_series(ctx, tr, mode, ft)
    St = data.draw(term_dicts(ctx, tr, min_k=1, max_size=3))
    got = flow_apply(Generator.hamiltonian(to_series(ctx, tr, mode, St)), f)
    assert_canonical(got)
    assert to_ref(got) == ref_hamiltonian_flow(St, ft, mode, tr, d)
    order = data.draw(st.integers(1, tr.Dt))
    zero = (Fraction(0), Fraction(0))
    shift = [data.draw(st.one_of(st.just(zero), coefficients(ctx))) for _ in range(tr.n)]
    values = [QuadScalar(x, y, ctx.d) if y else x for x, y in shift]
    before = drop_count()
    got = flow_apply(Generator.translation(order, values, ctx), f)
    assert_canonical(got)
    assert (to_ref(got), drop_count() - before) == ref_translation_flow(order, shift, ft, tr, d)


# The cubic H of tests/test_normalform.py carries p-degree m to m + 2, so
# corrections of p-degree Dp - 1 and Dp have bracket terms past Dp.  The
# n = 3 H adds terms with two and three nonzero exponents and one of
# p-degree 4, which carries m to m + 3.
TR_H = TruncationSpec(n=2, Dp=3, Dt=2, Nq=2)
TR_H3 = TruncationSpec(n=3, Dp=4, Dt=1, Nq=1)


def _cubic_H(ctx):
    w2 = CTX2.sqrt_d() if ctx is CTX2 else Fraction(1393, 985)
    terms = {
        ((0, 0), (1, 0), 0): 1,
        ((0, 0), (0, 1), 0): w2,
        ((0, 0), (2, 0), 0): Fraction(1, 2),
        ((0, 0), (0, 2), 0): Fraction(1, 2),
        ((0, 0), (3, 0), 0): 1,
        ((0, 0), (1, 2), 0): Fraction(-1, 3),
    }
    return IntegrableHamiltonian.from_series(PoissonSeries(ctx, TR_H, "torus", terms))


def _quartic_H3(ctx):
    w2 = CTX2.sqrt_d() if ctx is CTX2 else Fraction(1393, 985)
    zero = (0, 0, 0)
    terms = {
        (zero, (1, 0, 0), 0): 1,
        (zero, (0, 1, 0), 0): w2,
        (zero, (0, 0, 1), 0): Fraction(311, 99),
        (zero, (2, 0, 0), 0): Fraction(1, 2),
        (zero, (0, 1, 1), 0): 2,
        (zero, (1, 1, 1), 0): Fraction(-1, 4),
        (zero, (2, 0, 2), 0): 3,
        (zero, (0, 4, 0), 0): w2,
    }
    return IntegrableHamiltonian.from_series(PoissonSeries(ctx, TR_H3, "torus", terms))


@PROPERTY
@given(st.data())
def test_homological_solve_residual_is_one_bracket(data):
    ctx = data.draw(st.sampled_from([RATIONAL, CTX2]))
    H = data.draw(st.sampled_from([_cubic_H, _quartic_H3]))(ctx)
    tr = H.series.trunc
    R = to_series(ctx, tr, "torus", data.draw(term_dicts(ctx, tr, max_size=8)))
    p_cap = data.draw(st.sampled_from([0, 1, 3, tr.Dp]))
    zero_I = (0,) * tr.n
    d0 = drop_count()
    S, residual = homological_solve(H, R, p_cap=p_cap)
    d1 = drop_count()
    assert_canonical(S)
    assert_canonical(residual)
    assert residual == poisson_bracket(H.series, S) + R
    assert drop_count() - d1 == d1 - d0
    assert all(I != zero_I and sum(J) <= p_cap for (I, J, _), _c in S.items())
    assert all(I == zero_I or sum(J) > p_cap for (I, J, _), _c in residual.items())
