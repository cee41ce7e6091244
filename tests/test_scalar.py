import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from kamforge import scalar
from kamforge.errors import ContextMismatch, DivisionByZero, InvalidInput, RationalInput
from kamforge.scalar import (
    RATIONAL,
    CertifiedDecimal,
    QuadScalar,
    ScalarContext,
    certified_root,
    continued_fraction,
    convergents,
    exact_sign,
    format_literal,
    parse_literal,
    quadratic,
)

S2 = QuadScalar(0, 1, 2)


def test_quad_arith_examples():
    one_plus = QuadScalar(1, 1, 2)
    one_minus = QuadScalar(1, -1, 2)
    assert one_plus * one_minus == QuadScalar(-1, 0, 2)
    assert S2 * S2 == 2
    inv = 1 / one_minus
    assert inv == QuadScalar(-1, -1, 2)
    # derived check: multiply back to 1
    assert inv * one_minus == 1


def test_quad_division_by_zero():
    with pytest.raises(DivisionByZero):
        QuadScalar(1, 0, 2) / QuadScalar(0, 0, 2)


def test_mixed_radicand_rejected():
    with pytest.raises(ContextMismatch):
        QuadScalar(1, 1, 2) + QuadScalar(1, 1, 3)


def test_exact_sign_examples():
    assert exact_sign(QuadScalar(3, -2, 2)) == 1  # 9 > 8
    assert exact_sign(QuadScalar(1, -1, 2)) == -1
    assert exact_sign(QuadScalar(0, 0, 2)) == 0
    assert exact_sign(Fraction(-3, 7)) == -1
    assert exact_sign(0) == 0


def _random_quad(rng):
    return QuadScalar(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        2,
    )


def test_field_axioms_quadratic():
    rng = random.Random(11)
    one = QuadScalar(1, 0, 2)
    for _ in range(1000):
        a, b, c = _random_quad(rng), _random_quad(rng), _random_quad(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (one / a) == one


def test_field_axioms_rational():
    rng = random.Random(12)
    one = RATIONAL.one
    for _ in range(1000):
        a, b, c = (
            RATIONAL.coerce(Fraction(rng.randint(-30, 30), rng.randint(1, 11))) for _ in range(3)
        )
        assert isinstance(a, QuadScalar) and a.b == 0
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RATIONAL.zero and a + (-a) == 0
        if a:
            assert a * (one / a) == one
            assert a * (1 / a) == 1


def test_sign_multiplicative():
    rng = random.Random(13)
    for _ in range(500):
        x, y = _random_quad(rng), _random_quad(rng)
        assert exact_sign(x * y) == exact_sign(x) * exact_sign(y)


def test_continued_fraction_examples():
    assert continued_fraction(S2, 5) == [1, 2, 2, 2, 2]
    golden = (1 + QuadScalar(0, 1, 5)) / 2
    assert continued_fraction(golden, 5) == [1, 1, 1, 1, 1]
    assert continued_fraction(2 + S2, 4) == [3, 2, 2, 2]


def test_continued_fraction_rejects_rationals():
    with pytest.raises(RationalInput):
        continued_fraction(QuadScalar(3, 0, 2), 4)


@pytest.mark.parametrize("x", [S2, 2 + S2, (1 + QuadScalar(0, 1, 5)) / 2, QuadScalar(Fraction(1, 3), Fraction(2, 7), 3)])
def test_convergent_quality(x):
    # |x - p/q| < 1/q^2, checked as -1 < q^2 x - p q < 1 with exact signs
    cf = continued_fraction(x, 10)
    for p, q in convergents(cf)[1:]:
        y = x * (q * q) - p * q
        assert exact_sign(y - 1) < 0
        assert exact_sign(y + 1) > 0


def test_floor():
    assert S2.floor() == 1
    assert (-S2).floor() == -2
    assert (S2 * 100).floor() == 141
    assert QuadScalar(Fraction(-7, 2), 0, 2).floor() == -4


def test_context_validation():
    with pytest.raises(ValueError):
        ScalarContext("quadratic", 4)  # not square-free
    with pytest.raises(ValueError):
        ScalarContext("rational", 2)
    with pytest.raises(ValueError):
        ScalarContext("weird")


def test_context_coercion_and_mismatch():
    ctx = quadratic(2)
    assert ctx.coerce(Fraction(1, 2)) == QuadScalar(Fraction(1, 2), 0, 2)
    with pytest.raises(ContextMismatch):
        RATIONAL.coerce(S2)
    with pytest.raises(ContextMismatch):
        quadratic(3).coerce(S2)


def test_literals_round_trip():
    assert format_literal(RATIONAL, Fraction(-3, 4)) == "-3/4"
    assert format_literal(RATIONAL, Fraction(5)) == "5"
    assert parse_literal(RATIONAL, "-3/4") == Fraction(-3, 4)
    ctx = quadratic(2)
    lit = format_literal(ctx, QuadScalar(Fraction(1, 2), -1, 2))
    assert lit == ["1/2", "-1", 2]
    assert parse_literal(ctx, lit) == QuadScalar(Fraction(1, 2), -1, 2)


def test_certified_decimal_brackets_value():
    # (3 - 2 sqrt 2)^40 is about 2.5e-31, with a and b near 1e30 that cancel
    for x in [Fraction(1, 3), S2, 3 - 2 * S2, (3 - 2 * S2) ** 40, Fraction(0)]:
        cd = CertifiedDecimal.from_exact(x)
        lo, hi = Fraction(cd.value) - Fraction(cd.err), Fraction(cd.value) + Fraction(cd.err)
        # exact containment check
        assert exact_sign(x - lo) >= 0 and exact_sign(hi - x) >= 0
        assert cd.err <= 1e-13 * abs(cd.value) or x == 0


def test_certified_root():
    cd = certified_root(Fraction(2), 2)
    assert abs(cd.value - 2**0.5) < 1e-12
    lo = (Fraction(cd.value) - Fraction(cd.err)) ** 2
    hi = (Fraction(cd.value) + Fraction(cd.err)) ** 2
    assert lo <= 2 <= hi
    assert certified_root(Fraction(0), 4).value == 0.0
    # a power beyond the float range still has a float root, as tight as in range
    cases = [(Fraction(10) ** 1000, 4), (Fraction(1, 10**1000), 4), (Fraction(10) ** 400, 3)]
    cases += [(Fraction(2) ** 1500, 2000), (Fraction(10) ** 1000, 2000), (Fraction(10) ** 5000, 2000)]
    cases += [(Fraction(1, 10**5000), 2000), (Fraction(10**5000 + 1, 10**4000), 2001)]
    for x, power in cases:
        cd = certified_root(x, power)
        v, e = Fraction(cd.value), Fraction(cd.err)
        assert (v - e) ** power <= x <= (v + e) ** power and cd.err <= 2e-14 * cd.value


# ---------------------------------------------------------------------------
# differential test against a reference model of Q(sqrt(d)): a value is a
# pair (a, b) of Fractions standing for a + b*sqrt(d); d = 0 is the
# rational context.


def _ref_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y, d):
    norm = y[0] * y[0] - d * y[1] * y[1]
    return ((x[0] * y[0] - d * x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _ref_pow(x, n, d):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _ref_mul(out, x, d)
    return out if n >= 0 else _ref_div((Fraction(1), Fraction(0)), out, d)


def _ref_real(x, d):
    """a + b*sqrt(d) to 80 digits; the test values are never that close to an integer."""
    with localcontext() as c:
        c.prec = 80
        return Decimal(x[0].numerator) / x[0].denominator + (
            Decimal(x[1].numerator) / x[1].denominator * Decimal(d).sqrt()
        )


def _ref_sign(x, d):
    v = _ref_real(x, d) if x[1] else x[0]
    return (v > 0) - (v < 0)


def _ref_floor(x, d):
    return math.floor(_ref_real(x, d) if x[1] else x[0])


def _ref_str(x, d):
    if not x[1]:
        return str(x[0])
    if not x[0]:
        return f"{x[1]}*sqrt({d})"
    return f"{x[0]} + {x[1]}*sqrt({d})"


def _pair(q, d):
    """The reference pair of a QuadScalar, after checking its normal form."""
    assert q.den > 0 and math.gcd(q.a, q.b, q.den) == 1
    assert q.d == d or not q.b
    return (Fraction(q.a, q.den), Fraction(q.b, q.den))


def _random_ref(rng, d):
    a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    b = Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if d and rng.random() < 0.7 else Fraction(0)
    return a, b


@pytest.mark.parametrize("d", [0, 2, 3, 5, 7])
def test_quad_scalar_against_reference(d):
    rng = random.Random(1000 + d)
    ctx = RATIONAL if d == 0 else quadratic(d)
    for _ in range(300):
        x, y = _random_ref(rng, d), _random_ref(rng, d)
        qx = ctx.coerce(x[0]) if d == 0 else QuadScalar(x[0], x[1], d)
        qy = ctx.coerce(y[0]) if d == 0 else QuadScalar(y[0], y[1], d)
        assert _pair(qx, d) == x
        assert _pair(qx + qy, d) == (x[0] + y[0], x[1] + y[1])
        assert _pair(qx - qy, d) == (x[0] - y[0], x[1] - y[1])
        assert _pair(-qx, d) == (-x[0], -x[1])
        assert _pair(qx * qy, d) == _ref_mul(x, y, d)
        assert _pair(qx.conjugate(), d) == (x[0], -x[1])
        if any(y):
            assert _pair(qx / qy, d) == _ref_div(x, y, d)
        else:
            with pytest.raises(DivisionByZero):
                qx / qy
        for n in range(-3 if any(x) else 0, 5):
            assert _pair(qx**n, d) == _ref_pow(x, n, d)
        assert exact_sign(qx) == _ref_sign(x, d)
        assert qx.floor() == _ref_floor(x, d)
        assert (qx < qy) == (_ref_sign((x[0] - y[0], x[1] - y[1]), d) < 0)
        assert (qx >= qy) == (_ref_sign((x[0] - y[0], x[1] - y[1]), d) >= 0)
        assert float(qx) == float(x[0]) + float(x[1]) * math.sqrt(d)
        assert str(qx) == _ref_str(x, d)
        want_lit = str(x[0]) if d == 0 else [str(x[0]), str(x[1]), d]
        assert format_literal(ctx, qx) == want_lit
        assert parse_literal(ctx, want_lit) == qx
        assert (qx == qy) == (x == y)
        # mixed int and Fraction operands
        i = rng.randint(-5, 5)
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert _pair(qx + i, d) == _pair(i + qx, d) == (x[0] + i, x[1])
        assert _pair(i - qx, d) == (i - x[0], -x[1])
        assert _pair(qx * f, d) == _pair(f * qx, d) == (x[0] * f, x[1] * f)
        assert _pair(qx * i, d) == (x[0] * i, x[1] * i)
        if f:
            assert _pair(qx / f, d) == (x[0] / f, x[1] / f)
        if any(x):
            assert _pair(f / qx, d) == _ref_div((f, Fraction(0)), x, d)
        # a rational value equals and hashes like its Fraction, whatever its radicand
        if not x[1]:
            assert qx == x[0] and x[0] == qx and hash(qx) == hash(x[0])
            other = QuadScalar(x[0], 0, 11)
            assert qx == other and hash(qx) == hash(other)
            assert _pair(other + qy, d) == (x[0] + y[0], y[1])
            if x[0].denominator == 1:
                assert qx == int(x[0]) and hash(qx) == hash(int(x[0]))


def test_rational_values_of_any_radicand_mix():
    assert QuadScalar(1, 0, 3) + QuadScalar(0, 1, 2) == QuadScalar(1, 1, 2)
    assert RATIONAL.coerce(Fraction(1, 2)) * QuadScalar(0, 2, 5) == QuadScalar(0, 1, 5)
    assert quadratic(2).coerce(QuadScalar(Fraction(1, 2), 0, 3)) == Fraction(1, 2)
    with pytest.raises(ContextMismatch):
        QuadScalar(0, 1, 3) * QuadScalar(0, 1, 2)
    with pytest.raises(ValueError):
        QuadScalar(1, 1, 4)  # not square-free


def test_comparison_with_floats_is_exact():
    one, tenth = RATIONAL.coerce(1), RATIONAL.coerce(Fraction(1, 10))
    assert one == 1.0 and hash(one) == hash(1.0) and one < 1.5 and one >= 0.5
    assert tenth != 0.1 and (tenth < 0.1) == (Fraction(1, 10) < 0.1)
    root2 = QuadScalar(0, 1, 2)
    assert root2 != math.sqrt(2) and root2 > 1.4142135 and root2 < 1.4142136
    assert (root2 > math.sqrt(2)) == (Decimal(2).sqrt() > Decimal(math.sqrt(2)))
    with pytest.raises(TypeError):
        one < math.inf  # non-finite floats are not compared
    with pytest.raises(TypeError):
        one + 0.5  # arithmetic with floats is not exact, so it is refused


def test_literals_of_the_context_radicand_are_not_revalidated(monkeypatch):
    ctx, other = quadratic(7), quadratic(2)
    calls = []
    real = scalar.is_square_free

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(scalar, "is_square_free", counted)
    values = [parse_literal(ctx, [f"{k}/3", str(1 - k), 7]) for k in range(20)]
    assert calls == []
    assert [(x.a, x.b, x.den, x.d) for x in values] == [
        (k, 3 - 3 * k, 3, 7) if k % 3 else (k // 3, 1 - k, 1, 7) for k in range(20)
    ]
    with pytest.raises(InvalidInput):  # another radicand is still checked
        parse_literal(other, [1, 1, 4])
    assert calls == [4]


def test_arithmetic_does_not_revalidate_the_radicand(monkeypatch):
    x, y = QuadScalar(1, 2, 2), QuadScalar(Fraction(1, 3), -1, 2)
    r = RATIONAL.coerce(Fraction(5, 7))

    def forbidden(d):
        raise AssertionError("is_square_free called by arithmetic")

    monkeypatch.setattr(scalar, "is_square_free", forbidden)
    values = [x * y + x / y - x**3, r * x, r / 2 + 1, -y, y.conjugate(), 1 / x]
    assert x < y or x >= y
    assert [v.floor() for v in values] and exact_sign(values[0]) in (-1, 0, 1)
    assert continued_fraction(x, 5)
