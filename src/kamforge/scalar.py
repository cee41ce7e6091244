"""Exact coefficient arithmetic.

Two scalar contexts are supported, and both are exact:

* ``rational``   -- the rational numbers Q,
* ``quadratic``  -- the real quadratic field Q(sqrt(d)) for a square-free
  integer d >= 2 and at most 2**40; d is checked once per field, when the
  context or a value of another field is built.

Both share one value type, :class:`QuadScalar`: an integer
triple (a, b, den) standing for (a + b*sqrt(d)) / den, in lowest terms, so
that a rational is the case b = 0.  All comparisons are decided by integer
arithmetic (never by floating approximation), and every exact value can be
turned into a :class:`CertifiedDecimal`, a float together with a rigorous
error bound.  ``fractions.Fraction`` is kept only for exact values that
belong to no context (exponents, Liouville sums, Monte-Carlo rechecks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isfinite, isqrt, lcm, ldexp, sqrt

from .errors import ContextMismatch, DivisionByZero, InvalidInput, RationalInput

__all__ = [
    "ScalarContext",
    "QuadScalar",
    "CertifiedDecimal",
    "exact_sign",
    "continued_fraction",
    "convergents",
    "parse_literal",
    "format_literal",
]


def is_square_free(d: int) -> bool:
    if d > 2**40:  # the radicand limit: at most 2**20 trial divisions
        raise InvalidInput(f"radicand {d} is above the limit 2**40")
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def _ratlit(num: int, den: int) -> str:
    """The literal "num/den" in lowest terms, or "num" for an integer."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class QuadScalar:
    """An element (a + b*sqrt(d)) / den of Q(sqrt(d)), or of Q when b = 0.

    ``a``, ``b`` and ``den`` are integers with den > 0 and
    gcd(a, b, den) = 1, so equal values have equal triples.  ``d`` is the
    radicand of the value's context: a square-free integer >= 2, or 0 in
    the rational context.  A value with b = 0 combines with, equals and
    hashes like the same rational of any radicand, int or Fraction; two
    irrational values of different radicands do not mix.  Values are
    immutable.  The constructor takes rational ``a`` and ``b`` and checks
    ``d``; arithmetic results skip that check.
    """

    __slots__ = ("a", "b", "den", "d")

    def __init__(self, a, b, d: int):
        if d < 2 or not is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {d}")
        a, b = Fraction(a), Fraction(b)
        den = lcm(a.denominator, b.denominator)
        object.__setattr__(self, "a", a.numerator * (den // a.denominator))
        object.__setattr__(self, "b", b.numerator * (den // b.denominator))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    # -- coercion -----------------------------------------------------
    def _operand(self, other):
        """``other`` as a QuadScalar, or None for a foreign type."""
        if isinstance(other, QuadScalar):
            if other.d != self.d and other.b and self.b:
                raise ContextMismatch(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
            return other
        if isinstance(other, int):
            return _make(other, 0, 1, self.d)
        if isinstance(other, Fraction):
            return _make(other.numerator, 0, other.denominator, self.d)
        return None

    def conjugate(self) -> "QuadScalar":
        return _make(self.a, -self.b, self.den, self.d)

    # -- ring/field operations ---------------------------------------
    # A result takes the radicand of its irrational operand, if any.
    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n1, n2 = self.den, o.den
        d = o.d if o.b else self.d
        return _make(self.a * n2 + o.a * n1, self.b * n2 + o.b * n1, n1 * n2, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.den, self.d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n1, n2 = self.den, o.den
        d = o.d if o.b else self.d
        return _make(self.a * n2 - o.a * n1, self.b * n2 - o.b * n1, n1 * n2, d)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        d = o.d if b2 else self.d
        return _make(a1 * a2 + d * b1 * b2, a1 * b2 + a2 * b1, self.den * o.den, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        d = o.d if b2 else self.d
        # x / y = x * conj(y) * den_y / norm(y); d square-free: norm = 0 forces y = 0
        norm = a2 * a2 - d * b2 * b2
        if norm == 0:
            raise DivisionByZero("division by zero in Q(sqrt(d))")
        n2 = o.den if norm > 0 else -o.den
        return _make((a1 * a2 - d * b1 * b2) * n2, (b1 * a2 - a1 * b2) * n2, self.den * abs(norm), d)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        out = _make(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return (
                self.a == other.a
                and self.b == other.b
                and self.den == other.den
                and (not self.b or self.d == other.d)
            )
        if isinstance(other, int):
            return not self.b and self.den == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator and self.den == other.denominator
        if isinstance(other, float):  # exact, as Fraction compares with float
            return not self.b and Fraction(self.a, self.den) == other
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.den, self.d))
        return hash(Fraction(self.a, self.den))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def exact_sign(self) -> int:
        """Sign of the real number (a + b*sqrt(d)) / den, decided exactly."""
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        # opposite signs: |a| vs |b| sqrt(d)  <=>  a^2 vs d b^2, never equal for b != 0
        return sa if a * a > self.d * b * b else sb

    def _cmp(self, other) -> int:
        if isinstance(other, float) and isfinite(other):
            other = Fraction(other)  # the float's exact value
        o = self._operand(other)
        if o is None:
            raise TypeError(f"cannot compare QuadScalar with {type(other)!r}")
        return (self - o).exact_sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self) -> int:
        """Exact floor, via one integer square root.

        With f = floor(b sqrt(d)), the numerator lies in [a + f, a + f + 1),
        so the floor is (a + f) // den; b sqrt(d) is irrational for b != 0.
        """
        r = isqrt(self.b * self.b * self.d)
        return (self.a + (r if self.b >= 0 else -r - 1)) // self.den

    def __float__(self):
        return self.a / self.den + self.b / self.den * sqrt(self.d)

    def __repr__(self):
        return f"QuadScalar({_ratlit(self.a, self.den)!r}, {_ratlit(self.b, self.den)!r}, d={self.d})"

    def __str__(self):
        a, b = _ratlit(self.a, self.den), _ratlit(self.b, self.den)
        if not self.b:
            return a
        if not self.a:
            return f"{b}*sqrt({self.d})"
        return f"{a} + {b}*sqrt({self.d})"


def _make(a: int, b: int, den: int, d: int) -> QuadScalar:
    """(a + b sqrt(d)) / den in lowest terms, for den > 0 and a trusted d."""
    g = gcd(a, b, den)
    a, b, den = a // g, b // g, den // g
    x = object.__new__(QuadScalar)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    object.__setattr__(x, "den", den)
    object.__setattr__(x, "d", d)
    return x


_MODES = ("rational", "quadratic")


@dataclass(frozen=True)
class ScalarContext:
    """The shared coefficient field of one computation.

    Mixing irrational values of distinct fields raises
    :class:`ContextMismatch`; a context coerces ints, Fractions and
    literals into its one value type, :class:`QuadScalar`.
    """

    mode: str
    d: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidInput(f"unknown scalar mode {self.mode!r}")
        if self.mode == "quadratic":
            if self.d is None or self.d < 2 or not is_square_free(self.d):
                raise InvalidInput("quadratic context needs a square-free d >= 2")
        elif self.d is not None:
            raise InvalidInput(f"mode {self.mode!r} takes no radicand")

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        """Bring ``value`` into this context's scalar type."""
        d = self.d or 0
        if isinstance(value, QuadScalar):
            if value.d == d:
                return value
            if value.b:
                field = f"Q(sqrt({d}))" if d else "Q"
                raise ContextMismatch(f"value from Q(sqrt({value.d})) in {field}")
            return _make(value.a, 0, value.den, d)
        if isinstance(value, int):
            return _make(value, 0, 1, d)
        if isinstance(value, float) and not value.is_integer():
            raise ContextMismatch(f"float value in {self.mode} context")
        f = value if isinstance(value, Fraction) else Fraction(value)
        return _make(f.numerator, 0, f.denominator, d)

    def sqrt_d(self):
        """The generator sqrt(d) of a quadratic context."""
        if self.mode != "quadratic":
            raise ContextMismatch("sqrt(d) only exists in a quadratic context")
        return _make(0, 1, 1, self.d)

    def to_json(self) -> dict:
        out = {"mode": self.mode}
        if self.d is not None:
            out["d"] = self.d
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ScalarContext":
        return cls(mode=obj["mode"], d=obj.get("d"))


RATIONAL = ScalarContext("rational")


def quadratic(d: int) -> ScalarContext:
    return ScalarContext("quadratic", d)


def exact_sign(x) -> int:
    """Sign in {-1, 0, +1}; exact for every exact value."""
    return x.exact_sign() if isinstance(x, QuadScalar) else (x > 0) - (x < 0)


def continued_fraction(x: QuadScalar, k: int) -> list[int]:
    """First ``k`` partial quotients of the regular continued fraction of x.

    Requires x > 0 irrational (b != 0); every floor/invert step is exact.
    """
    if not isinstance(x, QuadScalar):
        raise TypeError("continued_fraction expects a QuadScalar")
    if not x.b:
        raise RationalInput("continued fractions are computed for irrationals only")
    if x.exact_sign() <= 0:
        raise ValueError("continued_fraction expects a positive argument")
    return list(islice(_partial_quotients(x), k))


def convergents(quotients: list[int]) -> list[tuple[int, int]]:
    """Convergent pairs (p_k, q_k) of a partial-quotient sequence."""
    return list(_convergent_pairs(quotients))


def _partial_quotients(x):
    """Partial quotients a_0 = floor(x), a_1, ... of an exact real x of any sign, each
    complete quotient inverted exactly; only a rational's expansion ends, so read lazily."""
    while True:
        a = x.floor()
        yield a
        x = x - a
        if not x:
            return
        x = 1 / x


def _convergent_pairs(quotients):
    """Convergents (p_k, q_k) of the quotients, lazily: for those of x, q_0 = 1 <= q_1 <
    q_2 < ..., and a rational x ends with p_k / q_k = x."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in quotients:
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        yield p0, q0


# ---------------------------------------------------------------------------
# certified real approximations


def integer_bounds(a: int, b: int, d: int, den: int) -> tuple[int, int, int]:
    """Integers lo, hi and D > 0 with lo/D <= (a + b*sqrt(d))/den <= hi/D, for den > 0.

    A high power of a quadratic irrational is small with huge a and b that
    cancel, so the digits of sqrt(d) are doubled, from 30, until the
    interval excludes 0 (an irrational number is not 0) and its width |b|/D
    is at most 1e-20 * |lo/D|.  Both are integer tests on the numerators
    (lo > 0 or hi < 0, and |b| * 10**20 <= |lo|), and neither depends on
    whether (a, b, den) is in lowest terms.  For b = 0 the bounds are
    exact: (a, a, den).
    """
    if not b:
        return a, a, den
    digits = 30
    while True:
        scale = 10**digits
        r = isqrt(d * scale * scale)  # r <= sqrt(d) * scale < r + 1
        lo = a * scale + b * r
        hi = lo + b
        if b < 0:
            lo, hi = hi, lo
        if (lo > 0 or hi < 0) and abs(b) * 10**20 <= abs(lo):
            return lo, hi, den * scale
        digits *= 2


def rational_bounds(x) -> tuple[Fraction, Fraction]:
    """An exact rational interval [lo, hi] containing x, of width at most 1e-20 * |lo|.

    A rational x gives [x, x]; a QuadScalar gives ``integer_bounds`` of
    its triple as Fractions.
    """
    if not isinstance(x, QuadScalar):
        f = Fraction(x)
        return f, f
    lo, hi, D = integer_bounds(x.a, x.b, x.d, x.den)
    return Fraction(lo, D), Fraction(hi, D)


@dataclass(frozen=True)
class CertifiedDecimal:
    """A float approximation together with a rigorous error bound."""

    value: float
    err: float

    def to_json(self) -> list[float]:
        return [self.value, self.err]

    @classmethod
    def from_exact(cls, x) -> "CertifiedDecimal":
        lo, hi = rational_bounds(x)
        mid = (lo + hi) / 2
        value = float(mid)
        err = 1e-15 * (abs(value) + 1e-300) + float(hi - lo)
        while not (Fraction(value) - Fraction(err) <= lo and hi <= Fraction(value) + Fraction(err)):
            err *= 2
        return cls(value, err)


def root_value(num: int, den: int, power: int) -> float:
    """The float (num/den) ** (1/power) for integers num, den > 0, also past the float range.

    num/den is rounded to the nearest float by Python's correctly rounded
    int/int division, so any representation of one rational gives the same
    value.  When that float is 0 or overflows, num/den = m * 2^L with m in
    [1/2, 2) is rooted as m^(1/power) * 2^(L/power).
    """
    try:
        value = (num / den) ** (1.0 / power)
    except OverflowError:
        value = 0.0
    if not value:
        x = Fraction(num, den)
        L = x.numerator.bit_length() - x.denominator.bit_length()
        e, r = divmod(L, power)
        value = ldexp(float(x / Fraction(2) ** L) ** (1.0 / power) * 2.0 ** (r / power), e)
    return value


def certified_root(power_value, power: int) -> CertifiedDecimal:
    """Certified decimal for x = power_value ** (1/power), power_value >= 0 exact.

    The value is ``root_value`` of the upper end of ``rational_bounds``;
    the error then doubles, from 1e-14 of the value, until the interval it
    spans, raised to ``power``, contains [lo, hi].  A caller that wants
    only the value calls ``root_value`` and skips that loop.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    lo, hi = rational_bounds(power_value)
    if hi == 0:
        return CertifiedDecimal(0.0, 0.0)
    if lo < 0:
        lo = Fraction(0)
    value = root_value(hi.numerator, hi.denominator, power)
    err = max(1e-14 * value, 1e-300)
    while True:
        vlo = Fraction(value) - Fraction(err)
        vhi = Fraction(value) + Fraction(err)
        if vlo < 0:
            vlo = Fraction(0)
        if vlo**power <= lo and hi <= vhi**power:
            return CertifiedDecimal(value, err)
        err *= 2


# ---------------------------------------------------------------------------
# textual literals ("num/den" for rationals, [a, b, d] for a + b sqrt(d))


def format_literal(ctx: ScalarContext, x):
    q = ctx.coerce(x)
    return literal_of(ctx, q.a, q.b, q.den)


def literal_of(ctx: ScalarContext, a: int, b: int, den: int):
    """The literal of (a + b*sqrt(d)) / den in ``ctx``, for den > 0."""
    num = _ratlit(a, den)
    return num if ctx.mode == "rational" else [num, _ratlit(b, den), ctx.d]


def parse_literal(ctx: ScalarContext, obj):
    """Read a literal into ``ctx``; a malformed literal raises InvalidInput.  An
    [a, b, d] of the context's own d is built from it; only another d is checked."""
    try:
        if isinstance(obj, list):
            if len(obj) != 3:
                raise ValueError("a quadratic literal is [a, b, d]")
            a, b, d = Fraction(str(obj[0])), Fraction(str(obj[1])), int(obj[2])
            value = ctx.coerce(a) + ctx.coerce(b) * ctx.sqrt_d() if d == ctx.d else QuadScalar(a, b, d)
        elif isinstance(obj, (str, int)):
            value = Fraction(obj)
        else:
            raise ValueError("not a scalar literal")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        msg = f"cannot parse scalar literal {obj!r} in mode {ctx.mode}: {exc}"
        raise InvalidInput(msg) from None
    return ctx.coerce(value)
