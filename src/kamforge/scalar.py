"""Exact coefficient arithmetic.

Three scalar contexts are supported:

* ``rational``   -- arbitrary-precision rationals (``fractions.Fraction``),
* ``quadratic``  -- the real quadratic field Q(sqrt(d)) for a square-free
  integer d >= 2, represented by :class:`QuadScalar`,
* ``float64``    -- plain machine floats for the numeric modules.

All comparisons in the exact contexts are decided by integer arithmetic
(never by floating approximation), and every exact value can be turned
into a :class:`CertifiedDecimal`, a float together with a rigorous error
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ContextMismatch, DivisionByZero, InvalidInput, RationalInput

__all__ = [
    "ScalarContext",
    "QuadScalar",
    "CertifiedDecimal",
    "exact_sign",
    "exact_floor",
    "continued_fraction",
    "convergents",
    "parse_literal",
    "format_literal",
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


class QuadScalar:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    ``a`` and ``b`` are exact rationals and ``d`` is a fixed square-free
    integer >= 2 shared by every scalar of one context.  Values are
    immutable; arithmetic with ints and Fractions coerces them into the
    same field.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if d < 2 or not is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {d}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    # -- coercion -----------------------------------------------------
    def _wrap(self, other):
        if isinstance(other, QuadScalar):
            if other.d != self.d:
                raise ContextMismatch(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(other, 0, self.d)
        return None

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadScalar":
        return QuadScalar(self.a, -self.b, self.d)

    # -- ring/field operations ---------------------------------------
    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            # d square-free: a^2 = d b^2 forces a = b = 0
            raise DivisionByZero("division by zero in Q(sqrt(d))")
        num = self * o.conjugate()
        return QuadScalar(num.a / norm, num.b / norm, self.d)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QuadScalar(1, 0, self.d) / self) ** (-n)
        out = QuadScalar(1, 0, self.d)
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
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def exact_sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), decided exactly."""
        sa, sb = _sign(self.a), _sign(self.b)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb if sa == 0 else sa
        # opposite signs: |a| vs |b| sqrt(d)  <=>  a^2 vs d b^2
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:  # impossible for b != 0, kept for safety
            return 0
        return sa if lhs > rhs else sb

    def _cmp(self, other) -> int:
        o = self._wrap(other)
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
        """Exact floor, via integer square roots and sign checks."""
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        # write x = (P + Q sqrt(d)) / R with R > 0
        qa, qb = self.a, self.b
        R = qa.denominator * qb.denominator
        P = qa.numerator * qb.denominator
        Q = qb.numerator * qa.denominator
        t = Q * Q * self.d
        if Q > 0:
            fq = isqrt(t)
        else:
            fq = -isqrt(t) - 1  # Q sqrt(d) is irrational here
        m = (P + fq) // R
        while (self - (m + 1)).exact_sign() >= 0:
            m += 1
        while (self - m).exact_sign() < 0:
            m -= 1
        return m

    def __float__(self):
        from math import sqrt

        return float(self.a) + float(self.b) * sqrt(self.d)

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, d={self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"


_MODES = ("rational", "quadratic", "float64")


@dataclass(frozen=True)
class ScalarContext:
    """The shared coefficient field of one computation.

    Mixing values of distinct contexts raises :class:`ContextMismatch`;
    a context coerces ints, Fractions and literals into its own value
    type (``Fraction``, :class:`QuadScalar` or ``float``).
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
        if self.mode == "rational":
            if isinstance(value, QuadScalar):
                if not value.is_rational:
                    raise ContextMismatch("irrational value in rational context")
                return value.a
            if isinstance(value, float) and not value.is_integer():
                raise ContextMismatch("float value in rational context")
            return Fraction(value)
        if self.mode == "quadratic":
            if isinstance(value, QuadScalar):
                if value.d != self.d:
                    raise ContextMismatch(
                        f"value from Q(sqrt({value.d})) in Q(sqrt({self.d}))"
                    )
                return value
            return QuadScalar(Fraction(value), 0, self.d)
        # float64
        if isinstance(value, QuadScalar):
            return float(value)
        return float(value)

    def sqrt_d(self):
        """The generator sqrt(d) of a quadratic context."""
        if self.mode != "quadratic":
            raise ContextMismatch("sqrt(d) only exists in a quadratic context")
        return QuadScalar(0, 1, self.d)

    def sign(self, value) -> int:
        return exact_sign(value)

    def to_json(self) -> dict:
        out = {"mode": self.mode}
        if self.d is not None:
            out["d"] = self.d
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ScalarContext":
        return cls(mode=obj["mode"], d=obj.get("d"))


RATIONAL = ScalarContext("rational")
FLOAT64 = ScalarContext("float64")


def quadratic(d: int) -> ScalarContext:
    return ScalarContext("quadratic", d)


def exact_sign(x) -> int:
    """Sign in {-1, 0, +1}; exact for rationals and quadratic scalars."""
    if isinstance(x, QuadScalar):
        return x.exact_sign()
    return _sign(x)


def exact_floor(x) -> int:
    if isinstance(x, QuadScalar):
        return x.floor()
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, int):
        return x
    raise TypeError(f"no exact floor for {type(x)!r}")


def continued_fraction(x: QuadScalar, k: int) -> list[int]:
    """First ``k`` partial quotients of the regular continued fraction of x.

    Requires x > 0 irrational (b != 0); every floor/invert step is exact.
    """
    if not isinstance(x, QuadScalar):
        raise TypeError("continued_fraction expects a QuadScalar")
    if x.is_rational:
        raise RationalInput("continued fractions are computed for irrationals only")
    if x.exact_sign() <= 0:
        raise ValueError("continued_fraction expects a positive argument")
    out = []
    cur = x
    for _ in range(k):
        a = cur.floor()
        out.append(a)
        cur = QuadScalar(1, 0, x.d) / (cur - a)  # fractional part never vanishes
    return out


def convergents(quotients: list[int]) -> list[tuple[int, int]]:
    """Convergent pairs (p_k, q_k) of a partial-quotient sequence."""
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in quotients:
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        out.append((p0, q0))
    return out


# ---------------------------------------------------------------------------
# certified real approximations


def rational_bounds(x, digits: int = 30) -> tuple[Fraction, Fraction]:
    """An exact rational interval [lo, hi] containing x."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f, f
    if isinstance(x, float):
        f = Fraction(x)
        return f, f
    if isinstance(x, QuadScalar):
        scale = 10**digits
        r = isqrt(x.d * scale * scale)
        lo_rt, hi_rt = Fraction(r, scale), Fraction(r + 1, scale)
        if x.b >= 0:
            return x.a + x.b * lo_rt, x.a + x.b * hi_rt
        return x.a + x.b * hi_rt, x.a + x.b * lo_rt
    raise TypeError(f"no rational bounds for {type(x)!r}")


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


def certified_root(power_value, power: int) -> CertifiedDecimal:
    """Certified decimal for x = power_value ** (1/power), power_value >= 0 exact."""
    if power < 1:
        raise ValueError("power must be >= 1")
    lo, hi = rational_bounds(power_value)
    if hi == 0:
        return CertifiedDecimal(0.0, 0.0)
    if lo < 0:
        lo = Fraction(0)
    value = float(hi) ** (1.0 / power)
    err = max(1e-14 * value, (float(hi) - float(lo)) + 1e-300)
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
    if ctx.mode == "rational":
        f = ctx.coerce(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if ctx.mode == "quadratic":
        q = ctx.coerce(x)
        return [format_literal(RATIONAL, q.a), format_literal(RATIONAL, q.b), q.d]
    return float(x)


def parse_literal(ctx: ScalarContext, obj):
    """Read a literal into ``ctx``; a malformed literal raises InvalidInput."""
    try:
        if ctx.mode == "float64":
            return float(obj)
        if isinstance(obj, list):
            if len(obj) != 3:
                raise ValueError("a quadratic literal is [a, b, d]")
            value = QuadScalar(Fraction(str(obj[0])), Fraction(str(obj[1])), int(obj[2]))
        elif isinstance(obj, (str, int)):
            value = Fraction(obj)
        else:
            raise ValueError("not a scalar literal")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        msg = f"cannot parse scalar literal {obj!r} in mode {ctx.mode}: {exc}"
        raise InvalidInput(msg) from None
    return ctx.coerce(value)
