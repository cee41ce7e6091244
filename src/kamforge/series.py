"""Truncated Poisson-series algebra on the algebraic torus.

Elements live in K[q, q^-1][[p, t]], stored sparsely as a map from term
keys ``(I, J, k)`` (Laurent exponents of q, powers of p, power of t) to
exact scalars.  A :class:`TruncationSpec` fixes the finite window within
which every operation is exact: terms produced outside the window are
silently dropped and accounted in a module-level drop counter.

The bracket and the product group each operand's terms by (t-degree,
p-degree) on every call.  A pair of groups whose results all fall past Dt
or Dp is skipped without visiting its term pairs; only the q-bound is
tested term by term.  The drop counter gets, in closed form, every term
the whole operation would produce (|f| * |g| pairs for the product, a
census of each operand for the bracket) less the terms kept, so the count
stays exact.

Both kernels work on integers.  Each operand's coefficients are brought
over one common denominator D (the lcm of their denominators), so a
coefficient is (a + b*sqrt(d)) / D with integer a and b.  Every kept term
pair adds a plain integer pair to its output key, and each output term is
reduced to lowest terms once, at the end, over the denominator Df * Dg.
A key whose sum cancels is left out, so a result may list its keys in
another order than a term-by-term sum would; the series is the same.

The bracket convention is fixed once and for all:

* torus mode:       {p_j, q_k} = q_k delta_jk,
* symplectic mode:  {p_j, q_k} = delta_jk,

and flows exponentiate ``ad_S(f) = {f, S}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add

from .errors import ContextMismatch, GeneratorOrderViolation, InvalidInput
from .scalar import ScalarContext, _make, format_literal, parse_literal

__all__ = [
    "TruncationSpec",
    "PoissonSeries",
    "Generator",
    "poisson_bracket",
    "average",
    "flow_apply",
    "compose_flows",
    "drop_count",
    "reset_drop_count",
]

_MODES = ("torus", "symplectic")

# Terms falling outside the truncation window are dropped, not errors;
# the counter makes the loss observable (surfaced by the CLI reports).
_dropped = 0


def drop_count() -> int:
    return _dropped


def reset_drop_count() -> None:
    global _dropped
    _dropped = 0


def _note_drop(n: int = 1) -> None:
    global _dropped
    _dropped += n


@dataclass(frozen=True)
class TruncationSpec:
    """Hard sparse cutoff: max total p-degree, max t-degree, max |I|_sup."""

    n: int
    Dp: int
    Dt: int
    Nq: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if min(self.Dp, self.Dt, self.Nq) < 0:
            raise ValueError("truncation bounds must be >= 0")

    def admits(self, I, J, k) -> bool:
        return (
            k <= self.Dt
            and sum(J) <= self.Dp
            and all(-self.Nq <= i <= self.Nq for i in I)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "Dp": self.Dp, "Dt": self.Dt, "Nq": self.Nq}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncationSpec":
        return cls(n=obj["n"], Dp=obj["Dp"], Dt=obj["Dt"], Nq=obj["Nq"])


class PoissonSeries:
    """A sparse truncated element of K[q, q^-1][[p, t]].

    Immutable by convention: operations return new series.  Two series
    combine only if context, truncation and bracket mode all agree.
    """

    __slots__ = ("context", "trunc", "mode", "_terms")

    def __init__(self, context: ScalarContext, trunc: TruncationSpec, mode: str, terms=None):
        if mode not in _MODES:
            raise ValueError(f"unknown bracket mode {mode!r}")
        clean = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                I, J, k = key
                I, J = tuple(I), tuple(J)
                if len(I) != trunc.n or len(J) != trunc.n:
                    raise InvalidInput(f"key {key!r} has wrong dimension (n={trunc.n})")
                if any(j < 0 for j in J) or k < 0:
                    raise InvalidInput(f"key {key!r} has negative p- or t-exponents")
                if not trunc.admits(I, J, k):
                    raise InvalidInput(f"key {key!r} violates the truncation window")
                c = context.coerce(coeff)
                if c:
                    prev = clean.get((I, J, k))
                    c = c if prev is None else prev + c
                    if c:
                        clean[(I, J, k)] = c
                    else:
                        clean.pop((I, J, k), None)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonSeries is immutable")

    @classmethod
    def _raw(cls, context, trunc, mode, terms: dict) -> "PoissonSeries":
        out = object.__new__(cls)
        object.__setattr__(out, "context", context)
        object.__setattr__(out, "trunc", trunc)
        object.__setattr__(out, "mode", mode)
        object.__setattr__(out, "_terms", terms)
        return out

    def _like(self, terms: dict) -> "PoissonSeries":
        return PoissonSeries._raw(self.context, self.trunc, self.mode, terms)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, context, trunc, mode) -> "PoissonSeries":
        return cls(context, trunc, mode)

    @classmethod
    def monomial(cls, context, trunc, mode, coeff, I=None, J=None, k=0) -> "PoissonSeries":
        n = trunc.n
        I = tuple(I) if I is not None else (0,) * n
        J = tuple(J) if J is not None else (0,) * n
        return cls(context, trunc, mode, {(I, J, k): coeff})

    # -- inspection -----------------------------------------------------
    def items(self):
        return self._terms.items()

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, I, J=None, k=0):
        n = self.trunc.n
        I = tuple(I)
        J = tuple(J) if J is not None else (0,) * n
        return self._terms.get((I, J, k), self.context.zero)

    def min_t_degree(self):
        """Smallest t-exponent present, or None for the zero series."""
        if not self._terms:
            return None
        return min(k for (_, _, k) in self._terms)

    def support_I(self):
        return {I for (I, _, _) in self._terms}

    def select(self, pred) -> "PoissonSeries":
        """Sub-series of the terms whose key satisfies ``pred(I, J, k)``."""
        return self._like({key: c for key, c in self._terms.items() if pred(*key)})

    def t_part(self, k0: int) -> "PoissonSeries":
        return self.select(lambda I, J, k: k == k0)

    # -- ring operations -------------------------------------------------
    def _check(self, other: "PoissonSeries"):
        if (
            self.context != other.context
            or self.trunc != other.trunc
            or self.mode != other.mode
        ):
            raise ContextMismatch(
                "series combine only with equal context, truncation and mode"
            )

    def __add__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return self._like(terms)

    def __sub__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PoissonSeries):
            return self.scale(other)
        self._check(other)
        trunc = self.trunc
        Dt, Dp, Nq = trunc.Dt, trunc.Dp, trunc.Nq
        d = self.context.d or 0
        Df, left = _numerators(self)
        Dg, right = _numerators(other)
        kept = 0
        acc = {}
        for (k1, p1), A in left.items():
            for (k2, p2), B in right.items():
                k = k1 + k2
                if k > Dt or p1 + p2 > Dp:
                    continue
                for I1, J1, a1, b1 in A:
                    for I2, J2, a2, b2 in B:
                        I = tuple(map(add, I1, I2))
                        if min(I) < -Nq or max(I) > Nq:
                            continue
                        kept += 1
                        key = (I, tuple(map(add, J1, J2)), k)
                        x = a1 * a2 + d * b1 * b2
                        y = a1 * b2 + a2 * b1
                        s = acc.get(key)
                        if s is None:
                            acc[key] = [x, y]
                        else:
                            s[0] += x
                            s[1] += y
        _note_drop(len(self) * len(other) - kept)
        return self._like(_normalize(acc, Df * Dg, d))

    def __rmul__(self, other):
        if isinstance(other, PoissonSeries):
            return NotImplemented
        return self.scale(other)

    def scale(self, scalar) -> "PoissonSeries":
        c0 = self.context.coerce(scalar)
        if not c0:
            return self._like({})
        return self._like({key: c * c0 for key, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return (
            self.context == other.context
            and self.trunc == other.trunc
            and self.mode == other.mode
            and self._terms == other._terms
        )

    __hash__ = None

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        terms = [
            [list(I), list(J), k, format_literal(self.context, c)]
            for (I, J, k), c in sorted(self._terms.items())
        ]
        return {
            "n": self.trunc.n,
            "context": self.context.to_json(),
            "trunc": self.trunc.to_json(),
            "mode": self.mode,
            "terms": terms,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PoissonSeries":
        ctx = ScalarContext.from_json(obj["context"])
        trunc = TruncationSpec.from_json(obj["trunc"])
        terms = [
            ((tuple(I), tuple(J), k), parse_literal(ctx, lit))
            for I, J, k, lit in obj["terms"]
        ]
        return cls(ctx, trunc, obj["mode"], terms)

    def __repr__(self):
        return (
            f"PoissonSeries(mode={self.mode!r}, {len(self._terms)} terms, "
            f"trunc={self.trunc})"
        )

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (I, J, k), c in sorted(self._terms.items()):
            factors = [f"({c})"]
            for j, e in enumerate(I):
                if e:
                    factors.append(f"q{j + 1}^{e}")
            for j, e in enumerate(J):
                if e:
                    factors.append(f"p{j + 1}^{e}")
            if k:
                factors.append(f"t^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _numerators(f: PoissonSeries) -> tuple[int, dict]:
    """A common denominator D of f's coefficients, and f's terms as
    (I, J, a, b) lists keyed by (t-degree, p-degree), where each
    coefficient is (a + b*sqrt(d)) / D."""
    terms = f._terms
    D = lcm(*(c.den for c in terms.values()))
    buckets = {}
    for (I, J, k), c in terms.items():
        m = D // c.den
        buckets.setdefault((k, sum(J)), []).append((I, J, c.a * m, c.b * m))
    return D, buckets


def _normalize(acc: dict, den: int, d: int) -> dict:
    """The integer pairs (A, B) of acc as scalars (A + B*sqrt(d)) / den,
    without the keys whose sum cancelled."""
    return {key: _make(A, B, den, d) for key, (A, B) in acc.items() if A or B}


def _census(f: PoissonSeries) -> list:
    """Per coordinate j: the number of f's terms whose (I_j, J_j) vector is
    zero and the count of each primitive direction of the others, up to sign."""
    out = []
    for j in range(f.trunc.n):
        zeros = 0
        dirs = {}
        for I, J, _ in f._terms:
            a, b = I[j], J[j]
            if b:
                g = gcd(a, b)
                d = (a // g, b // g)  # J_j > 0 fixes the sign
            elif a:
                d = (1, 0)
            else:
                zeros += 1
                continue
            dirs[d] = dirs.get(d, 0) + 1
        out.append((zeros, dirs))
    return out


def _bracket_terms(f: PoissonSeries, g: PoissonSeries) -> int:
    """Terms the bracket of f and g produces before any window cut: one per
    pair of terms and coordinate j whose (I_j, J_j) vectors are not parallel."""
    size = len(f) * len(g)
    out = 0
    for (zA, dA), (zB, dB) in zip(_census(f), _census(g)):
        parallel = zA * len(g) + zB * len(f) - zA * zB
        if len(dA) > len(dB):  # the sum is symmetric: walk the smaller map
            dA, dB = dB, dA
        parallel += sum(m * dB.get(d, 0) for d, m in dA.items())
        out += size - parallel
    return out


def poisson_bracket(f: PoissonSeries, g: PoissonSeries) -> PoissonSeries:
    """The bracket {f, g}, exact within the truncation window.

    Torus mode computes sum_j (d_pj f * q_j d_qj g - q_j d_qj f * d_pj g);
    symplectic mode replaces q_j d_qj by d_qj.  t is central.

    A pair of terms of t-degrees k1, k2 and p-degrees |J1|, |J2| yields
    terms of t-degree k1 + k2 and p-degree |J1| + |J2| - 1, so the pairs
    of (t, p)-buckets that land outside the window are never visited.
    Every term a visited pair yields lies inside the t- and p-window, so
    the drops are the terms of the whole bracket (``_bracket_terms``, from
    one census per operand) less the terms kept.

    A kept pair of terms (a1 + b1*sqrt(d)) / Df and (a2 + b2*sqrt(d)) / Dg
    with weight w adds w*(a1*a2 + d*b1*b2) and w*(a1*b2 + a2*b1) to its
    output key (see the module docstring for the denominators and the
    key order).
    """
    f._check(g)
    trunc = f.trunc
    n, Dt, Dp, Nq = trunc.n, trunc.Dt, trunc.Dp, trunc.Nq
    torus = f.mode == "torus"
    d = f.context.d or 0
    Df, left = _numerators(f)
    Dg, right = _numerators(g)
    kept = 0
    acc = {}
    for (k1, p1), A in left.items():
        for (k2, p2), B in right.items():
            k = k1 + k2
            if k > Dt or p1 + p2 - 1 > Dp:
                continue
            for I1, J1, a1, b1 in A:
                for I2, J2, a2, b2 in B:
                    x = None
                    for j in range(n):
                        w = J1[j] * I2[j] - I1[j] * J2[j]
                        if not w:
                            continue
                        I = list(map(add, I1, I2))
                        if not torus:
                            I[j] -= 1
                        if min(I) < -Nq or max(I) > Nq:
                            continue
                        kept += 1
                        J = list(map(add, J1, J2))
                        J[j] -= 1
                        key = (tuple(I), tuple(J), k)
                        if x is None:
                            x = a1 * a2 + d * b1 * b2
                            y = a1 * b2 + a2 * b1
                        s = acc.get(key)
                        if s is None:
                            acc[key] = [w * x, w * y]
                        else:
                            s[0] += w * x
                            s[1] += w * y
    _note_drop(_bracket_terms(f, g) - kept)
    return f._like(_normalize(acc, Df * Dg, d))


def average(f: PoissonSeries) -> PoissonSeries:
    """Torus average: keeps exactly the terms with I = 0."""
    zero_I = (0,) * f.trunc.n
    return f.select(lambda I, J, k: I == zero_I)


@dataclass(frozen=True)
class Generator:
    """A flow generator: a Hamiltonian S (inner) or a translation shift.

    Hamiltonian generators require min t-degree >= 1 in S so the
    exponential is nilpotent modulo truncation; translations replace
    p_j by p_j + d_j t^order with order >= 1.
    """

    kind: str
    S: PoissonSeries | None = None
    order: int = 0
    shift: tuple = ()

    @staticmethod
    def hamiltonian(S: PoissonSeries) -> "Generator":
        mt = S.min_t_degree()
        if mt is not None and mt < 1:
            raise GeneratorOrderViolation(
                "hamiltonian generator must have min t-degree >= 1"
            )
        return Generator(kind="hamiltonian", S=S)

    @staticmethod
    def translation(order: int, shift, context: ScalarContext) -> "Generator":
        if order < 1:
            raise GeneratorOrderViolation("translation order must be >= 1")
        return Generator(
            kind="translation",
            order=order,
            shift=tuple(context.coerce(x) for x in shift),
        )

    def inverse(self) -> "Generator":
        if self.kind == "hamiltonian":
            return Generator(kind="hamiltonian", S=-self.S)
        return Generator(kind="translation", order=self.order, shift=tuple(-x for x in self.shift))

    def to_json(self, context: ScalarContext) -> dict:
        if self.kind == "hamiltonian":
            return {"kind": "hamiltonian", "S": self.S.to_json()}
        return {
            "kind": "translation",
            "order": self.order,
            "d": [format_literal(context, x) for x in self.shift],
        }


def _apply_hamiltonian_flow(S: PoissonSeries, f: PoissonSeries) -> PoissonSeries:
    f._check(S)
    out = f
    term = f
    m = 1
    # each ad_S raises every t-degree by >= 1, so this terminates
    while True:
        term = poisson_bracket(term, S).scale(Fraction(1, m))
        if term.is_zero():
            break
        out = out + term
        m += 1
        if m > f.trunc.Dt + 1:
            break
    return out


def _apply_translation_flow(order: int, shift, f: PoissonSeries) -> PoissonSeries:
    trunc = f.trunc
    n = trunc.n
    if len(shift) != n:
        raise ValueError(f"translation shift has length {len(shift)}, expected {n}")
    one = f.context.one
    acc = {}
    for (I, J, k), c in f._terms.items():
        partial = [(tuple(), k, c)]
        for j in range(n):
            dj = shift[j]
            Jj = J[j]
            if not dj or Jj == 0:
                partial = [(Jp + (Jj,), kk, cc) for (Jp, kk, cc) in partial]
                continue
            nxt = []
            for (Jp, kk, cc) in partial:
                dpow = one
                for m in range(Jj + 1):
                    kk2 = kk + order * m
                    if kk2 > trunc.Dt:
                        _note_drop()
                    else:
                        nxt.append((Jp + (Jj - m,), kk2, cc * comb(Jj, m) * dpow))
                    dpow = dpow * dj
            partial = nxt
        for (Jnew, kk, cc) in partial:
            key = (I, Jnew, kk)
            s = acc.get(key)
            s = cc if s is None else s + cc
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return f._like(acc)


def flow_apply(gen: Generator, f: PoissonSeries) -> PoissonSeries:
    """Apply the formal flow of a generator; a central Poisson automorphism.

    Hamiltonian: sum_m (1/m!) ad_S^m(f).  Translation: the substitution
    p_j -> p_j + d_j t^order, expanded and truncated.  Both are inverted
    by negating the generator.
    """
    if gen.kind == "hamiltonian":
        return _apply_hamiltonian_flow(gen.S, f)
    if gen.kind == "translation":
        return _apply_translation_flow(gen.order, gen.shift, f)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def compose_flows(gens, f: PoissonSeries) -> PoissonSeries:
    """Left-to-right application of flows; the oracle for normal forms."""
    out = f
    for gen in gens:
        out = flow_apply(gen, out)
    return out
