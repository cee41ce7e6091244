"""Truncated Poisson-series algebra on the algebraic torus.

Elements live in K[q, q^-1][[p, t]]: finite sums of terms c q^I p^J t^k
with Laurent exponents I of q, powers J of p and a power k of t.  A
:class:`TruncationSpec` fixes the finite window within which every
operation is exact: terms produced outside the window are silently
dropped and accounted in a module-level drop counter.

Storage.  A series keeps one positive integer denominator D and a map
from packed keys to integer pairs (a, b); the coefficient of a term is
(a + b*sqrt(d)) / D, with b = 0 in the rational context.  Every operation
ends by dividing out the gcd of D and all numerators, and no pair is
(0, 0).  This form is canonical: equal series have equal storage, so
``==`` compares it directly, and each coefficient is the lowest-terms
value over the least common denominator.  :class:`QuadScalar` values
appear only at the edge (the term-dict constructor, ``coefficient``,
``items`` and JSON); the bracket, the product, sums, scaling and
both flows run on the integers.

Key packing.  A key (I, J, k) is packed into one int (Kronecker
substitution): 2n + 1 fields of w bits, I_1 .. I_n from the top, then
J_1 .. J_n, then k in the lowest field, so that integer order is the
order of (I, J, k).  An I field holds I_j + 2Nq + 1 and J and k fields
hold their values; w leaves one spare top bit in every I field.  The key
of a product term is then P1 + P2 - base, and of a bracket term the same
less the unit of J_j (and, in symplectic mode, of I_j).  The q-window
test reads every I field at once from the spare bits after adding two
constants.  Keys are decoded once per window, by the memo ``_Keys``.  A
series builds its view on first use, in one walk over its terms, and
keeps it: the terms grouped by (t-degree, p-degree) and the census the
bracket's drop count needs.

The bracket and the product work group by group.  A pair of groups whose
results all fall past Dt or Dp is skipped without visiting its term
pairs; only the q-bound is tested term by term.  The drop counter gets,
in closed form, every term the whole operation would produce (|f| * |g|
pairs for the product, a census of each operand for the bracket) less
the terms kept, so the count stays exact.  Every kept term pair adds a
plain integer pair to its output key over the denominator Df * Dg, and
the result is reduced once.

The bracket convention is fixed once and for all:

* torus mode:       {p_j, q_k} = q_k delta_jk,
* symplectic mode:  {p_j, q_k} = delta_jk,

and flows exponentiate ``ad_S(f) = {f, S}``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import comb, gcd, lcm

from .errors import ContextMismatch, GeneratorOrderViolation, InvalidInput
from .scalar import ScalarContext, _make, format_literal, literal_of, parse_literal

__all__ = [
    "TruncationSpec",
    "PoissonSeries",
    "Generator",
    "poisson_bracket",
    "average",
    "flow_apply",
    "compose_flows",
    "drop_count",
]

_MODES = ("torus", "symplectic")

# Terms falling outside the truncation window are dropped, not errors; the
# counter makes the loss observable and only counts up: callers take differences.
_dropped = 0


def drop_count() -> int:
    return _dropped


def _note_drop(n: int) -> None:
    global _dropped
    _dropped += n


class _Keys(dict):
    """The packing of (I, J, k) keys for one truncation window.

    As a dict it maps a packed key to (I, J, k, |J|, dirs, (k, |J|)),
    decoded on first lookup; ``dirs[j]`` is the primitive direction of the
    vector (I_j, J_j), with J_j > 0 or (1, 0) fixing its sign, or None for
    the zero vector, and (k, |J|) is the key of the term's group in
    ``PoissonSeries._grades``.  Equal I, J and group tuples of one window
    are one object, kept in ``tuples``, so a report holds each once.
    """

    def __init__(self, n: int, Dp: int, Dt: int, Nq: int):
        super().__init__()
        off = 2 * Nq + 1
        # an I field of a sum of two keys ranges over [0, 4Nq + 1], below the spare bit
        w = max((4 * Nq + 1).bit_length() + 1, Dp.bit_length(), Dt.bit_length())
        half = 1 << (w - 1)
        self.n, self.off, self.mask = n, off, (1 << w) - 1
        self.tuples = {}
        self.eI = [1 << (w * (2 * n - j)) for j in range(n)]
        self.eJ = [1 << (w * (n - j)) for j in range(n)]
        # per coordinate j, the bit offsets of the fields I_j and J_j
        self.shifts = [(w * (2 * n - j), w * (n - j)) for j in range(n)]
        self.base = off * sum(self.eI)
        # (P + lo) has every spare bit set iff each I field >= off - Nq, and
        # (P + hi) has none set iff each I field <= off + Nq
        self.guard = half * sum(self.eI)
        self.lo = (half - (off - Nq)) * sum(self.eI)
        self.hi = (half - 1 - (off + Nq)) * sum(self.eI)

    def pack(self, I, J, k) -> int:
        P = k
        for j in range(self.n):
            P += (I[j] + self.off) * self.eI[j] + J[j] * self.eJ[j]
        return P

    def __missing__(self, P: int) -> tuple:
        mask, off = self.mask, self.off
        I, J, dirs, p = [], [], [], 0
        for sI, sJ in self.shifts:
            a = (P >> sI & mask) - off
            b = P >> sJ & mask
            I.append(a)
            J.append(b)
            p += b
            if b:
                g = gcd(a, b)
                dirs.append((a // g, b // g))
            else:
                dirs.append((1, 0) if a else None)
        intern = self.tuples.setdefault
        I, J, k = tuple(I), tuple(J), P & mask
        I, J, grade = intern(I, I), intern(J, J), (k, p)
        out = self[P] = (I, J, k, p, tuple(dirs), intern(grade, grade))
        return out


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
        object.__setattr__(self, "_keys", _Keys(self.n, self.Dp, self.Dt, self.Nq))

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

    __slots__ = ("context", "trunc", "mode", "_den", "_num", "_graded")

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
        # over the lcm of the lowest-terms denominators the storage is canonical
        D = lcm(*(c.den for c in clean.values()))
        pack = trunc._keys.pack
        num = {pack(*key): (c.a * (D // c.den), c.b * (D // c.den)) for key, c in clean.items()}
        self._init(context, trunc, mode, D, num)

    def _init(self, context, trunc, mode, D, num):
        set_ = object.__setattr__
        set_(self, "context", context)
        set_(self, "trunc", trunc)
        set_(self, "mode", mode)
        set_(self, "_den", D)
        set_(self, "_num", num)
        set_(self, "_graded", None)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonSeries is immutable")

    def _raw(self, D: int, num: dict) -> "PoissonSeries":
        """A series like self with the canonical storage (D, num)."""
        out = object.__new__(PoissonSeries)
        out._init(self.context, self.trunc, self.mode, D, num)
        return out

    def _reduced(self, D: int, num: dict) -> "PoissonSeries":
        """A series like self from (D, num) without (0, 0) pairs: divides
        out the gcd of D and every numerator."""
        g = gcd(D, *chain.from_iterable(num.values()))
        if g > 1:
            D //= g
            num = {P: (a // g, b // g) for P, (a, b) in num.items()}
        return self._raw(D, num)

    def _gathered(self, parts) -> "PoissonSeries":
        """A series like self of the terms (P, a, b, D), each (a + b sqrt(d)) / D
        with D a nonzero integer of either sign, over the lcm of the D's."""
        L = lcm(*{D for _, _, _, D in parts})
        return self._reduced(L, {P: (a * (L // D), b * (L // D)) for P, a, b, D in parts})

    def _grades(self) -> tuple:
        """(groups, census), built in one walk on first use and kept: ``groups``
        maps (t-degree, p-degree) to the terms as (P, I, J, a, b) lists, and
        ``census`` holds per coordinate j the number of terms whose (I_j, J_j)
        vector is zero and the count of each primitive direction of the
        others, up to sign (none for the zero series)."""
        out = self._graded
        if out is None:
            groups, dirs = {}, []
            decoded = self.trunc._keys
            for P, (a, b) in self._num.items():
                I, J, _, _, directions, grade = decoded[P]
                dirs.append(directions)
                group = groups.get(grade)
                if group is None:
                    groups[grade] = [(P, I, J, a, b)]
                else:
                    group.append((P, I, J, a, b))
            census = [(c.pop(None, 0), c) for c in map(Counter, zip(*dirs))]
            out = (groups, census)
            object.__setattr__(self, "_graded", out)
        return out

    def _terms(self):
        """(P, I, J, k, a, b) of every term, in storage order."""
        decoded = self.trunc._keys
        for P, (a, b) in self._num.items():
            I, J, k, _, _, _ = decoded[P]
            yield P, I, J, k, a, b

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
    def _scalar(self, a: int, b: int):
        return _make(a, b, self._den, self.context.d or 0)

    def items(self) -> list:
        """The terms as ((I, J, k), scalar) pairs."""
        return [((I, J, k), self._scalar(a, b)) for _, I, J, k, a, b in self._terms()]

    def __len__(self):
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, I, J=None, k=0):
        trunc = self.trunc
        I = tuple(I)
        J = tuple(J) if J is not None else (0,) * trunc.n
        valid = len(I) == len(J) == trunc.n and min(J) >= 0 and k >= 0
        if valid and trunc.admits(I, J, k):
            pair = self._num.get(trunc._keys.pack(I, J, k))
            if pair is not None:
                return self._scalar(*pair)
        return self.context.zero

    def min_t_degree(self):
        """Smallest t-exponent present, or None for the zero series."""
        return min((k for k, _ in self._grades()[0]), default=None)

    def support_I(self):
        return {I for _, I, _, _, _, _ in self._terms()}

    def select(self, pred) -> "PoissonSeries":
        """Sub-series of the terms whose key satisfies ``pred(I, J, k)``."""
        num = {P: (a, b) for P, I, J, k, a, b in self._terms() if pred(I, J, k)}
        return self._reduced(self._den, num)

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
        D1, D2 = self._den, other._den
        D = lcm(D1, D2)
        m1, m2 = D // D1, D // D2
        if m1 == 1:
            num = dict(self._num)
        else:
            num = {P: (a * m1, b * m1) for P, (a, b) in self._num.items()}
        for P, (a, b) in other._num.items():
            s = num.get(P)
            if s is None:
                num[P] = (a * m2, b * m2)
            else:
                a, b = s[0] + a * m2, s[1] + b * m2
                if a or b:
                    num[P] = (a, b)
                else:
                    del num[P]
        return self._reduced(D, num)

    def __sub__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw(self._den, {P: (-a, -b) for P, (a, b) in self._num.items()})

    def __mul__(self, other):
        if not isinstance(other, PoissonSeries):
            return self.scale(other)
        self._check(other)
        trunc = self.trunc
        keys = trunc._keys
        Dt, Dp = trunc.Dt, trunc.Dp
        base, lo, hi, guard = keys.base, keys.lo, keys.hi, keys.guard
        d = self.context.d or 0
        kept = 0
        A, B = {}, {}
        Gs = other._grades()[0].items()
        for (k1, p1), F in self._grades()[0].items():
            for (k2, p2), G in Gs:
                if k1 + k2 > Dt or p1 + p2 > Dp:
                    continue
                for P1, _, _, a1, b1 in F:
                    for P2, _, _, a2, b2 in G:
                        P = P1 + P2 - base
                        if (P + lo) & guard != guard or (P + hi) & guard:
                            continue
                        kept += 1
                        A[P] = A.get(P, 0) + a1 * a2 + d * b1 * b2
                        B[P] = B.get(P, 0) + a1 * b2 + a2 * b1
        _note_drop(len(self) * len(other) - kept)
        return _collect(self, self._den * other._den, A, B)

    def scale(self, scalar) -> "PoissonSeries":
        c = self.context.coerce(scalar)
        a0, b0, e = c.a, c.b, c.den
        if not (a0 or b0):
            return self._raw(1, {})
        num = self._num
        if (a0, b0) != (1, 0):  # 1/e, as in the Lie series, only moves the denominator
            d = self.context.d or 0
            num = {P: (a * a0 + d * b * b0, a * b0 + b * a0) for P, (a, b) in num.items()}
        return self._reduced(self._den * e, num)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return (
            self.context == other.context
            and self.trunc == other.trunc
            and self.mode == other.mode
            and self._den == other._den
            and self._num == other._num
        )

    __hash__ = None

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        ctx, D, decoded, num = self.context, self._den, self.trunc._keys, self._num
        terms = []
        for P in sorted(num):  # the integer order of the keys is the order of (I, J, k)
            I, J, k, _, _, _ = decoded[P]
            terms.append([I, J, k, literal_of(ctx, *num[P], D)])
        return {
            "n": self.trunc.n,
            "context": ctx.to_json(),
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
            f"PoissonSeries(mode={self.mode!r}, {len(self._num)} terms, "
            f"trunc={self.trunc})"
        )


def _collect(like: PoissonSeries, D: int, A: dict, B: dict) -> PoissonSeries:
    """The series (A[P] + B[P]*sqrt(d)) / D over the keys of A, without the
    keys whose sums cancelled; B is empty or all zero in the rational context."""
    g = gcd(D, *A.values(), *B.values())
    if B:
        num = {P: (a // g, B[P] // g) for P, a in A.items() if a or B[P]}
    else:
        num = {P: (a // g, 0) for P, a in A.items() if a}
    return like._raw(D // g, num)


def _bracket_terms(f: PoissonSeries, g: PoissonSeries) -> int:
    """Terms the bracket of f and g produces before any window cut: one per
    pair of terms and coordinate j whose (I_j, J_j) vectors are not parallel;
    none when either is zero, whose census is empty."""
    size = len(f) * len(g)
    out = 0
    for (zA, dA), (zB, dB) in zip(f._grades()[1], g._grades()[1]):
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
    of (t, p)-groups that land outside the window are never visited.
    Every term a visited pair yields lies inside the t- and p-window, so
    the drops are the terms of the whole bracket (``_bracket_terms``) less
    the terms kept.  The groups and the census both come from each
    operand's view (``_grades``), built in one walk over its terms.

    A kept pair of terms (a1 + b1*sqrt(d)) / Df and (a2 + b2*sqrt(d)) / Dg
    with weight w adds w*(a1*a2 + d*b1*b2) and w*(a1*b2 + a2*b1) to its
    output key, over the denominator Df * Dg.
    """
    f._check(g)
    trunc = f.trunc
    keys = trunc._keys
    Dt, Dp = trunc.Dt, trunc.Dp
    lo, hi, guard = keys.lo, keys.hi, keys.guard
    coords = range(trunc.n)
    # the key of the j-th term of a pair is P1 + P2 - lower[j]
    symplectic = f.mode != "torus"
    lower = [keys.base + keys.eJ[j] + symplectic * keys.eI[j] for j in coords]
    d = f.context.d or 0
    kept = 0
    A, B = {}, {}
    get = A.get
    Gs = g._grades()[0].items()
    for (k1, p1), F in f._grades()[0].items():
        for (k2, p2), G in Gs:
            if k1 + k2 > Dt or p1 + p2 - 1 > Dp:
                continue
            for P1, I1, J1, a1, b1 in F:
                for P2, I2, J2, a2, b2 in G:
                    x = None
                    S = P1 + P2
                    for j in coords:
                        w = J1[j] * I2[j] - I1[j] * J2[j]
                        if not w:
                            continue
                        P = S - lower[j]
                        if (P + lo) & guard != guard or (P + hi) & guard:
                            continue
                        kept += 1
                        if not d:
                            A[P] = get(P, 0) + w * a1 * a2
                            continue
                        if x is None:
                            x = a1 * a2 + d * b1 * b2
                            y = a1 * b2 + a2 * b1
                        A[P] = get(P, 0) + w * x
                        B[P] = B.get(P, 0) + w * y
    _note_drop(_bracket_terms(f, g) - kept)
    return _collect(f, f._den * g._den, A, B)


def average(f: PoissonSeries) -> PoissonSeries:
    """Torus average: keeps exactly the terms with I = 0."""
    zero_I = (0,) * f.trunc.n
    return f.select(lambda I, J, k: I == zero_I)


@dataclass(frozen=True)
class Generator:
    """A flow generator: a Hamiltonian S (inner) or a translation shift.

    Every generator is checked when it is built, by a factory, by
    ``inverse`` or directly: a Hamiltonian S must have min t-degree >= 1,
    so that each ad_S raises every t-degree and the exponential is
    nilpotent modulo truncation; a translation replaces p_j by
    p_j + d_j t^order with order >= 1.
    """

    kind: str
    S: PoissonSeries | None = None
    order: int = 0
    shift: tuple = ()

    def __post_init__(self):
        if self.kind == "hamiltonian":
            if not isinstance(self.S, PoissonSeries):
                raise InvalidInput("a hamiltonian generator needs a series S")
            mt = self.S.min_t_degree()
            if mt is not None and mt < 1:
                raise GeneratorOrderViolation("hamiltonian generator must have min t-degree >= 1")
        elif self.kind == "translation":
            if self.order < 1:
                raise GeneratorOrderViolation("translation order must be >= 1")
        else:
            raise InvalidInput(f"unknown generator kind {self.kind!r}")

    @staticmethod
    def hamiltonian(S: PoissonSeries) -> "Generator":
        return Generator(kind="hamiltonian", S=S)

    @staticmethod
    def translation(order: int, shift, context: ScalarContext) -> "Generator":
        return Generator(kind="translation", order=order, shift=tuple(context.coerce(x) for x in shift))

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
    out = term = f
    # S has t-degree >= 1 (Generator checks it), so each ad_S raises every
    # t-degree and the terms vanish past Dt
    for m in count(1):
        term = poisson_bracket(term, S).scale(Fraction(1, m))
        if term.is_zero():
            return out
        out = out + term


def _apply_translation_flow(order: int, shift, f: PoissonSeries) -> PoissonSeries:
    """p_j -> p_j + d_j t^order on integers, with d_j = (e_j + f_j sqrt(d)) / E.

    Each term q^I p^J t^k is expanded at the shifted p_j in index order.  A
    partial image with s shifts has t-degree k + order*s; at p_j^J_j it takes
    m <= top = min(J_j, (Dt - k) // order - s) more, and its J_j - top images
    past the t-cut are dropped unexpanded, so the drop count depends on the
    numbering of the coordinates.  With M the largest s of an image, each is
    put over D * E^M by E^(M - s); canonical storage makes M immaterial."""
    trunc = f.trunc
    n, Dt = trunc.n, trunc.Dt
    if len(shift) != n:
        raise ValueError(f"translation shift has length {len(shift)}, expected {n}")
    d = f.context.d or 0
    eJ = trunc._keys.eJ
    parts = [f.context.coerce(x) for x in shift]
    E = lcm(*(c.den for c in parts))
    delta = [(c.a * (E // c.den), c.b * (E // c.den)) for c in parts]
    drops = 0
    images = []  # (key, shifts, numerator pair), in the order they are made
    for P, _, J, k, a, b in f._terms():
        cut = (Dt - k) // order
        partial = [(P, 0, a, b)]
        for j in range(n):
            (ex, ey), Jj = delta[j], J[j]
            if not (ex or ey) or Jj == 0:
                continue
            # comb(J_j, m) (E d_j)^m for the m <= min(J_j, cut) that an image takes
            pw, px, py = [(1, 0)], 1, 0
            for m in range(1, min(Jj, cut) + 1):
                px, py = px * ex + d * py * ey, px * ey + py * ex
                c = comb(Jj, m)
                pw.append((c * px, c * py))
            step = order - eJ[j]
            nxt = []
            for Pp, s, x, y in partial:
                top = min(Jj, cut - s)
                drops += Jj - top
                for m, (cx, cy) in enumerate(pw[: top + 1]):
                    nxt.append((Pp + m * step, s + m, x * cx + d * y * cy, x * cy + y * cx))
            partial = nxt
        images += partial
    M = max((s for _, s, _, _ in images), default=0)
    Epow = [E ** (M - s) for s in range(M + 1)]
    num = {}
    for Pp, s, x, y in images:
        x, y = x * Epow[s], y * Epow[s]
        prev = num.get(Pp)
        if prev is not None:
            x, y = prev[0] + x, prev[1] + y
        if x or y:
            num[Pp] = (x, y)
        elif prev is not None:
            del num[Pp]
    _note_drop(drops)
    return f._reduced(f._den * E**M, num)


def flow_apply(gen: Generator, f: PoissonSeries) -> PoissonSeries:
    """Apply the formal flow of a generator; a central Poisson automorphism.

    Hamiltonian: sum_m (1/m!) ad_S^m(f).  Translation: the substitution
    p_j -> p_j + d_j t^order, expanded and truncated.  Both are inverted
    by negating the generator.
    """
    if gen.kind == "hamiltonian":
        return _apply_hamiltonian_flow(gen.S, f)
    return _apply_translation_flow(gen.order, gen.shift, f)


def compose_flows(gens, f: PoissonSeries) -> PoissonSeries:
    """Left-to-right application of flows.

    A normal form's generators replayed on its input give its ``normal``
    series again; that replays the driver's own ``flow_apply`` calls, so
    it checks the bookkeeping, not the normal form.
    """
    out = f
    for gen in gens:
        out = flow_apply(gen, out)
    return out
