"""Constructive normal-form algorithms.

Contains resonance detection, the triangular homological-equation solver
for {H, -}, the two normal forms of H + tQ, and the normal-space class
map with certificate.

Both normal forms run one order-by-order loop, ``_iterate``: at each
t-order it solves the homological equation for the terms it is told to
kill and applies the flow of the solution.  The formal stability
iteration kills all q-dependence (a central Poisson automorphism taking
H + tQ into K[[p, t]]); the truncated Kolmogorov normal form kills only
the part of p-degree <= 1 and adds a translation per order, leaving
H + c(t) + (ideal-square remainder).

The homological equation {H, S} + R = residual is solved per Fourier
mode.  For H in K[[p]], {H, q^I p^J t^k} = L_I(p) q^I p^J t^k with
L_I(0) = (omega, I), so each mode I of R is a triangular power-series
division by L_I, in ascending p-degree, on integer numerators; no
generic bracket is needed.  Terms past Dp are counted as the bracket
{H, S} would drop them, and a resonant mode is named at its lowest
p-degree, first in R's order (``homological_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .diophantine import FrequencyVector, _paired, half_ball, integer_pairing
from .errors import DegenerateAlpha, InvalidInput, ResonantDenominator
from .scalar import CertifiedDecimal, certified_root, exact_sign
from .series import Generator, PoissonSeries, _note_drop, drop_count, flow_apply

__all__ = [
    "IntegrableHamiltonian",
    "NormalFormResult",
    "NormalSpaceClass",
    "resonances",
    "homological_solve",
    "formal_normal_form",
    "kolmogorov_normal_form",
    "normal_space_class",
]


@dataclass(frozen=True)
class IntegrableHamiltonian:
    """An element of K[[p]] without constant term, H = (omega, p) + p.alpha.p + ...

    ``omega`` collects the linear coefficients, ``alpha`` the symmetrized
    quadratic ones (so that sum_ij alpha_ij p_i p_j is the degree-2 part).
    """

    series: PoissonSeries
    omega: tuple
    alpha: tuple

    @classmethod
    def from_series(cls, series: PoissonSeries) -> "IntegrableHamiltonian":
        n, zero = series.trunc.n, series.context.zero
        omega, alpha = [zero] * n, [[zero] * n for _ in range(n)]
        for (I, J, k), c in series.items():
            if any(I) or k != 0:
                raise InvalidInput("integrable Hamiltonian must lie in K[[p]]")
            degree = sum(J)
            if degree == 0:
                raise InvalidInput("integrable Hamiltonian must have no constant term")
            if degree == 1:
                omega[J.index(1)] = c
            elif degree == 2:  # c p_i p_j, with i = j when J holds a 2
                i, j = (x for x, e in enumerate(J) for _ in range(e))
                alpha[i][j] = alpha[j][i] = c if i == j else c * Fraction(1, 2)
        return cls(series=series, omega=tuple(omega), alpha=tuple(map(tuple, alpha)))

    @cached_property
    def _frequencies(self) -> FrequencyVector:
        return FrequencyVector(self.omega, self.series.context)

    def pairing(self, I):
        """The scalar product (omega, I) for an integer vector I."""
        return _paired(self._frequencies, I)


def resonances(omega, N: int) -> list[tuple]:
    """All I of ``half_ball(n, N)`` with (omega, I) = 0, in lexicographic order.

    With omega_j = (a_j + b_j*sqrt(d)) / E (``integer_pairing``), I is
    resonant exactly when both integers sum a_j I_j and sum b_j I_j vanish.
    """
    if N < 1:
        raise ValueError("lattice cutoff N must be >= 1")
    _, a, b, _ = integer_pairing(omega)
    return [
        I
        for I in half_ball(len(omega), N)
        if not sum(map(mul, a, I)) and not sum(map(mul, b, I))
    ]


def homological_solve(H: IntegrableHamiltonian, R: PoissonSeries, p_cap: int):
    """Solve {H, S} + R = residual by division per Fourier mode, in ascending p-degree.

    In torus mode {H, q^I p^J t^k} = L_I(p) q^I p^J t^k for H = sum h_K p^K,
    with L_I(p) = sum_K h_K sum_j K_j I_j p^(K - e_j).  Its constant term
    is (omega, I); the rest, L+_I, comes from the terms |K| >= 2 and raises
    the p-degree by |K| - 1.  So every mode I is a triangular power-series
    division by L_I: a defect X starts at R, kept per occupied p-degree; at
    each of its degrees m <= p_cap, ascending, the terms S_{I,m} =
    -X_{I,m} / (omega, I) join S while L+_I S_{I,m} joins X above m.  S is
    supported on I != 0 with p-degree <= p_cap, and the residual
    {H, S} + R is X above p_cap plus the averaged (I = 0) part of R.

    Drops: each term of L+_I S_{I,m} past Dp is dropped and counted, one
    per S term and per term K, coordinate j of H with K_j I_j != 0 and
    |K| + m - 1 > Dp; that is the drop count of ``poisson_bracket(H.series,
    S)``.  Resonance: the first term of the lowest p-degree <= p_cap, in
    R's order, whose mode has (omega, I) = 0 raises ResonantDenominator; a
    mode lying wholly above p_cap is left in the residual.  Order, for an
    R of one t-degree (``_iterate`` passes k = m, ``normal_space_class`` a
    t-free f): within a degree X keeps its terms in the order they first
    appear, as a running sum of series would: R's terms, then those L+
    creates, in the order of the loops over H's p-degree groups, H's
    terms, S's terms and j.  S takes that order degree by degree.  The
    flows built on S inherit it, and later t-orders name their resonances
    by it.  A mixed-t R gets the same S and residual, in an order that is
    not pinned.

    Integers: H = sum (u_K + v_K sqrt(d)) p^K / E, so (omega, I) =
    (A + B sqrt(d)) / E with A = sum_j I_j u_{e_j}, B likewise, and
    -1/(omega, I) = E (c + c' sqrt(d)) / N with N = A (B = 0) or the norm
    A^2 - d B^2.  Each mode keeps its pending terms over one denominator
    D_I, multiplied by N only when an L+ term arrives; S_{I,m} is over
    D_I N.  S and the residual are each gathered once over the lcm of
    their denominators.
    """
    H.series._check(R)
    if R.mode != "torus":
        raise InvalidInput("homological_solve divides per Fourier mode, so R must be in torus mode")
    keys, Dp, n = R.trunc._keys, R.trunc.Dp, R.trunc.n
    d, E, D0, eJ = R.context.d or 0, H.series._den, R._den, keys.eJ
    coords = range(n)
    u1, v1 = [0] * n, [0] * n  # omega_j = (u1[j] + v1[j] sqrt(d)) / E
    plus = []  # per p-degree group of H above 1: (|K| - 1, terms, per j the terms with K_j != 0)
    for (_, p), group in H.series._grades()[0].items():
        if p == 1:
            for _, _, K, u, v in group:
                j = K.index(1)
                u1[j], v1[j] = u, v
        else:
            terms = [(P - keys.base, K, u, v) for P, _, K, u, v in group]
            plus.append((p - 1, terms, [sum(1 for t in terms if t[1][j]) for j in coords]))
    pending = {}  # X's I != 0 terms, by occupied p-degree
    averaged = {}
    for P, pair in R._num.items():
        I, _, _, p, _, _ = keys[P]
        (pending.setdefault(p, {}) if any(I) else averaged)[P] = pair
    divisors, den, S, drops = {}, {}, [], 0
    while pending and (m := min(pending)) <= p_cap:
        corr = []  # (P, I, x, y) with S_{I,m} = E (x + y sqrt(d)) / (D_I N)
        for P, (x, y) in pending.pop(m).items():
            I = keys[P][0]
            div = divisors.get(I)
            if div is None:
                A, B = sum(map(mul, I, u1)), sum(map(mul, I, v1))
                c, c2, N = (-A, B, A * A - d * B * B) if B else (-1, 0, A)
                if not N:
                    raise ResonantDenominator(I)
                div = divisors[I] = (c, c2, N) if N > 0 else (-c, -c2, -N)
            c, c2, N = div
            x, y = x * c + d * y * c2, x * c2 + y * c
            corr.append((P, I, x, y))
            S.append((P, E * x, E * y, den.get(I, D0) * N))
        added = {}
        for shift, terms, nzK in plus:
            if m + shift > Dp:  # every term of this group lands past Dp
                nzI = [sum(1 for _, I, _, _ in corr if I[j]) for j in coords]
                drops += sum(map(mul, nzK, nzI))
                continue
            for PK, K, u, v in terms:
                for P, I, x, y in corr:
                    for j in coords:
                        w = K[j] * I[j]
                        if w:
                            T = P + PK - eJ[j]
                            a, b = added.get(T, (0, 0))
                            added[T] = (a + w * (u * x + d * v * y), b + w * (u * y + v * x))
        arrived = {keys[T][0] for T in added}
        for level in pending.values():  # pending terms of a mode move to D_I N
            for P, (x, y) in level.items():
                I = keys[P][0]
                if I in arrived:
                    N = divisors[I][2]
                    level[P] = (x * N, y * N)
        for I in arrived:
            den[I] = den.get(I, D0) * divisors[I][2]
        for T, (x, y) in added.items():
            level = pending.setdefault(keys[T][3], {})
            a, b = level.get(T, (0, 0))
            if a + x or b + y:
                level[T] = (a + x, b + y)
            else:
                level.pop(T, None)
    _note_drop(drops)
    residual = [(P, a, b, D0) for P, (a, b) in averaged.items()]
    for p in sorted(pending):
        residual += [(P, a, b, den.get(keys[P][0], D0)) for P, (a, b) in pending[p].items()]
    return R._gathered(S), R._gathered(residual)


@dataclass(frozen=True)
class NormalFormResult:
    """Output of a normal-form iteration.

    ``compose_flows(generators, input)`` gives ``normal`` again modulo
    truncation; it replays the driver's own ``flow_apply`` calls, so it
    checks the bookkeeping, not the normal form.  In Kolmogorov mode,
    normal = H + casimir + remainder with every remainder term of p-degree
    >= 2 and t-degree >= 1.
    """

    generators: list
    normal: PoissonSeries
    casimir: PoissonSeries
    remainder: PoissonSeries
    dropped_terms: int
    per_order: list
    smallest_denominator: CertifiedDecimal | None

    def to_json(self) -> dict:
        ctx = self.normal.context
        return {
            "generators": [g.to_json(ctx) for g in self.generators],
            "normal": self.normal.to_json(),
            "casimir": self.casimir.to_json(),
            "remainder": self.remainder.to_json(),
            "dropped_terms": self.dropped_terms,
            "per_order": self.per_order,
            "smallest_denominator": (
                None
                if self.smallest_denominator is None
                else self.smallest_denominator.to_json()
            ),
        }


def _iterate(H: IntegrableHamiltonian, Q: PoissonSeries, kolmogorov: bool) -> NormalFormResult:
    """The order-by-order normalization of H + tQ behind both normal forms.

    At t-order m the terms with k = m, I != 0 and p-degree <= p_cap (Dp, or
    1 in Kolmogorov mode) are killed by one Hamiltonian generator.  In
    Kolmogorov mode the averaged linear part b.p of order m is then removed
    by a translation d = -(2 alpha)^{-1} b, every order gets a ``per_order``
    entry (else only orders that had something to eliminate do), and the
    normal form is split as H + casimir + remainder.  Each S lives on
    exactly the modes it kills (L+ keeps I), so the smallest |(omega, I)|
    is read off the generators.
    """
    H.series._check(Q)
    if kolmogorov:
        two_alpha = tuple(tuple(x * 2 for x in row) for row in H.alpha)
        if not exact_det(two_alpha):
            raise DegenerateAlpha("quadratic part alpha is not invertible")
    trunc = Q.trunc
    n = trunc.n
    p_cap = 1 if kolmogorov else trunc.Dp
    zero_I = (0,) * n
    unit_J = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    drops0 = drop_count()
    current = H.series + PoissonSeries.monomial(Q.context, trunc, Q.mode, 1, k=1) * Q
    generators = []
    per_order = []
    for m in range(1, trunc.Dt + 1):
        # homological_solve reads R per p-degree, so only that order matters
        Rm = current.oscillating_part(m, p_cap)
        eliminated = len(Rm)
        if eliminated:
            try:
                S, _ = homological_solve(H, Rm, p_cap=p_cap)
            except ResonantDenominator as exc:
                raise ResonantDenominator(exc.vector, t_order=m) from None
            gen = Generator.hamiltonian(S)
            current = flow_apply(gen, current)
            generators.append(gen)
        if kolmogorov:
            b = [current.coefficient(zero_I, unit_J[i], m) for i in range(n)]
            nonzero = sum(1 for x in b if exact_sign(x) != 0)
            if nonzero:
                d = solve_linear(two_alpha, [-x for x in b], Q.context)
                gen = Generator.translation(m, d, Q.context)
                current = flow_apply(gen, current)
                generators.append(gen)
                eliminated += nonzero
        if eliminated or kolmogorov:
            per_order.append({"t_order": m, "eliminated": eliminated})
    modes = set().union(*(g.S.support_I() for g in generators if g.kind == "hamiltonian"))
    min_sq = min((w * w for w in map(H.pairing, modes)), default=None)  # compared exactly
    casimir = remainder = current._raw(1, {})
    if kolmogorov:
        casimir = current.select(lambda I, J, k: I == J == zero_I and k >= 1)
        remainder = current - H.series - casimir
        for _, I, J, k, _, _ in remainder._terms():  # cannot fail by construction
            if sum(J) < 2 or k < 1:
                raise RuntimeError(f"remainder term {(I, J, k)} outside I^2 (t)")
    elif current.support_I() - {zero_I}:  # cannot happen for nonresonant omega
        raise RuntimeError("normal form retains q-dependent terms")
    return NormalFormResult(
        generators=generators,
        normal=current,
        casimir=casimir,
        remainder=remainder,
        dropped_terms=drop_count() - drops0,
        per_order=per_order,
        smallest_denominator=None if min_sq is None else certified_root(min_sq, 2),
    )


def formal_normal_form(H: IntegrableHamiltonian, Q: PoissonSeries) -> NormalFormResult:
    """Iteratively remove all q-dependence of H + tQ, one t-order at a time.

    Emits one Hamiltonian generator per order; fails with
    ResonantDenominator (carrying the vector and the t-order) when a
    resonant monomial is met.
    """
    return _iterate(H, Q, kolmogorov=False)


def _eliminate(A) -> object:
    """Gauss-Jordan in place on the rows A of an n x m matrix, m >= n.

    A nonsingular left n x n block ends as the identity, with the solution
    to its right.  Returns that block's determinant: the product of the
    pivots, negated per row swap, or 0 once a column has no pivot.
    """
    n = len(A)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if exact_sign(A[r][col]) != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        pivval = A[col][col]
        det = det * pivval
        A[col] = [x / pivval for x in A[col]]
        for r in range(n):
            if r != col and (f := A[r][col]):
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return det


def exact_det(matrix) -> object:
    """Determinant over the scalar field, by ``_eliminate`` on a copy."""
    return _eliminate([list(row) for row in matrix])


def solve_linear(matrix, rhs, ctx):
    """Exact Gaussian elimination for A x = rhs over the scalar field."""
    n = len(rhs)
    A = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if not _eliminate(A):
        raise DegenerateAlpha("singular linear system")
    return tuple(ctx.coerce(A[i][n]) for i in range(n))


def kolmogorov_normal_form(H: IntegrableHamiltonian, Q: PoissonSeries) -> NormalFormResult:
    """Truncated constructive Kolmogorov normal form: H + c(t) + I^2-remainder.

    Per t-order: the zero-average part of p-degree <= 1 is killed by a
    Hamiltonian generator (triangular in p-degree 0 then 1, the degree-1
    stage receiving the cross-terms from alpha), the averaged linear part
    b.p by a translation with d = -(2 alpha)^{-1} b, Casimir terms
    accumulate into c(t), and everything of p-degree >= 2 is left in the
    remainder.
    """
    return _iterate(H, Q, kolmogorov=True)


@dataclass(frozen=True)
class NormalSpaceClass:
    """Class of f in A / ({H, A} + I^2 + Casimirs), with decomposition witness.

    The certificate satisfies f = {H, g} + ideal_part + constant +
    sum_i nu_i basis_i exactly modulo truncation; ``basis`` names the
    class basis ("p" for the torus case, "pq" for the hyperbolic one).
    """

    nu: tuple
    g: PoissonSeries
    ideal_part: PoissonSeries
    constant: object
    basis: str = "p"


def _hyperbolic_class(H: PoissonSeries, f: PoissonSeries) -> NormalSpaceClass:
    if H.trunc.n != 1:
        raise ValueError("hyperbolic normal-space classes are one-dimensional")
    pq = PoissonSeries.monomial(H.context, H.trunc, H.mode, 1, I=(1,), J=(1,))
    if H != pq:
        raise ValueError("hyperbolic case expects H = p q")
    # a term c p^i q^j has I = (j,) and J = (i,); {pq, p^i q^j} = (j - i) p^i q^j
    # under this bracket convention, so g has the terms c / (j - i), i != j
    g = f._gathered([(P, a, b, f._den * (I[0] - J[0])) for P, I, J, _, a, b in f._terms() if I != J])
    ideal = f.select(lambda I, J, k: I == J and I[0] >= 2)
    return NormalSpaceClass(
        nu=(f.coefficient((1,), (1,)),),
        g=g,
        ideal_part=ideal,
        constant=f.coefficient((0,)),
        basis="pq",
    )


def normal_space_class(H, f: PoissonSeries) -> NormalSpaceClass:
    """Decompose f = {H, g} + i + c + sum nu_i p_i exactly mod truncation.

    Torus mode needs nonresonant omega (checked on the support actually
    used); symplectic mode handles the hyperbolic pair H = pq, n = 1 and
    returns the coefficient of the class [pq].
    """
    if f.t_part(0) != f:
        raise ValueError("normal-space classes are computed for t-free elements")
    if isinstance(H, PoissonSeries):
        if H.mode != "symplectic":
            raise ValueError("a raw series Hamiltonian is only used in symplectic mode")
        H._check(f)
        return _hyperbolic_class(H, f)
    H.series._check(f)
    n = f.trunc.n
    zero_I = (0,) * n
    kill = f.select(lambda I, J, k: I != zero_I and sum(J) <= 1)
    # the residual is the I != 0 terms of p-degree >= 2 that the solve creates
    g, residual = homological_solve(H, -kill, p_cap=1)
    ideal = f.select(lambda I, J, k: sum(J) >= 2) - residual
    unit_J = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    nu = tuple(f.coefficient(zero_I, unit_J[i]) for i in range(n))
    const = f.coefficient(zero_I)
    return NormalSpaceClass(nu=nu, g=g, ideal_part=ideal, constant=const, basis="p")
