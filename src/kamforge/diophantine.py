"""Small-denominator analysis.

Exact minimization of |(omega, I)| * |I|^(n-1+nu) over lattice balls,
the Liouville-type counterexample with exact partial sums, the
small-denominator Fourier table and its Hadamard calculus with decay
classification, and a seeded Monte-Carlo check of the measure bound
Vol(B_R \\ Omega(C, nu)) <= k * C.  Only the two float kernels,
``decay_fit`` and ``measure_estimate``, import numpy, so the exact ones
run without loading it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from itertools import count, product
from math import factorial, lcm
from operator import mul
from sys import float_info

from .errors import ContextMismatch, InsufficientSupport, InvalidInput, ResonantDenominator
from .scalar import (
    RATIONAL,
    CertifiedDecimal,
    QuadScalar,
    ScalarContext,
    _convergent_pairs,
    _make,
    _partial_quotients,
    certified_root,
    exact_sign,
    integer_bounds,
    root_value,
)

__all__ = [
    "FrequencyVector",
    "DiophantineEstimate",
    "FourierTable",
    "LiouvilleWitness",
    "DecayFit",
    "MeasureEstimate",
    "half_ball",
    "kolmogorov_constant",
    "liouville_witness",
    "small_denominator_series",
    "hadamard_apply",
    "decay_fit",
    "measure_estimate",
]


@dataclass(frozen=True)
class FrequencyVector:
    """Frequencies omega in one context; ``_integers`` is their ``integer_pairing``."""

    entries: tuple
    context: ScalarContext

    def __post_init__(self):
        entries = tuple(self.context.coerce(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_integers", integer_pairing(entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def dot(self, I):
        return _paired(self, I)


def integer_pairing(omega) -> tuple[int, tuple, tuple, int]:
    """Integers E > 0, a_j, b_j and a radicand d with omega_j = (a_j + b_j*sqrt(d)) / E.

    ``omega`` holds exact scalars (int, Fraction or QuadScalar); d is 0
    when every entry is rational.  Then (omega, I) = (A + B*sqrt(d)) / E
    with the integers A = sum a_j I_j and B = sum b_j I_j, and since
    sqrt(d) is irrational, (omega, I) = 0 exactly when A = B = 0.
    """
    ws = [w if isinstance(w, QuadScalar) else RATIONAL.coerce(w) for w in omega]
    radicands = {w.d for w in ws if w.b}
    if len(radicands) > 1:
        raise ContextMismatch(f"mixed radicands {sorted(radicands)} in omega")
    E = lcm(*(w.den for w in ws))
    a = tuple(w.a * (E // w.den) for w in ws)
    b = tuple(w.b * (E // w.den) for w in ws)
    return E, a, b, max(radicands, default=0)


def _paired(omega: FrequencyVector, I) -> QuadScalar:
    """(omega, I) in omega's context, from the integers of ``integer_pairing``."""
    E, a, b, _ = omega._integers
    return _make(sum(map(mul, a, I)), sum(map(mul, b, I)), E, omega.context.d or 0)


def half_ball(n: int, N: int):
    """The vectors 0 < |I|_sup <= N whose first nonzero entry is positive,
    one of each pair +-I, in lexicographic order.

    More leading zeros come first, so the position j of the first nonzero
    entry runs from the last to the first, that entry over 1 .. N and the
    rest over the whole cube; nothing of the other half is generated.
    """
    for j in reversed(range(n)):
        for a in range(1, N + 1):
            for rest in product(range(-N, N + 1), repeat=n - 1 - j):
                yield (0,) * j + (a,) + rest


@dataclass(frozen=True)
class DiophantineEstimate:
    """Certified lower bound for |(omega, I)| * |I|^(n-1+nu) over a lattice ball.

    ``min_power`` holds the exact value of C_est**power, which is what
    cross-cutoff monotonicity comparisons use; ``c_est`` is its certified
    real root.  The norm in the quantity is Euclidean, the ball is sup-norm.
    ``worst`` is the first minimiser in ``half_ball`` order, or the first
    resonant vector there.
    """

    c_est: CertifiedDecimal
    nu: Fraction
    N: int
    worst: tuple
    min_power: object
    power: int

    def to_json(self) -> dict:
        return {
            "C_est": self.c_est.to_json(),
            "nu": str(self.nu),
            "N": self.N,
            "worst": list(self.worst),
            "norm_kind": "euclidean",
        }


def _power_key(dot, nrm2: int, s: Fraction):
    """Exact value of (|dot| * |I|^s)**(2q) for s = p/q and |I|^2 = nrm2."""
    return (dot * dot) ** s.denominator * Fraction(nrm2) ** s.numerator


# the bits a key may take; the root of one past about 2^19 bits alone takes seconds
_KEY_BITS = 1 << 19


def _check_key_bits(s: Fraction, dot_bits: int, nrm2_bits: int) -> None:
    """Refuses keys ``_power_key(dot, nrm2, s)`` of an estimated size past ``_KEY_BITS``."""
    if 2 * s.denominator * dot_bits + abs(s.numerator) * nrm2_bits > _KEY_BITS:
        raise InvalidInput(f"an exact key (|(omega, I)| * |I|^s)^(2q) would take more than {_KEY_BITS} bits")


def kolmogorov_constant(omega: FrequencyVector, nu, N: int) -> DiophantineEstimate:
    """Exact minimization of |(omega, I)| * |I|^(n-1+nu) over 0 < |I|_sup <= N.

    All comparisons happen on the (2q)-th power of the quantity (s = p/q),
    so they are exact rational / quadratic-field sign tests.  I and -I give
    the same quantity, so one sweep visits ``half_ball(n, N)`` in its order,
    solving for x = I_n: the row K = 0, then each row K = (I_1, ...,
    I_{n-1}) of ``half_ball(n - 1, N)``, x ascending.  Only a strictly lower
    key replaces the best and the first resonance ends the sweep, so
    ``worst`` is the first minimiser (or resonant vector) in that order.

    Row K = 0 scores |omega_n| * x^(1+s), monotone in x: only x = 1 and
    x = N are scored, and if omega_n = 0, (0, ..., 0, 1) is resonant.  On
    row K, (omega, I) = omega_n * (x - r) with r exact, and (|I|^s)^(2q) >=
    W = |K|^(2p) for s >= 0, (|K|^2 + N^2)^p for s < 0.  So with r clipped
    to [-N, N], every x in the ball at distance >= t from r has a key >=
    (omega_n * t)^(2q) * W.  The sweep scores the integers nearer than t,
    from t = 1 on, widening while that bound is below the best; the others
    cannot beat it.  For s >= 0 the bound at t = 1 is no less than the key
    of (0, ..., 0, 1), so no row widens.  The cost is the rows plus the
    candidates the widening adds.

    Blocks (n = 2, s >= 0).  Rows are I_1 = a; let alpha = omega_1 / omega_2
    have convergents p_k / q_k.  By Lagrange's best-approximation theorem
    (Khinchin, Continued Fractions, sec. 6), |a alpha - p| >= |q_k alpha -
    p_k| for every integer p and 0 < a < q_{k+1}, so every row q_k <= a <
    q_{k+1} scores at least |(omega, (q_k, -p_k))| * a^s.  That bound grows
    with a and the best only falls, so once its (2q)-th power is >= the best
    on one row of the block, the sweep jumps to row q_{k+1}.  The skip is
    non-strict, so ``worst`` and ``min_power`` are those of the full sweep.
    A rational alpha's last convergent is alpha itself, with bound 0.
    """
    if N < 1:
        raise ValueError("lattice cutoff N must be >= 1")
    n = omega.n
    nu = Fraction(nu)
    s = n - 1 + nu
    E, a, b, d = omega._integers
    dot_bits = (E * N * (sum(map(abs, a)) + d * sum(map(abs, b)))).bit_length()
    _check_key_bits(s, dot_bits, (n * N * N).bit_length())
    p_, q_ = s.numerator, s.denominator
    power = 2 * q_
    *head, wn = omega.entries
    best = worst = None

    def score(I) -> bool:
        """Keeps I if it beats the best strictly; True when I is resonant."""
        nonlocal best, worst
        dot = omega.dot(I)
        if exact_sign(dot) == 0:
            best, worst = Fraction(0), I
            return True
        key = _power_key(dot, sum(x * x for x in I), s)
        if best is None or exact_sign(key - best) < 0:
            best, worst = key, I
        return False

    def sweep() -> bool:
        """Scores the candidates in ``half_ball`` order; True on a resonance."""
        zero = (0,) * (n - 1)
        if exact_sign(wn) == 0:
            return score(zero + (1,))
        for x in sorted({1, N}):
            score(zero + (x,))
        wn_q = (wn * wn) ** q_
        blocks = n == 2 and s >= 0
        if blocks:
            conv = _convergent_pairs(_partial_quotients(head[0] / wn))
            nxt = next(conv)  # (p_0, q_0 = 1)
        rows = half_ball(n - 1, N)
        while (K := next(rows, None)) is not None:
            nrm = sum(k * k for k in K)
            W = Fraction(nrm if s >= 0 else nrm + N * N) ** p_
            if blocks:
                while nxt is not None and nxt[1] <= K[0]:  # enter block k
                    gap = nxt[1] * head[0] - nxt[0] * wn  # omega_2 * (q_k alpha - p_k)
                    gap_q = (gap * gap) ** q_
                    nxt = next(conv, None)
                if exact_sign(gap_q * W - best) >= 0:
                    if nxt is None:
                        return False
                    rows = zip(range(nxt[1], N + 1))  # rows (a,) from a = q_{k+1} on
                    continue
            r = -sum(w * k for w, k in zip(head, K)) / wn
            c0 = min(max(r.floor(), -N), N)
            lo, hi, t = c0, c0 + 1, 1
            while (lo > -N or hi < N) and exact_sign(wn_q * t ** power * W - best) < 0:
                lo, hi, t = c0 - t, c0 + t + 1, t + 1
            for x in range(max(lo, -N), min(hi, N) + 1):
                if score(K + (x,)):
                    return True
        return False

    resonant = sweep()
    c_est = CertifiedDecimal(0.0, 0.0) if resonant else certified_root(best, power)
    return DiophantineEstimate(
        c_est=c_est,
        nu=nu,
        N=N,
        worst=worst,
        min_power=best,
        power=power,
    )


@dataclass(frozen=True)
class LiouvilleWitness:
    """Exact data for the fast-approximation vector beta_k against (1, alpha).

    ``pairing_exact`` is |(omega, beta_k)| for the exact partial sum
    alpha_m; the true alpha differs by at most ``tail_bound`` after the
    pairing, turning every derived quantity into a rigorous interval.
    """

    k: int
    nu: Fraction
    beta: tuple
    pairing_exact: Fraction
    tail_bound: Fraction
    norm_sq: int
    pairing: CertifiedDecimal
    product: CertifiedDecimal

    def product_power(self) -> Fraction:
        """Exact (pairing * |beta|^(1+nu))**(2 dq) with 1 + nu = dp/dq."""
        return _power_key(self.pairing_exact, self.norm_sq, 1 + self.nu)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "beta": list(self.beta),
            "pairing": self.pairing.to_json(),
            "product": self.product.to_json(),
            "tail_bound": float(self.tail_bound),
        }


def _ten_power_bits(e: int) -> int:
    """Bits of 10^e, floor(e * log2(10)) + 1, with log2(10) rounded down so never too many."""
    return e * 3321928094887362347 // 10**18 + 1


def liouville_witness(k: int, nu, m: int) -> LiouvilleWitness:
    """Build omega = (1, alpha_m) with alpha_m = sum_{j<=m} 10^(-j!) and pair it
    with beta_k oriented so the pairing equals the tail 10^(k!) sum_{j>k} 10^(-j!).

    The key size is checked from k and m alone before anything is built, as
    alpha_m and the tail 10^(-(m+1)!) take seconds from m = 9 on.  The
    pairing is the fraction sum_{j=k+1}^{m} 10^(m!-j!) / 10^(m!-k!), reduced,
    since its numerator ends in the digit 1; the numerator has at least the
    bits of 10^(m!-(k+1)!), and |beta|^2 > 10^(2 k!).  From m = 20, the bit
    length of ``_KEY_BITS``, on, the denominator alone has m! - k! >= m!/2 >
    2^m digits, past the limit, so factorial(m), which takes seconds for m
    near 10^6, is not taken.
    """
    if k < 1:
        raise ValueError("index k must be >= 1")
    if m <= k:
        raise InvalidInput("tail order m must exceed k")
    nu = Fraction(nu)
    e = 1 + nu
    if m < _KEY_BITS.bit_length():
        fk, fm = factorial(k), factorial(m)
        dot_bits = _ten_power_bits(fm - fk * (k + 1)) + _ten_power_bits(fm - fk)
        nrm2_bits = _ten_power_bits(2 * fk)
    else:
        dot_bits, nrm2_bits = _KEY_BITS, 0  # a lower bound, already past the limit
    _check_key_bits(e, dot_bits, nrm2_bits)
    alpha = sum(Fraction(1, 10 ** factorial(j)) for j in range(m + 1))
    first = sum(10 ** (factorial(k) - factorial(j)) for j in range(k + 1))
    beta = (first, -(10 ** factorial(k)))
    pairing = first - alpha * 10 ** factorial(k)
    pairing = abs(pairing)
    tail = 2 * Fraction(1, 10 ** factorial(m + 1)) * 10 ** factorial(k)
    norm_sq = beta[0] * beta[0] + beta[1] * beta[1]
    dot_bits = pairing.numerator.bit_length() + pairing.denominator.bit_length()
    _check_key_bits(e, dot_bits, norm_sq.bit_length())
    prod_pow = _power_key(pairing, norm_sq, e)
    return LiouvilleWitness(
        k=k,
        nu=nu,
        beta=beta,
        pairing_exact=pairing,
        tail_bound=tail,
        norm_sq=norm_sq,
        pairing=CertifiedDecimal.from_exact(pairing),
        product=certified_root(prod_pow, 2 * e.denominator),
    )


@dataclass(frozen=True)
class FourierTable:
    """Finite table of nonnegative Fourier-coefficient magnitudes |a_I|."""

    coefficients: dict

    def __post_init__(self):
        for I, v in self.coefficients.items():
            if v < 0:
                raise ValueError(f"negative magnitude at {I}")


def small_denominator_series(omega: FrequencyVector, N: int) -> FourierTable:
    """The table |(omega, I)|^{-1} for 0 < |I|_sup <= N (all signs kept).

    Keys are in ``product`` order, the order ``decay_fit``'s least-squares
    sum reads.  It visits -I before I whenever I's first nonzero entry is
    positive, and (omega, -I) = -(omega, I) exactly, so the second half
    copies the first.  A resonance raises ResonantDenominator for the
    first resonant vector met, normalised: (4, -2) for omega = (1, 2) and
    N = 4.  With omega_j = (a_j + b_j*sqrt(d)) / E (``integer_pairing``),
        1 / (omega, I)^2 = E^2 (A^2 + d B^2 - 2AB sqrt(d)) / (A^2 - d B^2)^2;
    ``integer_bounds`` brackets it, and the entry is ``root_value`` of the
    upper bound, the value of ``certified_root(1 / (omega, I)^2, 2)``
    without its error bound, which the table would throw away.
    """
    if N < 1:
        raise ValueError("lattice cutoff N must be >= 1")
    E, a, b, d = omega._integers
    E2 = E * E
    keys = list(product(range(-N, N + 1), repeat=omega.n))
    half = len(keys) // 2  # keys[half] = 0 and keys[half + j] = -keys[half - j]
    values = []
    for I in keys[:half]:
        A, B = sum(map(mul, a, I)), sum(map(mul, b, I))
        if not A and not B:
            raise ResonantDenominator(tuple(-x for x in I))
        AA, dBB = A * A, d * B * B
        _, hi, D = integer_bounds(E2 * (AA + dBB), -2 * A * B * E2, d, (AA - dBB) ** 2)
        values.append(root_value(hi, D, 2))
    coeffs = dict(zip(keys[:half] + keys[half + 1 :], values + values[::-1]))
    return FourierTable(coeffs)


def hadamard_apply(h: FourierTable, f: FourierTable) -> FourierTable:
    """Coefficient-wise (convolution) product on the common support."""
    coeffs = {
        I: h.coefficients[I] * f.coefficients[I]
        for I in h.coefficients.keys() & f.coefficients.keys()
    }
    return FourierTable(coeffs)


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    residual: float

    def to_json(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "residual": self.residual}


def decay_fit(f: FourierTable) -> DecayFit:
    """Least-squares fit of log|a_I| against the Euclidean |I|.

    A clearly negative slope with small residual indicates exponential
    decay (the holomorphic Fourier class at finite scale); slope >= 0 is
    consistent with the sub-exponential obstruction bound.
    """
    import numpy as np

    pts = [(I, v) for I, v in f.coefficients.items() if v > 0]
    if len(pts) < 3:
        raise InsufficientSupport("decay_fit needs at least 3 nonzero magnitudes")
    r = np.sqrt((np.array([I for I, _ in pts]) ** 2).sum(axis=1))
    y = np.log(np.array([v for _, v in pts]))
    A = np.stack([r, np.ones_like(r)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return DecayFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


@dataclass(frozen=True)
class MeasureEstimate:
    C: float
    fraction_bad: float
    stderr: float
    samples: int
    seed: int
    min_margin: float
    exact_rechecks: int

    def to_json(self) -> dict:
        return asdict(self)


# lattice cells (sample x row) per batch of the float statistic: 2^14 cells
# make each float64 buffer 128 KiB, so a batch's passes stay in cache
_BATCH_CELLS = 2**14


def _row_statistic(pts: np.ndarray, s: float, N: int) -> np.ndarray:
    """m(omega) = min over 0 < |I|_sup <= N of |(omega, I)| * |I|^s, per sample.

    Each sample is solved for its coordinate c of largest |omega_c|.  A row
    fixes the other coordinates to K, and I and -I score alike, so K runs
    over the half ball of dimension n - 1; the row K = 0 scores
    |omega_c| * min(1, N^(1+s)) in closed form, and is the only row for
    n = 1.  On row K the dot product omega_c * x + (omega, K) vanishes at
    the real root r, and an integer x at distance >= t from r scores at
    least |omega_c| * t * w_min(K), where w_min(K) is the least |I|^s on the
    row: |K|^s for s >= 0, else (|K|^2 + N^2)^(s/2).  So the two integers
    around r (clipped to [-N, N]) are scored first, and the pair at
    distance >= t only while the best score so far exceeds that bound,
    with a relative slack of 1e-9.  A root within rounding of an integer
    is safe, because that integer is one of the two.  Since |omega_c| is
    largest, |r| <= (n - 1) * N.  For s >= 0 the row K = 0 alone scores no
    more than any pair at distance >= 1, so widening serves s < 0.  The
    zero sample scores 0.

    Each numpy pass streams through a whole batch, so the kernel is bound
    by memory traffic, and fresh temporaries of every pass cost allocation
    and cache misses: it runs in batches of about ``_BATCH_CELLS``
    sample-row cells, and every pass writes into five buffers made once per
    call, which then stay in cache.  Every cell goes through the same IEEE
    operations, in the same order, as the plain expressions |wc * x + d| *
    sqrt(x * x + K2)**s, so the bits do not depend on the batch size.

    Before each widening step one value per sample, the bound of its
    lowest row, t * (|omega_c| * min_K w_min(K)), is tested first, and the
    (sample x row) mask is built only if some sample passes.  Rounding is
    monotone, so that value is no more than the rounded t * (|omega_c| *
    w_min(K)) of any row, and a cell whose bound the best score exceeds
    belongs to a sample that passes: the test drops only steps that would
    widen nothing.  For s >= 0, best <= |omega_c| <= |omega_c| * min_K
    w_min(K), so it ends the loop at t = 1 unless the best is within the
    slack of that bound.
    """
    import numpy as np

    n = pts.shape[1]
    rows = list(half_ball(n - 1, N))
    K = np.array(rows, dtype=float).reshape(len(rows), n - 1)
    K2 = (K * K).sum(axis=1)
    wmin = np.sqrt(K2 + (N * N if s < 0 else 0)) ** s
    row0 = min(1.0, np.float64(N) ** (1 + s))
    batch = max(1, _BATCH_CELLS // max(1, len(K)))

    def score(src, wc, d, x, out):
        """|wc * x + d| * sqrt(x * x + K2)**s with x = src clipped to [-N, N], into out (src may be out)."""
        np.clip(src, -N, N, out=x)
        np.multiply(x, x, out=out)
        out += K2
        np.sqrt(out, out=out)
        out **= s
        x *= wc
        x += d
        np.abs(x, out=x)
        out *= x
        return out

    c_of = np.abs(pts).argmax(axis=1)
    stat = np.zeros(len(pts))
    if len(K):
        lowest = wmin.min()
        d_, r_, x_, a_, b_ = np.empty((5, min(batch, len(pts)), len(K)))
    for c in range(n):
        idx = np.flatnonzero((c_of == c) & (pts[:, c] != 0))
        for lo in range(0, len(idx), batch):
            at = idx[lo : lo + batch]
            wc = pts[at, c, None]
            awc = np.abs(wc)
            best = awc[:, 0] * row0
            if len(K):
                m = len(at)
                d, r, x, a, b = d_[:m], r_[:m], x_[:m], a_[:m], b_[:m]
                rest = np.delete(pts[at], c, axis=1)
                np.multiply(rest[:, [0]], K[:, 0], out=d)  # a -0.0 here leaves no trace in the scores
                for k in range(1, n - 1):
                    d += rest[:, [k]] * K[:, k]
                np.divide(d, -wc, out=r)  # (-d) / wc, to the bit
                np.floor(r, out=r)
                score(r, wc, d, x, a)
                np.add(r, 1, out=b)
                np.minimum(a, score(b, wc, d, x, b), out=a)
                best = np.minimum(best, a.min(axis=1))
                low = awc[:, 0] * lowest  # per sample, the bound of its lowest row at t = 1
                for t in count(1):
                    if not (best * (1 + 1e-9) > t * low).any():
                        break
                    far = (best[:, None] * (1 + 1e-9) > t * (awc * wmin)) & ((r - t >= -N) | (r + 1 + t <= N))
                    if not far.any():
                        break
                    np.subtract(r, t, out=a)
                    score(a, wc, d, x, a)
                    np.add(r, 1, out=b)
                    b += t
                    np.minimum(a, score(b, wc, d, x, b), out=a)
                    a[~far] = np.inf
                    best = np.minimum(best, a.min(axis=1))
            stat[at] = best
    return stat


def measure_estimate(
    n: int,
    R: float,
    C_values,
    nu,
    N: int,
    samples: int,
    seed: int,
) -> list[MeasureEstimate]:
    """Monte-Carlo estimates, one per C, of the bad-frequency fraction in the ball B_R.

    Each sample omega is scored once by the quantity ``kolmogorov_constant``
    minimizes, m(omega) = min over 0 < |I|_sup <= N of |(omega, I)| * |I|^s
    with s = n - 1 + nu, and is bad for C when m(omega) < C.  The samples
    are drawn once, by seeded rejection from the bounding cube on the one
    stream ``np.random.default_rng(seed)``, so every C sees the same samples.
    ``_row_statistic`` scores a few candidates per lattice row, not the
    whole ball, in cache-sized batches of ``_BATCH_CELLS`` sample-row cells
    whose passes write into buffers made once, with the same bits as fresh
    temporaries; a widening step is skipped when a one-value-per-sample
    bound, no more than the bound of any row by monotone rounding, shows
    that it would widen no row.

    In floats, (omega, I) is off by at most about n^1.5 * 2^-53 * R * N, an
    error that |I|^s multiplies, and the power and the product add about
    (|s| + 3) ulps of relative error; tol = 1e-12 * (R * N * max|I|^s +
    (1 + |s|) * |C|) bounds both by a wide margin, with max|I|^s =
    (n * N^2)^(s/2) for s >= 0 and 1 for s < 0 (infinite when it overflows).
    A sample with |m(omega) - C| < tol, or with a non-finite m(omega), is
    rechecked exactly: ``kolmogorov_constant`` of its coordinates (exact
    binary fractions) gives m(omega)^(2q) for s = p/q, compared with C^(2q).
    """
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    if R < 0:
        raise InvalidInput("ball radius R must be >= 0")
    if not n * R * R <= float_info.max:  # the ball test sums n squares; R may be an int
        raise InvalidInput("ball radius R is too large: n*R^2 is not a finite float")
    nu = Fraction(nu)
    s = n - 1 + nu
    rng = np.random.default_rng(seed)
    pts = np.empty((0, n))
    while len(pts) < samples:
        cand = rng.uniform(-R, R, size=(max(samples, 1024), n))
        pts = np.vstack([pts, cand[(cand**2).sum(axis=1) <= R * R]])
    pts = pts[:samples]
    with np.errstate(over="ignore", invalid="ignore"):
        stat = _row_statistic(pts, float(s), N)
        wmax = np.sqrt(np.float64(n * N * N)) ** float(s) if s >= 0 else 1.0
        scale = R * N * wmax

    @cache
    def exact(i) -> DiophantineEstimate:
        return kolmogorov_constant(FrequencyVector(tuple(map(Fraction, pts[i])), RATIONAL), nu, N)

    out = []
    for C in C_values:
        gap = np.abs(stat - C)
        tol = 1e-12 * (scale + (1 + abs(float(s))) * abs(C))
        narrow = np.flatnonzero(~(gap >= tol))  # NaN gaps too
        bad = stat < C
        bad[narrow] = [C > 0 and exact(i).min_power < Fraction(C) ** exact(i).power for i in narrow]
        frac = int(bad.sum()) / samples
        stderr = float(np.sqrt(frac * (1.0 - frac) / samples))
        margin = float(gap[np.isfinite(gap)].min(initial=np.inf))
        out.append(MeasureEstimate(C, frac, stderr, samples, seed, margin, len(narrow)))
    return out
