from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, product
from math import floor, gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kamforge import diophantine
from kamforge.diophantine import (
    FourierTable,
    _row_statistic,
    FrequencyVector,
    decay_fit,
    hadamard_apply,
    half_ball,
    kolmogorov_constant,
    liouville_witness,
    measure_estimate,
    small_denominator_series,
)
from kamforge.errors import InsufficientSupport, ResonantDenominator
from kamforge.scalar import (
    RATIONAL,
    QuadScalar,
    _convergent_pairs,
    _partial_quotients,
    certified_root,
    continued_fraction,
    convergents,
    exact_sign,
    integer_bounds,
    quadratic,
)

CTX2 = quadratic(2)
OMEGA_SQRT2 = FrequencyVector((CTX2.one, CTX2.sqrt_d()), CTX2)


def test_kolmogorov_constant_resonant():
    om = FrequencyVector((Fraction(1), Fraction(1)), RATIONAL)
    est = kolmogorov_constant(om, 1, 2)
    assert est.c_est.value == 0.0
    assert est.worst == (1, -1)


def test_kolmogorov_constant_sqrt2():
    est = kolmogorov_constant(OMEGA_SQRT2, 1, 100)
    assert est.c_est.value > 0
    # exact value at the worst vector (1,-1): |1-sqrt2| * 2 = 2(sqrt2-1)
    assert abs(est.c_est.value - 2 * (2**0.5 - 1)) < 1e-10
    assert est.worst == (1, -1)


def test_kolmogorov_constant_monotone_in_N():
    prev = None
    for N in (5, 10, 40, 160):
        est = kolmogorov_constant(OMEGA_SQRT2, 1, N)
        if prev is not None:
            assert exact_sign(est.min_power - prev) <= 0
        prev = est.min_power


def test_pruned_scan_matches_brute_force():
    # the n = 2 sweep must agree with full exact enumeration, also when
    # the minimizer lies in the last row |I2| = N
    for (omega, nu), N in product([
        (OMEGA_SQRT2, 1),
        (FrequencyVector((CTX2.sqrt_d(), -2), CTX2), 1),
        (FrequencyVector((Fraction(3, 7), Fraction(22, 9)), RATIONAL), Fraction(1, 2)),
    ], (1, 2, 3, 7, 25)):
        s = Fraction(1 + Fraction(nu))
        p_, q_ = s.numerator, s.denominator
        best, worst = None, None
        for I in product(range(-N, N + 1), repeat=2):
            nz = next((x for x in I if x), 0)
            if nz <= 0:
                continue
            dot = omega.dot(I)
            if exact_sign(dot) == 0:
                continue
            key = (dot * dot) ** q_ * Fraction(sum(x * x for x in I)) ** p_
            if best is None or exact_sign(key - best) < 0:
                best, worst = key, I
        est = kolmogorov_constant(omega, nu, N)
        assert exact_sign(est.min_power - best) == 0
        assert est.worst == worst


def test_worst_vectors_are_convergents():
    cf = continued_fraction(CTX2.sqrt_d(), 20)
    pairs = set(convergents(cf))
    for N in (10, 100, 1000):
        est = kolmogorov_constant(OMEGA_SQRT2, 1, N)
        p, q = abs(est.worst[0]), abs(est.worst[1])
        assert (p, q) in pairs


GOLDEN = QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)


def _abs(x):
    return -x if exact_sign(x) < 0 else x


def _walk(omega, nu, N):
    """(least key, its first vector) over the half ball 0 < |I|_sup <= N in lexicographic
    order, by brute force, with key = (|(omega, I)| * |I|^s)^(2q) for s = n - 1 + nu = p/q;
    the first resonant vector ends the walk with key 0."""
    s = omega.n - 1 + Fraction(nu)
    best = worst = None
    for I in product(range(-N, N + 1), repeat=omega.n):
        if next((x for x in I if x), 0) <= 0:
            continue
        dot = sum(w * x for w, x in zip(omega.entries, I))
        if not dot:
            return 0, I
        key = (dot * dot) ** s.denominator * Fraction(sum(x * x for x in I)) ** s.numerator
        if best is None or exact_sign(key - best) < 0:
            best, worst = key, I
    return best, worst


_ratio = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 20))


@st.composite
def _omega_cases(draw):
    """(omega, nu, N): rational or Q(sqrt d) entries, either sign, omega_1 = 0,
    and rational alpha = omega_2 / omega_1 resonant inside or only beyond the ball."""
    d = draw(st.sampled_from([0, 2, 3, 5]))
    ctx = quadratic(d) if d else RATIONAL
    nu = draw(st.sampled_from([0, Fraction(1, 3), 1, 2, Fraction(7, 3)]))
    N = draw(st.integers(1, 60))

    def entry():
        return ctx.coerce(draw(_ratio)) + (draw(_ratio) * ctx.sqrt_d() if d else 0)

    shape = draw(st.sampled_from(["free", "zero", "inside", "beyond"]))
    if shape == "free":
        w = (entry(), entry())
    elif shape == "zero":
        w = (ctx.zero, entry())
    else:
        # alpha = a / b: the resonance (a, -b) lies in the ball, or only past |I1| <= N
        b = draw(st.integers(1, N))
        a = draw(st.integers(-N, N) if shape == "inside" else st.integers(N + 1, 3 * N))
        a *= draw(st.sampled_from([1, -1]))
        assume(gcd(a, b) == 1)
        lam = entry()
        assume(lam)
        w = (lam * b, lam * a)
    return FrequencyVector(w, ctx), nu, N


def _assert_matches_walk(omega, nu, N):
    est = kolmogorov_constant(omega, nu, N)
    key, worst = _walk(omega, nu, N)
    assert exact_sign(est.min_power - key) == 0
    assert est.worst == worst


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_omega_cases())
# minima on rows that a block bound twice too large would skip
@example((FrequencyVector((Fraction(-19, 6), Fraction(4)), RATIONAL), 0, 9))
@example((FrequencyVector((QuadScalar(Fraction(-9, 2), Fraction(-12, 13), 3), QuadScalar(Fraction(-11, 16), Fraction(17, 13), 3)), quadratic(3)), 0, 40))
def test_kolmogorov_constant_n2_matches_half_ball_walk(case):
    _assert_matches_walk(*case)


@st.composite
def _omega_cases_every_n(draw):
    """(omega, nu, N) for n in {1, 2, 3}: s = n - 1 + nu of either sign, zero entries,
    and omega a multiple of an integer vector, resonant inside the ball or not."""
    n = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.sampled_from([0, 2, 3, 5]))
    ctx = quadratic(d) if d else RATIONAL
    s = draw(st.sampled_from([Fraction(k, 2) for k in range(-7, 5)] + [Fraction(1, 3)]))
    N = draw(st.integers(1, {1: 30, 2: 12, 3: 4}[n]))

    def entry():
        if draw(st.integers(0, 5)) == 5:
            return ctx.zero
        return ctx.coerce(draw(_ratio.filter(bool))) + (draw(_ratio) * ctx.sqrt_d() if d else 0)

    if draw(st.integers(0, 2)):
        w = tuple(entry() for _ in range(n))
    else:
        lam = entry()
        assume(lam)
        w = tuple(lam * draw(st.integers(-N - 2, N + 2)) for _ in range(n))
    return FrequencyVector(w, ctx), s - (n - 1), N


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_omega_cases_every_n())
@example((FrequencyVector((0, 0), RATIONAL), 1, 3))  # resonant at (0, 1) first
@example((FrequencyVector((0, 0, 0), CTX2), Fraction(-5, 2), 2))
@example((FrequencyVector((Fraction(3),), RATIONAL), -1, 5))  # s = -1: row K = 0 ties
@example((FrequencyVector((1, Fraction(1, 10)), RATIONAL), -2, 3))  # s = -1, the minimum on row K = 0
@example((FrequencyVector((CTX2.sqrt_d(), 1, 0), CTX2), 1, 3))  # omega_n = 0
@example((FrequencyVector((1, 0), RATIONAL), Fraction(-5, 2), 4))  # omega_n = 0, s < 0
@example((FrequencyVector((1, CTX2.sqrt_d(), Fraction(1, 1000)), CTX2), Fraction(-7, 2), 4))  # root far outside the ball
@example((FrequencyVector((Fraction(-3, 20), Fraction(97, 100)), RATIONAL), -6, 2))  # minimum at (2, 2), far from its row's root
@example((FrequencyVector((Fraction(1, 10), Fraction(11, 20)), RATIONAL), -9, 4))  # at (4, -4); a bound by |K| alone stops short
def test_kolmogorov_constant_matches_half_ball_walk_every_n(case):
    _assert_matches_walk(*case)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_half_ball_is_the_filtered_product(n, N):
    expected = [I for I in product(range(-N, N + 1), repeat=n) if next((x for x in I if x), 0) > 0]
    assert list(half_ball(n, N)) == expected


def _scored(monkeypatch, omega, nu, N):
    """The vectors ``kolmogorov_constant`` passes to ``FrequencyVector.dot``, in order."""
    calls = []
    dot = FrequencyVector.dot

    def counting_dot(self, I):
        calls.append(I)
        return dot(self, I)

    monkeypatch.setattr(FrequencyVector, "dot", counting_dot)
    kolmogorov_constant(omega, nu, N)
    return calls


OMEGA3 = FrequencyVector((1, CTX2.sqrt_d(), Fraction(311, 99)), CTX2)


@pytest.mark.parametrize(
    "omega, nu, N",
    [
        (FrequencyVector((CTX2.sqrt_d(),), CTX2), 1, 9),
        (FrequencyVector((CTX2.sqrt_d(),), CTX2), -3, 9),
        (OMEGA_SQRT2, 1, 30),
        (OMEGA_SQRT2, Fraction(-3, 2), 30),
        (FrequencyVector((Fraction(3, 7), Fraction(22, 9)), RATIONAL), Fraction(-5, 2), 12),
        (OMEGA3, 1, 6),
        (OMEGA3, Fraction(-5, 2), 4),
    ],
)
def test_sweep_scores_in_half_ball_order(monkeypatch, omega, nu, N):
    position = {I: k for k, I in enumerate(half_ball(omega.n, N))}
    order = [position[I] for I in _scored(monkeypatch, omega, nu, N)]
    assert order and all(a < b for a, b in zip(order, order[1:]))


@pytest.mark.parametrize(
    "omega, nu, N, most",
    [
        (OMEGA3, 1, 20, 2000),  # the half-ball walk made 34460
        (OMEGA_SQRT2, Fraction(-3, 2), 200, 1000),  # the half-ball walk made 80400
    ],
)
def test_sweep_scores_few_vectors(monkeypatch, omega, nu, N, most):
    assert len(_scored(monkeypatch, omega, nu, N)) <= most


@pytest.mark.parametrize(
    "alpha",
    [
        CTX2.sqrt_d(),
        quadratic(3).sqrt_d(),
        GOLDEN,  # a_1 = 1, so q_0 = q_1 = 1 and the k = 0 block is empty
        -CTX2.sqrt_d(),
        1 - GOLDEN,
        RATIONAL.coerce(Fraction(355, 113)),
        RATIONAL.coerce(Fraction(17, 10)),  # [1; 1, 2, 3]: a_1 = 1
        RATIONAL.coerce(Fraction(2, 11)),  # [0; 5, 2]: the k = 0 block holds rows 1 to 4
        RATIONAL.coerce(Fraction(-7, 5)),
        RATIONAL.coerce(3),
        RATIONAL.zero,
    ],
)
def test_convergent_blocks_bound_every_row(alpha):
    conv = list(islice(_convergent_pairs(_partial_quotients(alpha)), 12))
    rational = not alpha.b
    qs = [q for _, q in conv]
    assert qs[0] == 1 and all(a < b for a, b in zip(qs[1:], qs[2:]))
    for (p0, q0), (p1, q1) in zip(conv, conv[1:]):
        assert abs(p1 * q0 - p0 * q1) == 1
    if rational:
        assert len(conv) < 12 and conv[-1][0] == alpha * conv[-1][1]
    elif alpha > 0:
        assert conv == convergents(continued_fraction(alpha, 12))
    # Lagrange: on every row q_k <= q < q_{k+1}, min_p |q alpha - p| >= |q_k alpha - p_k|
    ends = qs[1:] + [400] * rational  # an irrational's last block runs on past q_11
    for (pk, qk), end in zip(conv, ends):
        gap = _abs(qk * alpha - pk)
        for q in range(qk, min(end, 400)):
            near = floor(float(q * alpha))
            brute = min(_abs(q * alpha - p) for p in range(near - 2, near + 4))
            assert brute >= gap


def test_dim2_sweep_skips_convergent_blocks(monkeypatch):
    calls = []
    dot = FrequencyVector.dot

    def counting_dot(self, I):
        calls.append(I)
        return dot(self, I)

    monkeypatch.setattr(FrequencyVector, "dot", counting_dot)
    est = kolmogorov_constant(OMEGA_SQRT2, 1, 10**4)
    assert est.worst == (1, -1)
    assert len(calls) <= 50  # the row-by-row sweep made 14144


def test_liouville_witness_values():
    w1 = liouville_witness(1, 1, 4)
    # |(omega, beta_1)| = 10 (10^-2 + 10^-6 + 10^-24), exactly
    expected = 10 * (Fraction(1, 10**2) + Fraction(1, 10**6) + Fraction(1, 10**24))
    assert w1.pairing_exact == expected
    w2 = liouville_witness(2, 1, 4)
    # leading order 10^2 * 10^-6 = 10^-4
    assert abs(w2.pairing.value - 1e-4) < 1e-8
    assert w2.pairing_exact == 100 * Fraction(1, 10**6) + 100 * Fraction(1, 10**24)


def test_liouville_products_decrease():
    ws = [liouville_witness(k, 1, 4) for k in (1, 2, 3)]
    powers = [w.product_power() for w in ws]
    assert powers[0] > powers[1] > powers[2]


def test_liouville_validation():
    with pytest.raises(ValueError):
        liouville_witness(0, 1, 4)
    with pytest.raises(ValueError):
        liouville_witness(3, 1, 3)


def test_small_denominator_series():
    table = small_denominator_series(OMEGA_SQRT2, 5)
    assert abs(table.coefficients[(1, -1)] - (1 + 2**0.5)) < 1e-12
    assert abs(table.coefficients[(0, 1)] - 1 / 2**0.5) < 1e-12
    assert (0, 0) not in table.coefficients
    with pytest.raises(ResonantDenominator) as exc:
        small_denominator_series(FrequencyVector((Fraction(1), Fraction(2)), RATIONAL), 3)
    assert exc.value.vector == (2, -1)


# a unit of Q(sqrt d) greater than 1, whose powers have huge a and b that nearly cancel in 1/u^k
_UNITS = {2: (1, 1), 3: (2, 1), 5: (Fraction(1, 2), Fraction(1, 2))}


@st.composite
def _table_cases(draw):
    """(omega, N): rational or Q(sqrt d) entries of either sign, n in {1, 2, 3}, sometimes
    scaled by a power of a unit so that tiny entries widen sqrt(d) past 30 digits."""
    d = draw(st.sampled_from([0, 2, 3, 5]))
    ctx = quadratic(d) if d else RATIONAL
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(1, {1: 10, 2: 5, 3: 2}[n]))

    def entry():
        w = ctx.coerce(draw(_ratio)) + (draw(_ratio) * ctx.sqrt_d() if d else 0)
        if d and draw(st.booleans()):
            w = w * QuadScalar(*_UNITS[d], d) ** draw(st.integers(8, 40))
        return w

    return FrequencyVector(tuple(entry() for _ in range(n)), ctx), N


def _reference_table(omega, N):
    """The table as one certified root of 1/(omega, I)^2 per I in product order, or the
    first resonant vector met, normalised."""
    out = []
    for I in product(range(-N, N + 1), repeat=omega.n):
        if any(I):
            dot = omega.dot(I)
            if not dot:
                sign = 1 if next(x for x in I if x) > 0 else -1
                return tuple(sign * x for x in I)
            out.append((I, certified_root(1 / (dot * dot), 2).value))
    return out


_UNIT2_31 = QuadScalar(1, 1, 2) ** 31  # 1 / (1 + sqrt 2)^31 is about 1.4e-12


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_table_cases())
@example((FrequencyVector((_UNIT2_31, CTX2.one), CTX2), 2))
@example((FrequencyVector((-_UNIT2_31, _UNIT2_31.conjugate(), CTX2.sqrt_d()), CTX2), 1))
@example((FrequencyVector((Fraction(1), Fraction(2)), RATIONAL), 4))
def test_small_denominator_series_matches_certified_root(case):
    omega, N = case
    ref = _reference_table(omega, N)
    try:
        got = list(small_denominator_series(omega, N).coefficients.items())
    except ResonantDenominator as exc:
        got = exc.vector
    assert got == ref


def test_small_denominator_tiny_entry_widens_past_30_digits():
    table = small_denominator_series(FrequencyVector((_UNIT2_31, CTX2.one), CTX2), 2)
    # 1 / (1 + sqrt 2)^31 = (sqrt 2 - 1)^31, to 60 digits
    with localcontext() as dec:
        dec.prec = 60
        exact = (Decimal(2).sqrt() - 1) ** 31
    assert abs(Decimal(table.coefficients[(1, 0)]) - exact) <= exact * Decimal(2) ** -50
    x = 1 / (_UNIT2_31 * _UNIT2_31)
    _, _, D = integer_bounds(x.a, x.b, x.d, x.den)
    assert D // x.den >= 10**60


@pytest.mark.parametrize("N, vector", [(3, (2, -1)), (4, (4, -2)), (6, (6, -3))])
def test_small_denominator_series_reports_first_resonance(N, vector):
    with pytest.raises(ResonantDenominator) as exc:
        small_denominator_series(FrequencyVector((Fraction(1), Fraction(2)), RATIONAL), N)
    assert exc.value.vector == vector


def test_small_denominator_series_one_root_per_pair(monkeypatch):
    calls = []
    root_value = diophantine.root_value

    def counting_root_value(*args):
        calls.append(args)
        return root_value(*args)

    monkeypatch.setattr(diophantine, "root_value", counting_root_value)
    table = small_denominator_series(OMEGA_SQRT2, 12)
    assert len(table.coefficients) == 624
    assert len(calls) == 312  # one certified root per entry made 624


def _ball(N):
    return [I for I in product(range(-N, N + 1), repeat=2) if I != (0, 0)]


def test_hadamard_examples():
    # (2q + 3q^2) * (5q + 7q^3) = 10 q
    a = FourierTable({(1, 0): 2.0, (2, 0): 3.0})
    b = FourierTable({(1, 0): 5.0, (3, 0): 7.0})
    assert hadamard_apply(a, b).coefficients == {(1, 0): 10.0}
    f = FourierTable({I: float(np.exp(-np.hypot(*I))) for I in _ball(6)})
    ones = FourierTable({I: 1.0 for I in f.coefficients})
    assert hadamard_apply(ones, f).coefficients == f.coefficients
    # commutative and associative on finite tables
    h = small_denominator_series(OMEGA_SQRT2, 6)
    ab = hadamard_apply(h, f)
    assert ab.coefficients == hadamard_apply(f, h).coefficients
    c = FourierTable({I: 0.5 for I in f.coefficients})
    left = hadamard_apply(hadamard_apply(h, f), c).coefficients
    right = hadamard_apply(h, hadamard_apply(f, c)).coefficients
    assert left == pytest.approx(right)


def test_hadamard_preserves_decay():
    h = small_denominator_series(OMEGA_SQRT2, 12)
    f = FourierTable({I: float(np.exp(-2 * np.hypot(*I))) for I in h.coefficients})
    prod = hadamard_apply(h, f)
    assert decay_fit(prod).slope < -1.0  # still exponentially decaying


def test_decay_fit_examples():
    pts = _ball(20)
    exp2 = FourierTable({I: float(np.exp(-2 * np.hypot(*I))) for I in pts})
    fit = decay_fit(exp2)
    assert abs(fit.slope + 2.0) < 1e-6 and fit.residual < 1e-9
    grow = FourierTable({I: float(np.exp(+np.hypot(*I))) for I in pts})
    assert abs(decay_fit(grow).slope - 1.0) < 1e-6
    poly = FourierTable({I: float(np.hypot(*I) ** 3) for I in pts})
    fit20 = decay_fit(poly)
    poly50 = FourierTable(
        {I: float(np.hypot(*I) ** 3) for I in _ball(50)}
    )
    fit50 = decay_fit(poly50)
    assert abs(fit50.slope) < abs(fit20.slope)  # slope -> 0 as N grows
    with pytest.raises(InsufficientSupport):
        decay_fit(FourierTable({(1, 0): 1.0, (0, 1): 2.0}))


def test_measure_estimate_reproducible_and_limits():
    kw = dict(n=2, R=1.0, nu=1, N=20, samples=4000, seed=11)
    [e1] = measure_estimate(C_values=[0.05], **kw)
    assert measure_estimate(C_values=[0.05], **kw) == [e1]
    tiny, small, mid, big, huge = measure_estimate(C_values=[1e-12, 0.02, 0.05, 0.1, 100.0], **kw)
    assert tiny.fraction_bad == 0.0 and huge.fraction_bad == 1.0
    # same samples: badness is monotone in C
    assert small.fraction_bad <= mid.fraction_bad <= big.fraction_bad
    # one pass answers each C as a call for that C alone does
    assert mid == e1


def test_measure_estimate_rechecks_borderline_sample_exactly():
    # the one sample is the first point of the seed's stream inside the unit disc
    cand = np.random.default_rng(4).uniform(-1.0, 1.0, size=(1024, 2))
    omega = cand[(cand**2).sum(axis=1) <= 1.0][0]
    exact = kolmogorov_constant(FrequencyVector(tuple(map(Fraction, omega)), RATIONAL), 1, 10)
    # m(omega) lies between adjacent floats near the certified value
    c = exact.c_est.value
    Cs = [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    ests = measure_estimate(n=2, R=1.0, C_values=Cs, nu=1, N=10, samples=1, seed=4)
    expected = [float(exact.min_power < Fraction(C) ** exact.power) for C in Cs]
    assert [e.exact_rechecks for e in ests] == [1, 1, 1]
    assert [e.fraction_bad for e in ests] == expected
    assert expected[0] == 0.0 and expected[-1] == 1.0


def _dense_statistic(pts, s, N):
    """m(omega) by brute force over the whole cube 0 < |I|_sup <= N."""
    cube = np.array([I for I in product(range(-N, N + 1), repeat=pts.shape[1]) if any(I)], dtype=float)
    return (np.abs(pts @ cube.T) * np.sqrt((cube**2).sum(axis=1)) ** s).min(axis=1)


@pytest.mark.parametrize("n, N", [(1, 7), (2, 2), (2, 6), (3, 3)])
@pytest.mark.parametrize("s", [-5.0, -0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("R", [0.5, 3.0])
def test_row_statistic_matches_dense_cube(n, N, s, R):
    rng = np.random.default_rng(10 * n + N)
    cand = rng.uniform(-R, R, size=(600, n))
    pts = [cand, np.zeros((1, n)), 0.7 * R * np.eye(n)]  # the zero sample, axis-aligned samples
    if n > 1:
        tie = np.full(n, 0.2 * R)
        tie[:2] = 0.6 * R
        flip = tie.copy()
        flip[1] *= -1  # |omega_1| = |omega_2| largest, either sign
        gap = cand[:50].copy()
        gap[:, -1] = 0.0  # a zero coordinate
        pts += [tie[None], flip[None], gap]
    pts = np.vstack(pts)
    # both sides round (omega, I) differently; this bounds the difference
    atol = 1e-12 * R * N * (n * N * N) ** max(s, 0.0)
    np.testing.assert_allclose(_row_statistic(pts, s, N), _dense_statistic(pts, s, N), rtol=1e-12, atol=atol)


def test_row_statistic_widens_rows_for_negative_s():
    # c = 2nd coordinate; on row K = -2 the root is -0.31, yet x = -2 beats
    # both integers around it, and the rows K = 0, +-1 score higher
    omega = np.array([[-0.15, 0.97]])
    s, N = -5.0, 2
    values = {
        x: abs(0.97 * x - 0.15 * -2) * (x * x + 4) ** (s / 2) for x in range(-N, N + 1)
    }
    assert min(values, key=values.get) == -2
    dense = _dense_statistic(omega, s, N)
    assert dense[0] == pytest.approx(values[-2], rel=1e-12)
    np.testing.assert_allclose(_row_statistic(omega, s, N), dense, rtol=1e-12)


@pytest.mark.parametrize(
    "seed, samples, n_bad",
    [
        (1, 4000, [1642, 903, 473]),
        (2, 4000, [1616, 884, 468]),
        (3, 4000, [1630, 875, 462]),
        (7, 100_000, [40424, 21879, 11384]),  # criterion 10
    ],
)
def test_measure_estimate_pinned_bad_counts(seed, samples, n_bad):
    # the benchmark's measure shape; counts taken with the dense half-ball product
    ests = measure_estimate(n=2, R=1.0, C_values=[0.1, 0.05, 0.025], nu=1, N=50, samples=samples, seed=seed)
    assert [round(e.fraction_bad * samples) for e in ests] == n_bad


def test_measure_estimate_large_nu_is_silent(recwarn):
    # max|I|^s overflows, so tol is infinite and every sample is rechecked exactly
    [est] = measure_estimate(n=2, R=1.0, C_values=[0.1], nu=1000, N=3, samples=20, seed=1)
    assert (est.fraction_bad, est.exact_rechecks) == (0.5, 20)
    assert [str(w.message) for w in recwarn] == []
