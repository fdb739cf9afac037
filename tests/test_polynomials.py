"""Higher-order polynomials, numbers, Chebyshev weights."""

import itertools
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralwalk import (
    Family,
    Poly,
    UmbralExpr,
    bernoulli_number,
    chebyshev_polynomial,
    chebyshev_recip_weights,
    euler_number,
    eval_poly,
    hop_bernoulli,
    hop_euler,
    umbral_moment,
)
from umbralwalk import series
from umbralwalk.polynomials import chebyshev_lattice_numerators
from umbralwalk.series import Kernel, kernel_power_numerators


def poly(*coeffs):
    return Poly(tuple(F(c) for c in coeffs))


# --- polynomial values -------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 3, 8])
def test_degree_zero_is_one(p):
    assert hop_bernoulli(0, p) == poly(1)
    assert hop_euler(0, p) == poly(1)


def test_hop_bernoulli_basics():
    assert hop_bernoulli(2, 1) == poly(F(1, 6), -1, 1)
    for p in (0, 1, 2, 7):
        assert hop_bernoulli(1, p) == poly(F(-p, 2), 1)
        assert hop_euler(1, p) == poly(F(-p, 2), 1)


def test_hop_euler_degree_two():
    assert hop_euler(2, 1) == poly(0, -1, 1)


def test_order_zero_gives_plain_power():
    assert hop_bernoulli(4, 0) == poly(0, 0, 0, 0, 1)
    assert hop_euler(3, 0) == poly(0, 0, 0, 1)


@pytest.mark.parametrize("hop", [hop_bernoulli, hop_euler])
def test_hop_memo_is_bounded(hop):
    hop.cache_clear()
    try:
        keys = [(n, p) for n in range(4) for p in range(275)]
        assert len(keys) == 1100
        for n, p in keys:
            hop(n, p)
        info = hop.cache_info()
        assert info.misses == 1100
        assert info.currsize <= 1024
    finally:
        hop.cache_clear()


@pytest.mark.parametrize("hop", [hop_bernoulli, hop_euler])
def test_float_degree_or_order_is_rejected_after_the_int_form(hop):
    # 2.0 and 2 hash alike, so an untyped cache would answer the float form
    # from the int form's entry
    assert hop(2, 1).degree == 2
    for args in ((2.0, 1), (2, 1.0)):
        with pytest.raises(ValueError, match="must be integers"):
            hop(*args)
    # an int degree or order below 0 is named as such
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        hop(-1, 1)
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        hop(1, -1)


def test_degree_and_leading_coefficient():
    for n in range(13):
        for p in range(9):
            for q in (hop_bernoulli(n, p), hop_euler(n, p)):
                assert q.degree == n
                assert q.leading_coefficient == 1


def test_appell_derivative_property():
    for n in range(1, 9):
        for p in range(0, 6):
            assert hop_bernoulli(n, p).derivative() == hop_bernoulli(
                n - 1, p
            ).scale(n)
            assert hop_euler(n, p).derivative() == hop_euler(n - 1, p).scale(n)


def test_umbral_consistency():
    """Moments of p summed letters reproduce the order-p polynomials."""
    for p in range(0, 6):
        bern = UmbralExpr.build((Family.BERNOULLI, 1, p))
        eul = UmbralExpr.build((Family.EULER, 1, p))
        for n in range(0, 11):
            assert umbral_moment(bern, n) == hop_bernoulli(n, p)
            assert umbral_moment(eul, n) == hop_euler(n, p)


# --- numbers ------------------------------------------------------------------


def test_bernoulli_numbers():
    got = [bernoulli_number(n) for n in range(5)]
    assert got == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]


def test_euler_numbers():
    assert [euler_number(n) for n in (0, 2, 4)] == [F(1), F(-1), F(5)]
    assert all(euler_number(n) == 0 for n in (1, 3, 5, 7, 9, 11))


def test_nist_half_and_five_sixths_reductions():
    # B_2m(1/2) = (2^(1-2m) - 1) B_2m and
    # B_2m(5/6) = (1/2)(1 - 2^(1-2m))(1 - 3^(1-2m)) B_2m, for m <= 6
    for m in range(1, 7):
        b2m = bernoulli_number(2 * m)
        q = hop_bernoulli(2 * m, 1)
        assert eval_poly(q, F(1, 2)) == (F(2) ** (1 - 2 * m) - 1) * b2m
        assert eval_poly(q, F(5, 6)) == (
            F(1, 2)
            * (1 - F(2) ** (1 - 2 * m))
            * (1 - F(3) ** (1 - 2 * m))
            * b2m
        )
        # the combined difference used when reducing the even-number sum
        assert eval_poly(q, F(5, 6)) - eval_poly(q, F(1, 2)) == (
            F(1, 2) * (1 - F(2) ** (1 - 2 * m)) * (1 - F(3) ** (1 - 2 * m))
            + (1 - F(2) ** (1 - 2 * m))
        ) * b2m


# --- Chebyshev weights ----------------------------------------------------------


def test_chebyshev_polynomials():
    assert chebyshev_polynomial(0) == poly(1)
    assert chebyshev_polynomial(1) == poly(0, 1)
    assert chebyshev_polynomial(2) == poly(-1, 0, 2)
    assert chebyshev_polynomial(3) == poly(0, -3, 0, 4)
    # T_(N+1) = 2x T_N - T_(N-1), on Fractions
    T = [(F(1),), (F(0), F(1))]
    for N in range(1, 40):
        twice_x = (F(0), *(2 * c for c in T[N]))
        lower = T[N - 1] + (F(0),) * (len(twice_x) - len(T[N - 1]))
        T.append(tuple(a - b for a, b in zip(twice_x, lower)))
    assert [chebyshev_polynomial(N).coeffs for N in range(41)] == T


def test_weights_index_one_is_identity():
    assert chebyshev_recip_weights(1, 6) == [0, 1, 0, 0, 0, 0]


def test_weights_index_two_closed_form():
    got = chebyshev_recip_weights(2, 12)
    for l in range(12):
        if l >= 2 and l % 2 == 0:
            assert got[l] == F(1, 2) ** (l // 2)
        else:
            assert got[l] == 0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_weights_positive_and_sum_to_one(N):
    w = chebyshev_recip_weights(N, 360)
    assert all(v >= 0 for v in w)
    partials = []
    total = F(0)
    for v in w:
        total += v
        partials.append(total)
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    assert total <= 1
    assert float(total) > 1 - 1e-12


def _fraction_recurrence_weights(N, count):
    """p_l = ([l = N] - sum_j Q_j p_{l-j}) / Q_0, on Fractions."""
    T = chebyshev_polynomial(N).coeffs
    q0, q = T[N], [T[N - j] for j in range(1, N + 1)]
    recent, out = [F(0)] * N, []
    for l in range(count):
        p = (int(l == N) - sum(qj * pj for qj, pj in zip(q, recent))) / q0
        recent = [p] + recent[:-1]
        out.append(p)
    return out


def _numerators(N, count):
    """The weights p_0..p_(count-1) of 1/T_N(1/t) scaled by 2^l."""
    weights = chebyshev_recip_weights(N, count)
    return [w * 2**l for l, w in enumerate(weights)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8])
def test_integer_weight_recurrence_equals_fraction_recurrence(N):
    reference = _fraction_recurrence_weights(N, 300)
    assert chebyshev_recip_weights(N, 300) == reference
    assert all(v.denominator == 1 for v in _numerators(N, 300))


@pytest.mark.parametrize("N", range(1, 9))
def test_weights_vanish_off_the_parity_of_N(N):
    # T_N has the parity of N, so t^N / Q(t) with Q(t) = t^N T_N(1/t) is
    # t^N times an even series
    P = _numerators(N, 300)
    assert all(v == 0 for l, v in enumerate(P) if (l - N) % 2)


def _integer_recurrence_numerators(N, count):
    """P_l = 2 [l = N] - sum_{j=1..N} (Q_j 2^j / Q_0) P_{l-j} over every
    tap, zeros included, with Q_j the coefficient of x^(N-j) in T_N and
    Q_0 = 2^(N-1): the full recurrence of p_l 2^l, each tap checked to be
    an integer."""
    T = chebyshev_polynomial(N).nums
    assert T[N] == 2 ** (N - 1)
    taps = [F(T[N - j] * 2**j, T[N]) for j in range(1, N + 1)]
    assert all(tap.denominator == 1 for tap in taps)
    q = [tap.numerator for tap in taps]
    recent, out = [0] * N, []
    for l in range(count):
        P = 2 * int(l == N) - sum(qj * pj for qj, pj in zip(q, recent))
        recent = [P] + recent[:-1]
        out.append(P)
    return out


@pytest.mark.parametrize("N", range(1, 33))
def test_interleaved_stream_equals_the_full_recurrence(N):
    # the weights interleave the lattice numerators with the zeros off it
    assert _numerators(N, 600) == _integer_recurrence_numerators(N, 600)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 32), st.integers(0, 400))
@example(32, 4096 - 32)
def test_lattice_numerators_over_2_to_the_l_are_the_weights(N, extra):
    weights = chebyshev_recip_weights(N, N + extra)
    lattice = range(N % 2, len(weights), 2)
    P = list(itertools.islice(chebyshev_lattice_numerators(N), len(lattice)))
    assert all(type(v) is int for v in P)
    assert [F(v, 2**l) for l, v in zip(lattice, P)] == weights[N % 2 :: 2]
    assert not any(weights[1 - N % 2 :: 2])


def test_weights_domain_errors():
    with pytest.raises(ValueError):
        chebyshev_recip_weights(0, 5)
    with pytest.raises(ValueError):
        chebyshev_recip_weights(3, 2)
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        chebyshev_polynomial(-1)


# --- evaluation -------------------------------------------------------------------


def _fraction_horner(q, x):
    acc = F(0)
    for c in reversed(q.coeffs):
        acc = acc * x + c
    return acc


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)


@given(
    st.lists(_rationals | st.integers(-9, 9).map(F), max_size=10),
    _rationals | st.integers(-30, 30),
    st.integers(1, 12),
)
@example([], F(5, 3), 3)
@example([F(0), F(0)], F(-2), 1)
@example([F(1, 2), F(-3, 4), F(5, 6)], 0, 1)
@example([F(1, 2), F(-3, 4), F(5, 6)], F(-7, 9), 4)
@settings(max_examples=300, deadline=None)
def test_integer_horner_equals_fraction_horner(coeffs, x, common):
    q = Poly(tuple(coeffs))
    value = q.eval(x)
    assert type(value) is F
    assert value == _fraction_horner(q, F(x))
    # `at` takes the point as an unreduced pair xn / xd and returns the
    # value unreduced, over den xd^deg
    xn, xd = F(x).numerator * common, F(x).denominator * common
    num, den = q.at(xn, xd)
    assert F(num, den) == _fraction_horner(q, F(xn, xd))
    assert den == (q.den * xd ** q.degree if q.nums else 1)


def test_eval_poly_examples():
    assert eval_poly(poly(F(1, 6), -1, 1), F(1, 2)) == F(-1, 12)
    assert eval_poly(Poly(), F(123, 7)) == 0
    assert eval_poly(hop_euler(1, 1), F(1, 2)) == 0


def test_poly_normalization():
    assert Poly((F(1), F(0), F(0))) == poly(1)
    assert Poly().degree == -1


def test_integer_form_is_computed_once_per_polynomial(monkeypatch):
    from umbralwalk import polynomials

    lcms = []

    def counting_lcm(*args):
        lcms.append(args)
        return lcm(*args)

    monkeypatch.setattr(polynomials, "lcm", counting_lcm)
    q = poly(F(1, 2), F(-3, 4), F(5, 6))
    for x in (0, 1, F(-1, 3), F(7, 2)):
        assert q.eval(x) == _fraction_horner(q, F(x))
    assert len(lcms) == 1
    # a polynomial built from kernel numerators carries its integer form
    built = [
        family(n, p)
        for n, p in ((7, 5), (12, 3), (0, 4))
        for family in (hop_euler, hop_bernoulli)
    ]
    for q in built:
        for x in (0, F(1, 2), F(-5, 3)):
            assert q.eval(x) == _fraction_horner(q, x)
    assert len(lcms) == 1
    monkeypatch.undo()
    for q in built:
        rebuilt = Poly(q.coeffs)
        assert (q.nums, q.den) == (rebuilt.nums, rebuilt.den)


def _reference_appell(nums, den, n):
    """n! [t^n] K(t) e^(xt) for K = nums / den, coefficient by coefficient:
    the coefficient of x^i is K_(n-i) n! / i!."""
    return Poly(
        [F(nums[n - i], den) * factorial(n) / factorial(i) for i in range(n + 1)]
    )


@contextmanager
def _empty_power_memo():
    """An emptied kernel-power memo for the block, the memo restored after."""
    saved = series._POWER_CACHE
    series._POWER_CACHE = {}
    try:
        yield
    finally:
        series._POWER_CACHE = saved


_HOP_KINDS = {Kernel.EULER: hop_euler, Kernel.BERNOULLI: hop_bernoulli}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(_HOP_KINDS)),
            st.integers(0, 24),
            st.integers(0, 29),
        ),
        min_size=1, max_size=12,
    )
)
@example([(Kernel.EULER, 20, 29), (Kernel.EULER, 3, 7), (Kernel.EULER, 24, 2),
          (Kernel.EULER, 24, 29), (Kernel.BERNOULLI, 0, 0)])
@example([(Kernel.BERNOULLI, 5, 3), (Kernel.BERNOULLI, 5, 3),
          (Kernel.BERNOULLI, 4, 3), (Kernel.BERNOULLI, 12, 1)])
def test_hop_polynomials_equal_a_fresh_memo_reference(requests):
    # the hop caches and the memo start empty; later requests read powers
    # that earlier ones built, at their order or a longer one
    with _empty_power_memo():
        for hop in _HOP_KINDS.values():
            hop.cache_clear()
        got = [_HOP_KINDS[kind](n, p) for kind, n, p in requests]
    for (kind, n, p), q in zip(requests, got):
        with _empty_power_memo():
            nums, den = kernel_power_numerators(kind, 1, p, n + 1)
        assert q == _reference_appell(nums, den, n), (kind, n, p)


def test_appell_polynomial_trims_a_zero_top_coefficient():
    from umbralwalk.polynomials import appell_polynomial

    # K = (0 + 3t + 5t^2) / 4: n! [t^2] K e^(xt) = 2 (3/4) x + 2 (5/4)
    q = appell_polynomial([0, 3, 5], 4, 2)
    assert q == poly(F(5, 2), F(3, 2))
    rebuilt = Poly(q.coeffs)
    assert (q.nums, q.den) == (rebuilt.nums, rebuilt.den) == ((5, 3), 2)
    zero = appell_polynomial([0, 0, 0], 7, 2)
    assert zero == Poly()
    assert (zero.nums, zero.den) == ((), 1)
    # numerators past the degree are not read
    assert appell_polynomial((0, 3, 5, 11, 13), 4, 2) == q


# --- ring operations against Fraction references -----------------------------------


def _trimmed(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


def _fraction_sum(a, b, sign):
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return _trimmed(x + sign * y for x, y in zip(a, b))


_coeff_lists = st.lists(
    _rationals | st.integers(-9, 9).map(F) | st.just(F(0)), max_size=8
)


@given(_coeff_lists, _coeff_lists, _rationals | st.integers(-5, 5), _rationals)
@example([F(1, 2), F(1, 3)], [F(1, 2), F(1, 3)], 0, F(0))
@example([F(1, 6), F(0), F(-1, 4)], [F(0), F(0), F(-1, 4)], F(2, 3), F(-3, 2))
@settings(max_examples=300, deadline=None)
def test_poly_operations_equal_fraction_references(a, b, v, x):
    p, q = Poly(a), Poly(b)
    v = F(v)
    results = {
        "coeffs": (p, _trimmed(a)),
        "+": (p + q, _fraction_sum(a, b, 1)),
        "-": (p - q, _fraction_sum(a, b, -1)),
        "scale": (p.scale(v), _trimmed(v * c for c in a)),
        "derivative": (p.derivative(), _trimmed(i * c for i, c in enumerate(a) if i)),
    }
    for name, (got, want) in results.items():
        assert list(got.coeffs) == want, name
        assert all(type(c) is F for c in got.coeffs), name
        # the unique normal form: lowest common denominator, no trailing zero
        assert got.den == lcm(*(c.denominator for c in want)), name
        assert got.nums == tuple(c * got.den for c in want), name
        assert got == Poly(want) and hash(got) == hash(Poly(want)), name
        assert got.degree == len(want) - 1, name
        assert got.eval(x) == sum(
            (c * x**i for i, c in enumerate(want)), F(0)
        ), name
