"""Exact series layer: kernels, arithmetic, resummation."""

from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralwalk import (
    ConstantTermError,
    Kernel,
    OrderMismatchError,
    PowerSeries,
    geometric_resum,
    kernel,
    kernel_power,
    ps_div,
    ps_mul,
    to_csv,
)
from umbralwalk import series as series_module
from umbralwalk.series import kernel_power_numerators, unit_power_numerators

ONE8 = PowerSeries.one(8)


def ps_pow(a, k):
    """Reference power by binary powering with ps_mul; a**0 is the unit series."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    result = PowerSeries.one(a.order)
    base = a
    while k:
        if k & 1:
            result = ps_mul(result, base)
        k >>= 1
        if k:
            base = ps_mul(base, base)
    return result


def series(values, order=8):
    return PowerSeries.from_coeffs([F(v) for v in values], order)


# --- multiplication -------------------------------------------------------


def test_mul_difference_of_squares():
    a = series([1, 1])
    b = series([1, -1])
    assert ps_mul(a, b) == series([1, 0, -1])


def test_mul_bernoulli_times_uniform_kernel_is_one():
    got = ps_mul(kernel(Kernel.BERNOULLI, 1, 10), kernel(Kernel.UNIFORM, 1, 10))
    assert got == PowerSeries.one(10)


def test_mul_sech_times_cosh_is_one():
    # oracle: multiply the two expansions by hand to order 6
    # sech = 1 - t^2/2 + 5t^4/24 - 61t^6/720, cosh = 1 + t^2/2 + t^4/24 + t^6/720
    sech = series([1, 0, F(-1, 2), 0, F(5, 24), 0, F(-61, 720), 0])
    cosh = series([1, 0, F(1, 2), 0, F(1, 24), 0, F(1, 720), 0])
    assert ps_mul(sech, cosh) == ONE8
    assert ps_mul(kernel(Kernel.SECH, 1, 8), kernel(Kernel.COSH, 1, 8)) == ONE8


def test_mul_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        ps_mul(PowerSeries.one(4), PowerSeries.one(5))
    with pytest.raises(OrderMismatchError, match="prefix of order 5 from"):
        PowerSeries.one(4).prefix(5)


# --- division --------------------------------------------------------------


def test_div_geometric_series():
    got = ps_div(ONE8, series([1, -1]))
    assert got == series([1] * 8)


def test_div_reciprocal_of_bernoulli_kernel():
    # oracle: direct factorial expansion of (e^t - 1)/t
    expected = PowerSeries(tuple(F(1, factorial(n + 1)) for n in range(10)))
    got = ps_div(PowerSeries.one(10), kernel(Kernel.BERNOULLI, 1, 10))
    assert got == expected


def _longdiv_odd_ratio(a, b, order):
    """Brute-force oracle: long division of the raw sinh expansions.

    Both series carry a common leading power of the variable; divide it
    out and run schoolbook division on plain coefficient lists.
    """
    num = [F(a) ** (2 * j + 1) / factorial(2 * j + 1) for j in range(order)]
    den = [F(b) ** (2 * j + 1) / factorial(2 * j + 1) for j in range(order)]
    num_full = [num[j // 2] if j % 2 == 0 else F(0) for j in range(order)]
    den_full = [den[j // 2] if j % 2 == 0 else F(0) for j in range(order)]
    out = []
    rem = list(num_full)
    for k in range(order):
        q = rem[0] / den_full[0]
        out.append(q)
        rem = [
            rem[i + 1] - q * den_full[i + 1] for i in range(len(rem) - 1)
        ]
        rem.append(F(0))
    return out

SINH_RATIO_1_2 = [
    F(1, 2), 0, F(-1, 4), 0, F(5, 48), 0, F(-61, 1440), 0,
    F(277, 16128), 0, F(-50521, 7257600), 0,
]


def test_div_sinh_ratio_golden_values():
    oracle = _longdiv_odd_ratio(1, 2, 12)
    assert oracle == [F(v) for v in SINH_RATIO_1_2]
    got = ps_div(
        kernel(Kernel.SINH_OVER_ARG, 1, 12), kernel(Kernel.SINH_OVER_ARG, 2, 12)
    ).scale(F(1, 2))
    assert list(got.coeffs) == oracle


def test_div_zero_constant_term_rejected():
    t = series([0, 1])
    with pytest.raises(ConstantTermError):
        ps_div(ONE8, t)


# --- powers ----------------------------------------------------------------


def test_pow_zero_is_unit():
    assert ps_pow(series([3, 2, 1]), 0) == ONE8


def test_pow_sech_squared():
    got = ps_pow(kernel(Kernel.SECH, 1, 5), 2)
    assert got == series([1, 0, -1, 0, F(2, 3)], order=5)


def test_pow_monomial():
    t = PowerSeries.from_coeffs([0, 1], 5)
    assert ps_pow(t, 3) == PowerSeries.from_coeffs([0, 0, 0, 1], 5)


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        ps_pow(ONE8, -1)
    with pytest.raises(ValueError, match="nonnegative integer, got -1"):
        kernel_power(Kernel.EULER, 1, -1, 5)


# --- kernels ----------------------------------------------------------------


def test_kernel_bernoulli_golden():
    got = kernel(Kernel.BERNOULLI, 1, 6)
    assert got == series([1, F(-1, 2), F(1, 12), 0, F(-1, 720), 0], order=6)


def test_kernel_sech_golden():
    got = kernel(Kernel.SECH, 1, 6)
    assert got == series([1, 0, F(-1, 2), 0, F(5, 24), 0], order=6)


def test_kernel_exp_zero_scale():
    assert kernel(Kernel.EXP, 0, 4) == PowerSeries.one(4)


def test_kernel_zero_scale_degenerates_to_limit_value():
    for kind in Kernel:
        got = kernel(kind, 0, 5)
        limit = 0 if kind is Kernel.SINH else 1
        assert got == PowerSeries.constant(limit, 5)


@pytest.mark.parametrize("c", [F(1), F(1, 2), F(2), F(3)])
def test_kernel_cancel_identity(c):
    got = ps_mul(kernel(Kernel.BERNOULLI, c, 12), kernel(Kernel.UNIFORM, c, 12))
    assert got == PowerSeries.one(12)


@pytest.mark.parametrize("c", [F(1), F(1, 2), F(3, 2), F(-2)])
def test_kernel_double_scale_factors_through_euler(c):
    lhs = kernel(Kernel.BERNOULLI, 2 * c, 12)
    rhs = ps_mul(kernel(Kernel.BERNOULLI, c, 12), kernel(Kernel.EULER, c, 12))
    assert lhs == rhs


@pytest.mark.parametrize("c", [F(1), F(2, 3), F(-5, 2)])
def test_kernel_parity(c):
    sinh = kernel(Kernel.SINH, c, 11)
    assert all(sinh.coefficient(i) == 0 for i in range(0, 11, 2))
    for kind in (Kernel.COSH, Kernel.SECH, Kernel.SINH_OVER_ARG):
        even = kernel(kind, c, 11)
        assert all(even.coefficient(i) == 0 for i in range(1, 11, 2))


def test_kernel_power_matches_ps_pow():
    base = kernel(Kernel.EULER, F(2, 3), 7)
    for p in (0, 1, 2, 5, 9):
        assert kernel_power(Kernel.EULER, F(2, 3), p, 7) == ps_pow(base, p)


def test_kernel_power_builds_the_kernel_once_per_memo_key(monkeypatch):
    from umbralwalk import series as series_module

    built = []

    def counting_kernel(kind, scale, order):
        built.append((kind, scale, order))
        return kernel(kind, scale, order)

    scales = (F(31, 977), F(-2, 5), F(1))
    bases = [kernel(Kernel.EULER, c, 5) for c in scales]
    monkeypatch.setattr(series_module, "_POWER_CACHE", {})
    monkeypatch.setattr(series_module, "kernel", counting_kernel)
    # every scale reads the one chain of the unit kernel's powers
    for c, base in zip(scales, bases):
        for p in (0, 1, 3, 2, 7, 12):
            assert kernel_power(Kernel.EULER, c, p, 5) == ps_pow(base, p)
    # the unit Euler kernel, once, from the unit exponential
    assert built == [(Kernel.EULER, 1, 5), (Kernel.EXP, 1, 5)]


def test_kernel_bad_order_rejected():
    with pytest.raises(ValueError):
        kernel(Kernel.EXP, 1, 0)


# --- geometric resummation ---------------------------------------------------


def test_resum_of_zero_is_one():
    assert geometric_resum(PowerSeries.zero(6)) == PowerSeries.one(6)


def test_resum_scalar_geometric_sum():
    got = geometric_resum(PowerSeries.constant(F(1, 2), 6))
    assert got == PowerSeries.constant(2, 6)


def test_resum_half_sech_squared_roundtrip():
    loop = ps_pow(kernel(Kernel.SECH, 1, 12), 2).scale(F(1, 2))
    res = geometric_resum(loop)
    one = PowerSeries.one(12)
    assert ps_mul(res, one - loop) == one


def test_resum_constant_one_rejected():
    with pytest.raises(ConstantTermError):
        geometric_resum(PowerSeries.one(5))


# --- ring laws (randomized) ---------------------------------------------------

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def series_triples(draw):
    order = draw(st.integers(min_value=1, max_value=10))
    mk = lambda: PowerSeries(
        tuple(draw(fracs) for _ in range(order))
    )
    return mk(), mk(), mk()


@settings(max_examples=100, deadline=None)
@given(series_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert ps_mul(a, b) == ps_mul(b, a)
    assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))
    assert ps_mul(a, b + c) == ps_mul(a, b) + ps_mul(a, c)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=100, deadline=None)
@given(series_triples())
def test_div_mul_roundtrip(triple):
    a, b, _ = triple
    if b.constant_term == 0:
        b = b + PowerSeries.one(b.order)
    if b.constant_term == 0:
        return
    assert ps_mul(ps_div(a, b), b) == a


# --- the integer layer against Fraction reference arithmetic ------------------


def _schoolbook_mul(a, b):
    n = len(a)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def _schoolbook_div(a, b):
    out = []
    for k in range(len(a)):
        acc = a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), F(0))
        out.append(acc / b[0])
    return out


wide_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=720)


@st.composite
def series_pairs(draw):
    order = draw(st.integers(min_value=1, max_value=14))
    mk = lambda: PowerSeries(tuple(draw(wide_fracs) for _ in range(order)))
    return mk(), mk()


def _in_normal_form(s):
    return s.den > 0 and gcd(s.den, *s.nums) == 1


_NEGATIVE_A = series([F(-1, 3), F(5, 2), F(-7, 6), 0, F(-11, 10)], order=5)


@settings(max_examples=200, deadline=None)
@given(series_pairs())
@example((series([F(-3, 4)], order=1), series([F(-2, 9)], order=1)))
@example((series([F(-3, 4)], order=1), series([0], order=1)))
@example((series([1, F(1, 2)], order=2), series([F(1, 3), 0], order=2)))
@example(
    (_NEGATIVE_A, series([F(-2, 5), F(-1, 7), 0, F(3, 4), F(-9, 2)], order=5))
)
@example((_NEGATIVE_A, series([0, F(-1, 2), 3], order=5)))
def test_mul_and_div_equal_fraction_schoolbook(pair):
    # every integer operation against the same values on Fractions; the
    # scale factor is drawn with the pair (zero and negative included)
    a, b = pair
    v = b.coefficient(b.order - 1)
    unit = [F(1)] + [F(0)] * (a.order - 1)
    results = {
        "+": (a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
        "-": (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
        "neg": (-a, [-x for x in a.coeffs]),
        "scale": (a.scale(v), [v * x for x in a.coeffs]),
        "mul": (ps_mul(a, b), _schoolbook_mul(a.coeffs, b.coeffs)),
    }
    if b.constant_term == 0:
        with pytest.raises(ConstantTermError):
            ps_div(a, b)
    else:
        results["div"] = (ps_div(a, b), _schoolbook_div(a.coeffs, b.coeffs))
    if a.constant_term == 1:
        with pytest.raises(ConstantTermError):
            geometric_resum(a)
    else:
        one_minus = [u - x for u, x in zip(unit, a.coeffs)]
        results["resum"] = (geometric_resum(a), _schoolbook_div(unit, one_minus))
    for name, (got, want) in results.items():
        assert list(got.coeffs) == want, name
        assert _in_normal_form(got), name


def _fraction_kernel(kind, c, order):
    """Reference Taylor coefficients of a kernel, on Fractions throughout."""
    exp = [c**n / factorial(n) for n in range(order)]
    shifted = [c**n / factorial(n + 1) for n in range(order)]
    odd = [v if n % 2 else F(0) for n, v in enumerate(exp)]
    even = [F(0) if n % 2 else v for n, v in enumerate(exp)]
    unit = [F(1)] + [F(0)] * (order - 1)
    return {
        Kernel.EXP: exp,
        Kernel.SINH: odd,
        Kernel.COSH: even,
        Kernel.SINH_OVER_ARG: [F(0) if n % 2 else v for n, v in enumerate(shifted)],
        Kernel.UNIFORM: shifted,
        Kernel.SECH: _schoolbook_div(unit, even),
        Kernel.BERNOULLI: _schoolbook_div(unit, shifted),
        Kernel.EULER: _schoolbook_div([2 * v for v in unit], [exp[0] + 1] + exp[1:]),
    }[kind]


scales = st.fractions(min_value=-7, max_value=7, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Kernel)), scales, st.integers(1, 16))
@example(Kernel.EULER, F(0), 5)
@example(Kernel.SINH, F(0), 4)
@example(Kernel.BERNOULLI, F(-5, 3), 9)
@example(Kernel.SINH_OVER_ARG, F(-2, 7), 1)
def test_kernel_equals_fraction_reference(kind, c, order):
    got = kernel(kind, c, order)
    assert list(got.coeffs) == _fraction_kernel(kind, c, order)
    assert _in_normal_form(got)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Kernel)), scales, st.integers(0, 9), st.integers(1, 12)
)
@example(Kernel.COSH, F(0), 3, 4)
def test_kernel_power_equals_fraction_reference(kind, c, p, order):
    base = _fraction_kernel(kind, c, order)
    want = [F(1)] + [F(0)] * (order - 1)
    for _ in range(p):
        want = _schoolbook_mul(want, base)
    got = kernel_power(kind, c, p, order)
    assert list(got.coeffs) == want
    assert _in_normal_form(got)


def test_equal_values_in_different_forms_are_equal_and_hash_equal():
    half = PowerSeries((F(1, 2), 0, F(-3, 4)))
    forms = [
        PowerSeries(("1/2", "0", "-3/4")),
        PowerSeries.from_coeffs([F(2, 4), 0, F(-6, 8)], 3),
        half.scale(6).scale(F(1, 6)),
        (half + half) - half,
        -(-half),
        ps_mul(half, PowerSeries.one(3)),
        ps_div(ps_mul(half, kernel(Kernel.COSH, F(2, 3), 3)),
               kernel(Kernel.COSH, F(2, 3), 3)),
    ]
    for form in forms:
        assert form == half
        assert hash(form) == hash(half)
        assert (form.nums, form.den) == ((2, 0, -3), 4)
    assert len({half, *forms}) == 1
    assert kernel(Kernel.EXP, 0, 4) == PowerSeries.one(4)
    assert hash(PowerSeries.zero(3)) == hash(PowerSeries((0, 0, 0)))
    assert PowerSeries.one(3) != PowerSeries.one(4)


def test_series_coefficient_view_is_read_only():
    s = PowerSeries((1, F(1, 2)))
    assert s.coeffs == (F(1), F(1, 2))
    assert all(type(c) is F for c in s.coeffs)
    with pytest.raises(AttributeError):
        s.coeffs = (F(1), F(1))
    with pytest.raises(AttributeError):
        s.den = 3


def test_certificate_builds_fractions_only_through_the_coeffs_view():
    import sys

    from umbralwalk import series as series_module
    from umbralwalk.loopcalc import LevelSystem, Walk, decomposition_residual

    series_file = series_module.__file__
    fraction_file = F.__new__.__code__.co_filename
    through_view, elsewhere = [], []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code is not F.__new__.__code__:
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == fraction_file:
            caller = caller.f_back
        names = []
        while caller is not None and caller.f_code.co_filename == series_file:
            names.append(caller.f_code.co_name)
            caller = caller.f_back
        if names:
            (through_view if "coeffs" in names else elsewhere).append(names)

    systems = [
        LevelSystem(Walk.REFLECTED_1D, (0, 1, 3)),
        LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 3)),
        LevelSystem(Walk.BESSEL_3D, (0, 1, 3, 5)),
        LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
        LevelSystem(Walk.REFLECTED_1D, (0, F(1, 3), F(7, 5), 3, F(9, 2))),
    ]
    sys.setprofile(profile)
    try:
        residuals = [decomposition_residual(system, 30) for system in systems]
    finally:
        sys.setprofile(None)
    assert residuals == [0] * len(systems)
    assert elsewhere == []
    # the residual reads the difference's integer numerators over its one
    # denominator, so no coefficient is taken as a Fraction at all
    assert through_view == []


@pytest.mark.parametrize("kind", [Kernel.EULER, Kernel.BERNOULLI, Kernel.SINH])
def test_kernel_power_at_orders_going_up_and_down(kind, monkeypatch):
    from umbralwalk import series as series_module

    monkeypatch.setattr(series_module, "_POWER_CACHE", {})
    c = F(-13, 29)
    for order, powers in (
        (5, (0, 2, 4)), (12, (3, 1, 9)), (3, (0, 11, 6)), (21, (14, 2, 5)),
        (7, (17, 8, 0)), (21, (17, 18)),
    ):
        base = kernel(kind, c, order)
        for p in powers:
            assert kernel_power(kind, c, p, order) == ps_pow(base, p), (order, p)


@contextmanager
def _empty_power_memo():
    """An emptied kernel-power memo for the block, the memo restored after."""
    saved = series_module._POWER_CACHE
    series_module._POWER_CACHE = {}
    try:
        yield
    finally:
        series_module._POWER_CACHE = saved


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Kernel)),
    st.lists(
        st.tuples(scales, st.integers(0, 9), st.integers(1, 12)),
        min_size=1, max_size=8,
    ),
)
@example(Kernel.EULER, [(F(2, 3), 9, 12), (F(-1, 5), 4, 7), (F(1), 9, 12)])
@example(Kernel.SECH, [(F(1), 0, 1), (F(0), 3, 5), (F(7, 3), 3, 6)])
def test_kernel_power_numerators_equal_repeated_ps_mul(kind, requests):
    # requests at any scale share the unit kernel's chain, so later ones
    # read powers that earlier ones built
    with _empty_power_memo():
        got = [
            kernel_power_numerators(kind, c, p, order) for c, p, order in requests
        ]
    for (c, p, order), (nums, den) in zip(requests, got):
        base = kernel(kind, c, order)
        want = PowerSeries.one(order)
        for _ in range(p):
            want = ps_mul(want, base)
        assert [F(x, den) for x in nums] == list(want.coeffs), (c, p, order)


def test_covered_request_extends_no_power(monkeypatch):
    from umbralwalk.polynomials import hop_euler

    monkeypatch.setattr(series_module, "_POWER_CACHE", {})
    unit_power_numerators(Kernel.EULER, 9, 12)
    extended = []
    original = series_module._PowerChain._extended

    def counting(chain, q, order):
        extended.append((q, order))
        return original(chain, q, order)

    monkeypatch.setattr(series_module._PowerChain, "_extended", counting)
    unit, scaled = kernel(Kernel.EULER, 1, 12), kernel(Kernel.EULER, F(-2, 3), 12)
    for p, order in ((9, 12), (0, 1), (4, 12), (9, 3), (7, 7)):
        nums, den = unit_power_numerators(Kernel.EULER, p, order)
        assert PowerSeries([F(x, den) for x in nums]) == ps_pow(unit, p).prefix(
            order
        )
        assert kernel_power(Kernel.EULER, F(-2, 3), p, order) == ps_pow(
            scaled, p
        ).prefix(order)
    hop_euler.cache_clear()
    hop_euler(11, 9)
    # powers 0..9 held 12 coefficients each, so nothing was lengthened
    assert extended == []
    unit_power_numerators(Kernel.EULER, 10, 12)
    assert extended == [(10, 12)]
    unit_power_numerators(Kernel.EULER, 2, 13)
    assert extended == [(10, 12), (0, 13), (1, 13), (2, 13)]


# --- concurrency ----------------------------------------------------------------


def test_kernel_power_memo_safe_under_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    reference = {
        p: ps_pow(kernel(Kernel.SECH, F(7, 3), 6), p) for p in range(24)
    }
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(
                lambda p: (p, kernel_power(Kernel.SECH, F(7, 3), p, 6)),
                list(range(24)) * 4,
            )
        )
    assert all(series == reference[p] for p, series in results)


def test_kernel_power_memo_safe_while_chains_lengthen_concurrently():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    # a scale no other test uses; requests mix lengthening and new powers
    c = F(11, 17)
    requests = [(p, order) for order in (4, 9, 2, 13, 6) for p in range(0, 20, 3)]
    reference = {
        order: [ps_pow(kernel(Kernel.BERNOULLI, c, order), p) for p in range(20)]
        for order in {order for _, order in requests}
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(kernel_power, Kernel.BERNOULLI, c, p, order)
                for p, order in requests * 3
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (p, order), got in zip(requests * 3, results):
        assert got == reference[order][p], (p, order)


def test_kernel_power_memo_stays_bounded_over_many_level_sets():
    from umbralwalk import IdentityId, IdentityParams, series, verify

    # each level set brings its own block coefficients; a chain per
    # (kind, scale) would leave over a thousand chains after these 200
    for a in range(1, 101):
        for b in (a + 1, a + 2):
            levels = (1, F(b, a), F(b + 1, a))
            verify(IdentityId.FOUR_GENERAL_1D,
                   IdentityParams(n=1, x=F(1, 2), levels=levels))
    assert len(series._POWER_CACHE) <= len(Kernel)


# --- serialization -------------------------------------------------------------


def test_csv_exact_rationals():
    s = PowerSeries.from_coeffs([F(1, 2), F(-3)], 3)
    assert to_csv(s) == (
        "index,numerator,denominator\n0,1,2\n1,-3,1\n2,0,1\n"
    )


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        PowerSeries.from_coeffs([0.5], 2)
