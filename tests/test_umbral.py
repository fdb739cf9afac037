"""Moment symbols: evaluation, rewrites, density cross-check."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralwalk import (
    Family,
    Poly,
    QuadratureError,
    QuadratureParams,
    SymbolBlock,
    UmbralExpr,
    cancel_pairs,
    density_moment,
    eval_poly,
    hop_bernoulli,
    hop_euler,
    kernel_power,
    split_bernoulli,
    umbral_moment,
)
from umbralwalk.series import Kernel
from umbralwalk.umbral import moment_rows


def poly(*coeffs):
    return Poly(tuple(F(c) for c in coeffs))


# --- evaluation rules ---------------------------------------------------------


def test_single_bernoulli_letter_gives_bernoulli_polynomial():
    e = UmbralExpr.build((Family.BERNOULLI, 1, 1))
    assert umbral_moment(e, 2) == poly(F(1, 6), -1, 1)


def test_bernoulli_uniform_pair_is_transparent():
    e = UmbralExpr.build((Family.BERNOULLI, 1, 1), (Family.UNIFORM, 1, 1))
    assert umbral_moment(e, 5) == poly(0, 0, 0, 0, 0, 1)


def test_doubled_bernoulli_equals_bernoulli_plus_euler():
    doubled = UmbralExpr.build((Family.BERNOULLI, 2, 1))
    split = UmbralExpr.build((Family.BERNOULLI, 1, 1), (Family.EULER, 1, 1))
    for n in range(0, 8):
        assert umbral_moment(doubled, n) == umbral_moment(split, n)


def test_uniform_letter_moments():
    e = UmbralExpr.build((Family.UNIFORM, 1, 1), has_x=False)
    for n in range(0, 12):
        got = umbral_moment(e, n)
        assert got == Poly((F(1, n + 1),))


def test_moment_degree_and_leading_coefficient():
    e = UmbralExpr.build(
        (Family.BERNOULLI, F(3, 2), 2),
        (Family.EULER, F(-1, 3), 1),
        (Family.UNIFORM, 2, 3),
        constant=F(7, 5),
    )
    for n in range(0, 9):
        got = umbral_moment(e, n)
        assert got.degree == n
        assert got.leading_coefficient == 1


def test_moment_matches_egf_coefficients():
    """Internal cross-check: moments/n! equal the assembled kernel product."""
    from umbralwalk.series import ps_mul
    from math import factorial

    e = UmbralExpr.build(
        (Family.BERNOULLI, 2, 2), (Family.UNIFORM, F(1, 2), 1), constant=F(1, 3),
        has_x=False,
    )
    order = 11
    egf = kernel_power(Kernel.EXP, F(1, 3), 1, order)
    egf = ps_mul(egf, kernel_power(Kernel.BERNOULLI, 2, 2, order))
    egf = ps_mul(egf, kernel_power(Kernel.UNIFORM, F(1, 2), 1, order))
    for n in range(0, order):
        moment = umbral_moment(e, n)
        assert moment.eval(0) == egf.coefficient(n) * factorial(n)


def test_moment_rows_equal_moments_of_start_plus_copies():
    start = UmbralExpr.build(
        (Family.EULER, F(1, 2), 1), constant=F(-2, 3), has_x=False
    )
    first = UmbralExpr.build((Family.BERNOULLI, 3, 1), constant=1)
    second = UmbralExpr.build(
        (Family.UNIFORM, F(5, 4), 1), (Family.BERNOULLI, 3, 1)
    )
    n = 5
    rows = moment_rows(start, (first, second), n)
    for k, row in zip(range(5), rows):
        for l, moment in enumerate(row):
            copies = UmbralExpr.build(
                (Family.EULER, F(1, 2), 1),
                (Family.BERNOULLI, 3, k),
                (Family.UNIFORM, F(5, 4), k - l),
                constant=F(-2, 3) + l,
                has_x=False,
            )
            assert moment == umbral_moment(copies, n)
    for k, (moment,) in zip(range(4), moment_rows(start, (first,), n)):
        copies = UmbralExpr.build(
            (Family.EULER, F(1, 2), 1), (Family.BERNOULLI, 3, k),
            constant=F(-2, 3) + k, has_x=False,
        )
        assert moment == umbral_moment(copies, n)


@pytest.mark.parametrize("loops, n", [((), 2), ((UmbralExpr(),) * 3, 2),
                                      ((UmbralExpr(),), -1)])
def test_moment_rows_rejects_bad_arguments(loops, n):
    with pytest.raises(ValueError):
        next(moment_rows(UmbralExpr(), loops, n))


# --- structural validation ------------------------------------------------------


def test_duplicate_copy_ids_rejected():
    blocks = (
        SymbolBlock(Family.EULER, F(1), 1, 1),
        SymbolBlock(Family.UNIFORM, F(2), 1, 1),
    )
    with pytest.raises(ValueError):
        UmbralExpr(blocks)


def test_zero_order_block_rejected():
    with pytest.raises(ValueError):
        SymbolBlock(Family.EULER, F(1), 0, 1)


def test_canonical_text_form():
    e = UmbralExpr.build(
        (Family.UNIFORM, 2, 1),
        (Family.BERNOULLI, F(3, 2), 2),
        constant=F(5, 4),
    )
    assert e.canonical() == "x + (3/2)*B^(2)#2 + 2*U#1 + 5/4"


# --- rewrites ----------------------------------------------------------------------


def test_split_bernoulli_structure():
    e = UmbralExpr.build((Family.BERNOULLI, 4, 3))
    got = split_bernoulli(e, 1)
    families = sorted((b.family, b.coefficient, b.order) for b in got.blocks)
    assert families == [
        (Family.BERNOULLI, F(2), 3),
        (Family.EULER, F(2), 3),
    ]


def test_split_bernoulli_preserves_moments():
    e = UmbralExpr.build(
        (Family.BERNOULLI, 2, 1), (Family.UNIFORM, F(1, 3), 2), constant=1
    )
    got = split_bernoulli(e, 1)
    for n in range(0, 5):
        assert umbral_moment(got, n) == umbral_moment(e, n)


def test_split_bernoulli_errors():
    e = UmbralExpr.build((Family.EULER, 2, 1))
    with pytest.raises(ValueError):
        split_bernoulli(e, 99)
    with pytest.raises(ValueError):
        split_bernoulli(e, 1)


def test_cancel_pairs_removes_matching_pair():
    e = UmbralExpr.build(
        (Family.UNIFORM, 2, 1),
        (Family.BERNOULLI, 2, 1),
        (Family.EULER, 3, 2),
    )
    got = cancel_pairs(e)
    assert len(got.blocks) == 1
    assert got.blocks[0].family is Family.EULER
    for n in range(0, 4):
        assert umbral_moment(got, n) == umbral_moment(e, n)


def test_cancel_pairs_ignores_mismatches():
    e = UmbralExpr.build(
        (Family.UNIFORM, 2, 1),
        (Family.BERNOULLI, 2, 2),  # order differs
        (Family.BERNOULLI, 3, 1),  # coefficient differs
    )
    assert cancel_pairs(e) == e


families = st.sampled_from(list(Family))
coefs = st.fractions(min_value=-8, max_value=8, max_denominator=8).filter(
    lambda f: f != 0
)


@st.composite
def exprs(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=4))
    specs = [
        (draw(families), draw(coefs), draw(st.integers(1, 3)))
        for _ in range(n_blocks)
    ]
    const = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
    return UmbralExpr.build(*specs, constant=const)


@settings(max_examples=50, deadline=None)
@given(exprs(), coefs, st.integers(1, 3))
def test_rewrite_soundness_randomized(e, coef, order):
    """Both rewrite rules leave every moment up to degree 10 unchanged."""
    nid = max(b.copy_id for b in e.blocks) + 1
    with_pair = UmbralExpr(
        e.blocks
        + (
            SymbolBlock(Family.BERNOULLI, coef, order, nid),
            SymbolBlock(Family.UNIFORM, coef, order, nid + 1),
        ),
        e.constant,
        e.has_x,
    )
    cancelled = cancel_pairs(with_pair)
    bern_ids = [b.copy_id for b in e.blocks if b.family is Family.BERNOULLI]
    split = split_bernoulli(e, bern_ids[0]) if bern_ids else None
    for n in range(0, 11):
        reference = umbral_moment(e, n)
        assert umbral_moment(with_pair, n) == reference
        assert umbral_moment(cancelled, n) == reference
        if split is not None:
            assert umbral_moment(split, n) == reference


# --- density cross-check --------------------------------------------------------


def test_density_normalization():
    assert density_moment(Family.BERNOULLI, 0, F(17, 3)) == pytest.approx(1.0)
    assert density_moment(Family.EULER, 0, 0) == pytest.approx(1.0)


def test_density_matches_exact_values():
    for n in range(0, 7):
        for x in (F(0), F(1, 2), F(1)):
            exact_b = float(eval_poly(hop_bernoulli(n, 1), x))
            exact_e = float(eval_poly(hop_euler(n, 1), x))
            assert abs(density_moment(Family.BERNOULLI, n, x) - exact_b) < 1e-8
            assert abs(density_moment(Family.EULER, n, x) - exact_e) < 1e-8


def test_density_euler_first_moment_at_half_is_zero():
    assert abs(density_moment(Family.EULER, 1, F(1, 2))) < 1e-10


def test_density_domain_errors():
    with pytest.raises(ValueError):
        density_moment(Family.UNIFORM, 2, 0)
    with pytest.raises(ValueError):
        density_moment(Family.BERNOULLI, 13, 0)


def test_density_impossible_tolerance_raises():
    with pytest.raises(QuadratureError):
        density_moment(
            Family.BERNOULLI,
            12,
            F(1),
            QuadratureParams(tol=1e-300, nodes=2, initial_panels=2, max_panels=4),
        )
