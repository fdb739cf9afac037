"""Identity catalog, evaluation, verification loop, errata machinery."""

import functools
import hashlib
import itertools
import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralwalk import (
    Family,
    IdentityId,
    IdentityParams,
    IdentityReport,
    InvalidParamsError,
    Status,
    TruncationPolicy,
    UmbralExpr,
    catalog,
    eval_lhs,
    eval_rhs_partial,
    rhs_term,
    verify,
    verify_all_payload,
)
from umbralwalk import identities, loopcalc, series
from umbralwalk.identities import (
    EngineConsistencyError,
    ensure_ground_truth,
    errata_report,
    ground_truth_system,
    normalize_params,
    rhs_terms,
    term_magnitudes,
    validate_params,
)
from umbralwalk.polynomials import (
    chebyshev_polynomial,
    chebyshev_recip_weights,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from umbralwalk.loopcalc import (
    LevelSystem, Walk, decomposition_residual, free_move, linear_in_loops,
    renewal_moves,
)
from umbralwalk.series import (
    ConstantTermError, Kernel, PowerSeries, kernel, ps_div, ps_mul,
)
from umbralwalk.umbral import umbral_moment


# --- catalog -----------------------------------------------------------------


def test_catalog_is_complete():
    entries = catalog()
    assert len(entries) == 10
    ids = {e.identity for e in entries}
    assert ids == set(IdentityId)


def test_catalog_references_and_variants():
    by_id = {e.identity: e for e in catalog()}
    assert "three concentric spheres" in by_id[IdentityId.N3_GENERAL].reference
    assert by_id[IdentityId.N4_UNIFORM_STATED].variant == "stated"
    assert by_id[IdentityId.N4_UNIFORM_CORRECTED].variant == "corrected"


# --- left-hand sides ------------------------------------------------------------


def test_lhs_examples():
    assert eval_lhs(IdentityId.N3_UNIFORM, IdentityParams(n=1, x=F(0))) == F(1, 2)
    assert eval_lhs(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=0, x=F(7))) == 1
    assert eval_lhs(
        IdentityId.THREE_SITES_1D_STATED,
        IdentityParams(n=1, x=F(0), levels=(1, 3)),
    ) == F(1, 3)
    assert eval_lhs(
        IdentityId.N4_UNIFORM_STATED, IdentityParams(n=1, x=F(0))
    ) == F(1, 6)
    assert eval_lhs(
        IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=1, x=F(0))
    ) == 1


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        eval_lhs(IdentityId.EULER_CHEB, IdentityParams(n=1))
    with pytest.raises(InvalidParamsError):
        eval_lhs(IdentityId.THREE_SITES_1D_STATED, IdentityParams(n=1))
    with pytest.raises(InvalidParamsError):
        eval_lhs(
            IdentityId.THREE_SITES_1D_STATED,
            IdentityParams(n=1, levels=(3, 1)),
        )
    with pytest.raises(InvalidParamsError):
        eval_lhs(IdentityId.EVEN_BERNOULLI, IdentityParams())
    with pytest.raises(InvalidParamsError):
        eval_lhs(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=-1))
    with pytest.raises(InvalidParamsError, match="unknown identity 'NOPE'"):
        validate_params("NOPE", IdentityParams(n=1))


# every parameter requirement of every identity, with its error text
_TWO_LEVELS = (
    IdentityId.THREE_SITES_1D_STATED, IdentityId.THREE_SITES_1D_CORRECTED
)
_THREE_LEVELS = (IdentityId.FOUR_GENERAL_1D, IdentityId.N3_GENERAL)
_INVALID_CASES = [
    (identity, IdentityParams(n=1, levels=levels), message)
    for count, ids in ((2, _TWO_LEVELS), (3, _THREE_LEVELS))
    for identity in ids
    for levels, message in (
        (None, f"identity needs exactly {count} levels, got None"),
        ((1, 2, 4, 5)[: count + 1], f"identity needs exactly {count} levels"),
        ((0, 1, 2)[:count], "levels must be positive: (Fraction(0, 1), "),
        ((3, 1, 2)[:count], "levels must strictly increase: (Fraction(3, 1)"),
    )
] + [
    (IdentityId.EULER_CHEB, IdentityParams(n=1),
     "EULER_CHEB needs a Chebyshev index >= 1, got None"),
    (IdentityId.EULER_CHEB, IdentityParams(n=1, cheb_index=0),
     "EULER_CHEB needs a Chebyshev index >= 1, got 0"),
    (IdentityId.EVEN_BERNOULLI, IdentityParams(),
     "EVEN_BERNOULLI needs half-degree m >= 1, got None"),
    (IdentityId.EVEN_BERNOULLI, IdentityParams(m=0),
     "EVEN_BERNOULLI needs half-degree m >= 1, got 0"),
] + [
    (identity, IdentityParams(n=-1), "degree must be nonnegative, got -1")
    for identity in IdentityId
]


@pytest.mark.parametrize("identity,params,message", _INVALID_CASES,
                         ids=lambda v: v.value if isinstance(v, IdentityId) else "")
def test_invalid_params_rejected_with_message(identity, params, message):
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        eval_lhs(identity, params)
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        verify(identity, params)
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        rhs_terms(identity, params)


@pytest.mark.parametrize("identity,params,message", _INVALID_CASES,
                         ids=lambda v: v.value if isinstance(v, IdentityId) else "")
def test_ground_truth_system_rejects_invalid_params(identity, params, message):
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        ground_truth_system(identity, params)


# each optional field, a valid value for it, its phrase in the error, and
# the identities that take it
_OPTIONAL_FIELDS = [
    ("levels", (1, 2), "levels", _TWO_LEVELS),
    ("levels", (1, 2, 4), "levels", _THREE_LEVELS),
    ("cheb_index", 2, "Chebyshev index N", (IdentityId.EULER_CHEB,)),
    ("m", 2, "half-degree m", (IdentityId.EVEN_BERNOULLI,)),
]


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_a_field_the_identity_does_not_take_is_rejected(identity):
    # the report would echo the field as if it had been verified
    taken = {
        field: value
        for field, value, _, takers in _OPTIONAL_FIELDS if identity in takers
    }
    # EVEN_BERNOULLI takes n = 0 or 2m only
    n = 0 if identity is IdentityId.EVEN_BERNOULLI else 1
    params = IdentityParams(n=n, **taken)
    eval_lhs(identity, params)  # the fields it takes are accepted
    for field, value, phrase, takers in _OPTIONAL_FIELDS:
        if field in taken:
            continue
        extra = params._replace(**{field: value})
        shown = ",".join(map(str, value)) if field == "levels" else value
        message = f"{identity.value} takes no {phrase}, got {shown}"
        for check in (eval_lhs, verify, rhs_terms, ground_truth_system):
            with pytest.raises(InvalidParamsError, match=re.escape(message)):
                check(identity, extra)


@pytest.mark.parametrize("given", [
    dict(x=F(5)), dict(x=F(0)), dict(n=7), dict(n=7, x=F(5)),
], ids=["x", "x-0", "n", "n-and-x"])
def test_even_bernoulli_takes_m_alone(given):
    # B_2m is a number: an n or x it ignored would be echoed as verified
    params = IdentityParams(m=2, **given)
    message = "EVEN_BERNOULLI takes m alone, with n 0 or 2m and no x"
    for check in (eval_lhs, verify, rhs_terms, ground_truth_system):
        with pytest.raises(InvalidParamsError, match=re.escape(message)):
            check(IdentityId.EVEN_BERNOULLI, params)


def test_even_bernoulli_at_n_zero_or_2m_is_one_instance():
    report = verify(IdentityId.EVEN_BERNOULLI, IdentityParams(m=2))
    assert report == verify(IdentityId.EVEN_BERNOULLI, IdentityParams(n=4, m=2))
    assert (report.params.n, report.params.x) == (4, None)
    # normalised parameters are taken again as they are
    assert normalize_params(IdentityId.EVEN_BERNOULLI, report.params) == report.params
    assert report.to_json()["x"] == "0"


def test_x_not_given_is_zero():
    assert IdentityParams().x is None
    params = normalize_params(IdentityId.N3_UNIFORM, IdentityParams(n=3))
    assert params == IdentityParams(n=3, x=F(0))
    assert verify(IdentityId.N3_UNIFORM, IdentityParams(n=3)) == verify(
        IdentityId.N3_UNIFORM, params
    )


# --- right-hand terms --------------------------------------------------------------


def test_four_uniform_degree_one_term_closed_form():
    # term k contributes 3^(k-1) 4^(-k-1) (3x - 3/2)
    for x in (F(0), F(2, 7), F(-1, 3)):
        params = IdentityParams(n=1, x=x)
        for k in (0, 1, 2, 5, 9):
            expected = F(3) ** (k - 1) / F(4) ** (k + 1) * (3 * x - F(3, 2))
            assert rhs_term(IdentityId.FOUR_UNIFORM_1D, params, k) == expected


def test_even_bernoulli_partial_approaches_one_sixth():
    params = IdentityParams(m=1)
    partial = eval_rhs_partial(IdentityId.EVEN_BERNOULLI, params, 40)
    assert abs(float(partial - F(1, 6))) < 1e-12
    # each term is the geometric weight times 1/2 behind the prefactor
    assert rhs_term(IdentityId.EVEN_BERNOULLI, params, 0) == F(1, 4) * F(1, 2)


def test_euler_cheb_n2_partial_approaches_euler_value():
    for x in (F(0), F(1, 2), F(1)):
        params = IdentityParams(n=1, x=x, cheb_index=2)
        # the tail after index l is of size 2^(-l/2)
        close = eval_rhs_partial(IdentityId.EULER_CHEB, params, 40)
        closer = eval_rhs_partial(IdentityId.EULER_CHEB, params, 80)
        limit = x - F(1, 2)
        assert abs(float(closer - limit)) < 1e-11
        if close != limit:
            assert abs(float(closer - limit)) < abs(float(close - limit))


def test_rhs_partial_negative_bound_rejected():
    with pytest.raises(InvalidParamsError):
        eval_rhs_partial(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=1), -1)


def test_negative_term_indices_rejected():
    identity, params = IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=1)
    message = "term index must be >= 0, got "
    with pytest.raises(InvalidParamsError, match=message + "-1"):
        rhs_term(identity, params, -1)
    with pytest.raises(InvalidParamsError, match=message + "-2"):
        term_magnitudes(identity, params, -2, 3)
    # a range that ends before it starts is empty, as it was for k_lo > 0
    assert term_magnitudes(identity, params, 0, -2) == []
    assert term_magnitudes(identity, params, 3, 1) == []


# --- streamed terms against the direct formulas --------------------------------------


@functools.lru_cache(maxsize=None)
def _reference_cheb_weights(N, count):
    # series quotient t^N / Q(t), the weights' defining expansion
    T = chebyshev_polynomial(N).coeffs
    q = [T[N - j] if 0 <= N - j < len(T) else F(0) for j in range(count)]
    inv = ps_div(PowerSeries.one(count), PowerSeries.from_coeffs(q, count))
    return [inv.coefficient(l - N) if l >= N else F(0) for l in range(count)]


def _reference_cheb_weight(N, l):
    # one expansion serves every term of a verify run at the default k_max
    return _reference_cheb_weights(N, max(l + 1, 513))[l]


def _reference_term(identity, params, k):
    """Term k by the direct formulas, each term computed on its own."""
    n, x = params.n, params.x
    if identity is IdentityId.EULER_CHEB:
        N = params.cheb_index
        w = _reference_cheb_weight(N, k)
        if w == 0:
            return F(0)
        return w * eval_poly(hop_euler(n, k), F(k - N, 2) + N * x) / F(N) ** n
    if identity in (
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
    ):
        a1, a2 = params.levels
        pref = (n + 1) * (1 - 2 * a1 / a2) * (2 * a1 / a2) ** n
        p_k = (a1 / a2) * (1 - a1 / a2) ** k
        arg = x / (4 * a1) + a2 / (4 * a1) + F(k, 2)
        return pref * p_k * eval_poly(hop_bernoulli(n, k + 1), arg)
    if identity is IdentityId.FOUR_UNIFORM_1D:
        return (
            F(3) ** (k - n) / F(4) ** (k + 1)
            * eval_poly(hop_euler(n, 2 * k + 3), 3 * x + k)
        )
    if identity is IdentityId.FOUR_GENERAL_1D:
        lv = params.levels
        return sum(
            (
                _paper_four_general_weight(k, l, lv)
                * eval_poly(umbral_moment(_paper_four_general_blocks(k, l, lv), n), x)
                for l in range(k + 1)
            ),
            F(0),
        )
    if identity is IdentityId.N3_GENERAL:
        expr = _paper_n3_blocks(k, params.levels)
        return _paper_n3_weight(k, params.levels) * eval_poly(
            umbral_moment(expr, n), x
        )
    if identity is IdentityId.N3_UNIFORM:
        return (
            F(3, 4) * F(1, 4) ** k
            * eval_poly(hop_euler(n, 2 * k + 2), F(x + 3 + 2 * k, 2))
        )
    if identity is IdentityId.EVEN_BERNOULLI:
        m = params.m
        pref = F(m) / ((1 - F(2) ** (1 - 2 * m)) * (3 ** (2 * m) - 1))
        return (
            pref * F(1, 4) ** k
            * eval_poly(hop_euler(2 * m - 1, 2 * k + 2), k + F(3, 2))
        )
    if identity is IdentityId.N4_UNIFORM_STATED:
        return (
            F(1, 3) ** n * F(1, 2) ** k
            * eval_poly(hop_euler(n, 2 * k + 2), F(x + 2 * k + 3, 2))
        )
    if identity is IdentityId.N4_UNIFORM_CORRECTED:
        return (
            F(2) ** n * F(1, 2) ** (k + 1)
            * eval_poly(hop_euler(n, 2 * k + 3), F(x + 2 * k + 4, 2))
        )
    raise AssertionError(identity)


_X_STREAM = (F(0), F(1, 2), F(-1, 3))


def _stream_cases():
    for N in (1, 2, 3):
        for n in (0, 1, 5):
            for x in _X_STREAM:
                yield IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N)
    for identity in (
        IdentityId.FOUR_UNIFORM_1D,
        IdentityId.N3_UNIFORM,
        IdentityId.N4_UNIFORM_STATED,
        IdentityId.N4_UNIFORM_CORRECTED,
    ):
        for n in (0, 1, 5):
            for x in _X_STREAM:
                yield identity, IdentityParams(n=n, x=x)
    for identity, all_levels in (
        (IdentityId.THREE_SITES_1D_STATED, ((1, 3), (2, 5))),
        (IdentityId.THREE_SITES_1D_CORRECTED, ((1, 3), (2, 5))),
        (IdentityId.FOUR_GENERAL_1D, ((1, 2, 4), (1, 3, 5))),
        (IdentityId.N3_GENERAL, ((1, 2, 4), (1, 3, 5))),
    ):
        for levels in all_levels:
            for n in (0, 1, 5):
                for x in _X_STREAM:
                    yield identity, IdentityParams(n=n, x=x, levels=levels)
    for m in range(1, 7):
        yield IdentityId.EVEN_BERNOULLI, IdentityParams(m=m)


def test_stream_cases_cover_every_identity():
    assert {identity for identity, _ in _stream_cases()} == set(IdentityId)


@pytest.mark.parametrize("identity,params", list(_stream_cases()),
                         ids=lambda v: v.value if isinstance(v, IdentityId) else "")
def test_streamed_terms_equal_direct_formulas(identity, params):
    params = normalize_params(identity, params)
    d = 2 * params.m - 1 if identity is IdentityId.EVEN_BERNOULLI else params.n
    count = 3 * (d + 2)
    reference = [_reference_term(identity, params, k) for k in range(count)]
    assert list(itertools.islice(rhs_terms(identity, params), count)) == reference
    assert eval_rhs_partial(identity, params, count - 1) == sum(reference)
    for k in (0, d, count - 1):
        assert rhs_term(identity, params, k) == reference[k]


@pytest.mark.parametrize("identity,params,orders_through", [
    # every term vanishes at odd degree and x = 1/2; term k asks for 2k+3
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=7, x=F(1, 2)),
     lambda K: {2 * k + 3 for k in range(K + 1)}),
    # N = 1 has one nonzero weight, at k = 1, but every lattice index
    # k = 1, 3, 5, ... reached draws its value, of order k
    (IdentityId.EULER_CHEB, IdentityParams(n=10, x=F(1, 2), cheb_index=1),
     lambda K: set(range(1, K + 1, 2))),
])
def test_verify_stopping_before_degree_computes_only_reached_terms(
    monkeypatch, identity, params, orders_through
):
    requested = []

    def recording_hop_euler(n, p):
        requested.append(p)
        return hop_euler(n, p)

    monkeypatch.setattr(identities, "hop_euler", recording_hop_euler)
    report = verify(identity, params)
    assert report.status is Status.VERIFIED
    assert report.K_used < params.n
    reference = [
        _reference_term(identity, params, k) for k in range(report.K_used + 1)
    ]
    assert report.rhs_partial_exact == sum(reference)
    # the left side, an Euler value, asks for order 1
    assert set(requested) - {1} == orders_through(report.K_used) - {1}


# --- left sides and hop rows on integers against Fraction formulas ------------------


def _reference_lhs(identity, params):
    """The left side of a hop-form identity as `Fraction` formulas, every
    step a normalised `Fraction`."""
    n, x = params.n, params.x

    def euler(d, y):
        return eval_poly(hop_euler(d, 1), y)

    def bernoulli(d, y):
        return eval_poly(hop_bernoulli(d, 1), y)

    def integral(c, lo, hi):
        # c times the integral of B_n over [lo, hi]
        return c * (bernoulli(n + 1, hi) - bernoulli(n + 1, lo)) / (n + 1)

    if identity in (IdentityId.EULER_CHEB, IdentityId.FOUR_UNIFORM_1D):
        return euler(n, x)
    if identity in _TWO_LEVELS:
        a1, a2 = params.levels
        d = n + (identity is IdentityId.THREE_SITES_1D_CORRECTED)
        u = x / (2 * a2)
        return euler(d, u + F(3, 2) - 2 * a1 / a2) - euler(d, u + F(1, 2))
    if identity is IdentityId.N3_UNIFORM:
        return integral(F(3) ** (n + 1), (x + 3) / 6, (x + 5) / 6)
    if identity is IdentityId.EVEN_BERNOULLI:
        return bernoulli(2 * params.m, F(0))
    if identity is IdentityId.N4_UNIFORM_STATED:
        return bernoulli(n, (x + 4) / 6)
    if identity is IdentityId.N4_UNIFORM_CORRECTED:
        return integral(4 * F(8) ** n, (x + 4) / 8, (x + 6) / 8)
    raise AssertionError(identity)


# every identity whose right side is a hop row, the three-site ones included
_HOP_FORM = [i for i in IdentityId if i not in _THREE_LEVELS]


def _drawn_fields(draw, identity):
    """The Chebyshev index N or the half-degree m, each drawn only for
    the identity that takes it; EVEN_BERNOULLI's instance is m alone, so
    its n and x are the defaults."""
    if identity is IdentityId.EULER_CHEB:
        return {"cheb_index": draw(st.integers(1, 6))}
    if identity is IdentityId.EVEN_BERNOULLI:
        return {"m": draw(st.integers(1, 12)), "n": 0, "x": None}
    return {}


@st.composite
def _hop_form_cases(draw):
    identity = draw(st.sampled_from(_HOP_FORM))
    levels = None
    if identity in _TWO_LEVELS:
        steps = st.fractions(min_value=F(1, 5), max_value=4, max_denominator=9)
        a1, step = draw(steps), draw(steps)
        levels = (a1, a1 + step)
    params = IdentityParams(**{
        "n": draw(st.integers(0, 24)),
        "x": draw(st.fractions(min_value=-6, max_value=6, max_denominator=15)),
        "levels": levels,
        **_drawn_fields(draw, identity),
    })
    return identity, normalize_params(identity, params)


@settings(max_examples=200, deadline=None)
@given(_hop_form_cases())
@example((IdentityId.THREE_SITES_1D_CORRECTED,
          IdentityParams(n=3, x=F(-7, 3), levels=(F(2, 3), F(5, 2)))))
@example((IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=0, x=F(-5, 4))))
def test_integer_left_sides_and_rows_equal_fraction_formulas(case):
    """The left sides, built from `Poly.at`'s integer pairs, and the hop
    rows' points and weights, set up on integers, give the values of the
    `Fraction` formulas, through the head and into the tail."""
    identity, params = case
    lhs = eval_lhs(identity, params)
    assert type(lhs) is F
    assert lhs == _reference_lhs(identity, params)
    count = params.n // 2 + 4
    assert list(itertools.islice(rhs_terms(identity, params), count)) == [
        _reference_term(identity, params, k) for k in range(count)
    ]


# --- verify against a Fraction-only reference ---------------------------------------


def _reference_decay(identity, params):
    """The rate at which the weights of `_reference_term` shrink."""
    if identity is IdentityId.EULER_CHEB:
        # the largest root of T_N
        return math.cos(math.pi / (2 * params.cheb_index))
    if identity in (
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
    ):
        a1, a2 = params.levels
        return float(1 - a1 / a2)
    if identity is IdentityId.FOUR_GENERAL_1D:
        # sum over l of C(k, l) alpha^l beta^(k-l): (alpha + beta)^k
        a1, a2, a3 = params.levels
        return float((a2 - a1) / a2 + a1 * (a3 - a2) / (a2 * (a3 - a1)))
    if identity is IdentityId.N3_GENERAL:
        a1, a2, a3 = params.levels
        return float((a3 - a2) * a1 / ((a3 - a1) * a2))
    return {
        IdentityId.FOUR_UNIFORM_1D: 0.75,
        IdentityId.N3_UNIFORM: 0.25,
        IdentityId.EVEN_BERNOULLI: 0.25,
        IdentityId.N4_UNIFORM_STATED: 0.5,
        IdentityId.N4_UNIFORM_CORRECTED: 0.5,
    }[identity]


def _reference_verify(identity, params, policy=TruncationPolicy()):
    """`verify`'s stopping rule over `_reference_term`, on Fractions only."""
    params = normalize_params(identity, params)
    lhs = eval_lhs(identity, params)
    threshold = policy.tol * max(1.0, abs(float(lhs)))
    # a stop on a tail estimate waits for the peak of the envelope k^d rho^k
    d = 2 * params.m - 1 if identity is IdentityId.EVEN_BERNOULLI else params.n
    decay = _reference_decay(identity, params)
    peak = d / math.log(1 / decay)
    partial, mags, converged, K = F(0), [], False, -1
    for k in range(policy.k_max + 1):
        term = _reference_term(identity, params, k)
        partial += term
        K = k
        # a nonzero term that underflows is read as the smallest float
        mags.append(abs(float(term)) or (math.ulp(0.0) if term else 0.0))
        if k + 1 < policy.stable_run:
            continue
        window = mags[-policy.stable_run :]
        if not all(m < threshold for m in window):
            continue
        nonzero = [m for m in window if m > 0.0]
        if not nonzero:
            # zero terms end the sum only where it is exact
            converged = partial == lhs
            if converged:
                break
            continue
        if k < peak:
            continue
        if nonzero[-1] == math.ulp(0.0):
            # an underflowed term: past the peak the envelope k^d rho^k
            # falls by this ratio
            ratio = (1 + 1 / k) ** d * decay
        else:
            if len(nonzero) == 1:
                # a lone magnitude pairs with the nonzero one before the window
                nonzero = [m for m in mags if m > 0.0][-2:]
            if len(nonzero) == 1:
                continue
            ratio = max(b / a for a, b in zip(nonzero, nonzero[1:]))
        # a ratio >= 1 (terms still growing) keeps the sum going
        if ratio >= 1.0:
            continue
        ratio = min(ratio, 0.99)
        if nonzero[-1] * ratio / (1.0 - ratio) < threshold:
            converged = True
            break
    residual = abs(float(lhs - partial))
    if not converged:
        status = Status.NOT_CONVERGED
    elif residual < threshold:
        status = Status.VERIFIED
    else:
        status = Status.RESIDUAL_NONZERO
    return IdentityReport(identity, params, K, lhs, partial, residual, status)


_LOOSE = TruncationPolicy(tol=1e-6)

_VERIFY_CASES = [
    # (identity, params, policy, expected status)
    (IdentityId.EULER_CHEB, IdentityParams(n=3, x=F(1, 2), cheb_index=1),
     None, Status.VERIFIED),
    (IdentityId.EULER_CHEB, IdentityParams(n=2, x=F(-1, 3), cheb_index=2),
     None, Status.VERIFIED),
    # a tail estimate would stop the sum at K_used 88, but it waits for
    # the envelope's peak 31 / ln(1/cos(pi/4)) = 89.4 and stops at 90
    (IdentityId.EULER_CHEB, IdentityParams(n=31, x=F(0), cheb_index=2),
     TruncationPolicy(tol=1e-3), Status.VERIFIED),
    # the weights decay too slowly against the degree-20 values
    (IdentityId.EULER_CHEB, IdentityParams(n=20, x=F(0), cheb_index=3),
     None, Status.NOT_CONVERGED),
    (IdentityId.EULER_CHEB, IdentityParams(n=20, x=F(1), cheb_index=3),
     None, Status.NOT_CONVERGED),
    # the stated audit
    (IdentityId.THREE_SITES_1D_STATED, IdentityParams(n=1, x=F(0), levels=(1, 3)),
     None, Status.RESIDUAL_NONZERO),
    (IdentityId.THREE_SITES_1D_CORRECTED,
     IdentityParams(n=1, x=F(1), levels=(1, 3)), None, Status.VERIFIED),
    (IdentityId.THREE_SITES_1D_CORRECTED,
     IdentityParams(n=2, x=F(0), levels=(2, 5)), None, Status.RESIDUAL_NONZERO),
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=3, x=F(-1, 3)),
     None, Status.VERIFIED),
    # k_max truncation
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=4, x=F(0)),
     TruncationPolicy(tol=1e-12, k_max=20), Status.NOT_CONVERGED),
    # every term and the left side vanish: the all-zero tail short-circuits
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=7, x=F(1, 2)),
     None, Status.VERIFIED),
    (IdentityId.FOUR_GENERAL_1D, IdentityParams(n=1, x=F(1), levels=(1, 2, 4)),
     _LOOSE, Status.VERIFIED),
    (IdentityId.N3_GENERAL, IdentityParams(n=2, x=F(1), levels=(1, 3, 5)),
     None, Status.VERIFIED),
    (IdentityId.N3_UNIFORM, IdentityParams(n=3, x=F(1, 2)),
     None, Status.VERIFIED),
    (IdentityId.EVEN_BERNOULLI, IdentityParams(m=2), None, Status.VERIFIED),
    # the stated audit
    (IdentityId.N4_UNIFORM_STATED, IdentityParams(n=1, x=F(0)),
     None, Status.RESIDUAL_NONZERO),
    (IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=5, x=F(1)),
     None, Status.VERIFIED),
]


def test_verify_cases_cover_every_identity():
    assert {identity for identity, *_ in _VERIFY_CASES} == set(IdentityId)


@pytest.mark.parametrize("identity,params,policy,status", _VERIFY_CASES,
                         ids=lambda v: v.value if isinstance(v, IdentityId) else "")
def test_verify_equals_fraction_only_reference(identity, params, policy, status):
    policy = policy or TruncationPolicy()
    report = verify(identity, params, policy)
    assert report == _reference_verify(identity, params, policy)
    assert report.status is status


# the last case of each identity: among them EULER_CHEB at N = 3, whose
# weights vanish at every even index, and FOUR_UNIFORM_1D at n = 7,
# x = 1/2, whose terms are all zero
_ONE_CASE_PER_IDENTITY = {
    identity: params for identity, params, *_ in _VERIFY_CASES
}
# and the Chebyshev sums of phase 0: N = 2 (one tap) and N = 4 (two taps,
# two zero weights on the lattice), and one of phase 1 whose terms dip
# below threshold and grow again (see `_LOCAL_DIP_CASES`), so the inner
# loop over large terms hands back to the general body and takes over again
_POLICY_CASES = list(_ONE_CASE_PER_IDENTITY.items()) + [
    (IdentityId.EULER_CHEB, IdentityParams(n=2, x=F(-1, 3), cheb_index=2)),
    (IdentityId.EULER_CHEB, IdentityParams(n=3, x=F(1, 3), cheb_index=4)),
    (IdentityId.EULER_CHEB, IdentityParams(n=55, x=F(0), cheb_index=3)),
]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_POLICY_CASES),
    stable_run=st.integers(2, 6),
    tol_exponent=st.floats(-14, -4),
    k_max=st.integers(1, 64),
)
@example(case=(IdentityId.FOUR_UNIFORM_1D,
               _ONE_CASE_PER_IDENTITY[IdentityId.FOUR_UNIFORM_1D]),
         stable_run=6, tol_exponent=-4, k_max=5)
@example(case=(IdentityId.EULER_CHEB,
               _ONE_CASE_PER_IDENTITY[IdentityId.EULER_CHEB]),
         stable_run=2, tol_exponent=-14, k_max=64)
# the first small lattice term after the last large one, k = 28, ends the
# sum: at stable_run 2 its run counts the zero term at k = 27 off the lattice
@example(case=(IdentityId.EULER_CHEB,
               IdentityParams(n=2, x=F(-1, 3), cheb_index=2)),
         stable_run=2, tol_exponent=-4, k_max=64)
def test_verify_equals_reference_under_any_policy(
    case, stable_run, tol_exponent, k_max
):
    identity, params = case
    policy = TruncationPolicy(10.0**tol_exponent, stable_run, k_max)
    assert verify(identity, params, policy) == _reference_verify(
        identity, params, policy
    )


_ONE_NONZERO_CASES = [
    (2, F(-1, 3), 2, 86),
    (2, F(-1, 3), 3, 87),
    # a lone magnitude once estimated its tail as 0 and stopped at K 96
    (5, F(0), 2, 98),
    # the terms read 0, 0, 1/16, 0, 0, 0, 1/64, ...: the zero window
    # at k = 3..5 once stopped the sum at K 5, inexact (1/16 against 0)
    (2, F(0), 3, 87),
]


@pytest.mark.parametrize("n, x, stable_run, K_used", _ONE_NONZERO_CASES)
def test_chebyshev_windows_with_one_nonzero_magnitude_still_converge(
    n, x, stable_run, K_used
):
    # T_2 is even, so every other weight vanishes and a window of two or
    # three magnitudes may hold one nonzero magnitude; its ratio to the
    # nonzero magnitude before the window ends the sum
    params = IdentityParams(n=n, x=x, cheb_index=2)
    policy = TruncationPolicy(stable_run=stable_run)
    report = verify(IdentityId.EULER_CHEB, params, policy)
    assert report == _reference_verify(IdentityId.EULER_CHEB, params, policy)
    assert report.status is Status.VERIFIED
    assert report.K_used == K_used


# Each identity holds, but a window of small terms sits in a dip before
# the peak d / ln(1/rho) of the terms' envelope k^d rho^k (382 at N = 3,
# n = 55): there the window at k = 28..31 reads [0, 2.2e33, 0, 1.2e33],
# the terms then grow to 2e39, and a tail estimate stopped the sum at
# K_used 31 and reported RESIDUAL_NONZERO.
_LOCAL_DIP_CASES = (
    [(3, n, x) for n in (55, 57, 59) for x in (F(0), F(1))]
    + [(4, n, x) for n in (57, 59) for x in (F(0), F(1))]
    + [(5, 40, F(1, 3)), (6, 40, F(1, 3))]
)


@pytest.mark.parametrize("N, n, x", _LOCAL_DIP_CASES)
def test_verify_does_not_stop_on_a_local_dip(N, n, x):
    params = IdentityParams(n=n, x=x, cheb_index=N)
    report = verify(IdentityId.EULER_CHEB, params)
    assert report.status is Status.NOT_CONVERGED
    assert report == _reference_verify(IdentityId.EULER_CHEB, params)


_WINDOW_CASES = (
    [(identity, params, policy or TruncationPolicy())
     for identity, params, policy, _ in _VERIFY_CASES]
    + [(IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N),
        TruncationPolicy()) for N, n, x in _LOCAL_DIP_CASES]
    + [(IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=2),
        TruncationPolicy(stable_run=stable_run))
       for n, x, stable_run, _ in _ONE_NONZERO_CASES]
)


@pytest.mark.parametrize("identity,params,policy", _WINDOW_CASES)
def test_every_window_read_holds_the_last_small_magnitudes(
    monkeypatch, identity, params, policy
):
    # the sum skips the window while its terms are large, which is sound
    # only if each window `_tail_stops` reads is still that of terms
    # k - stable_run + 1..k, the zero terms off the lattice included
    reads = []
    tail_stops = identities._tail_stops

    def recording_tail_stops(
        window, k, peak, prev_nz, last_nz, threshold, *rest
    ):
        reads.append((k, list(window), threshold))
        return tail_stops(window, k, peak, prev_nz, last_nz, threshold, *rest)

    monkeypatch.setattr(identities, "_tail_stops", recording_tail_stops)
    report = verify(identity, params, policy)
    mags = term_magnitudes(identity, params, 0, policy.k_max)
    for k, window, threshold in reads:
        assert len(window) == policy.stable_run
        assert all(v < threshold for v in window)
        assert window == mags[k - policy.stable_run + 1 : k + 1]
    if report.converged:
        assert reads[-1][0] == report.K_used


def test_the_tail_goes_on_past_a_lone_or_a_growing_magnitude(monkeypatch):
    # EULER_CHEB N = 5, n = 0 at tol 1: the windows at k = 5, 6 hold one
    # nonzero magnitude with none before it, and those at k = 7..10 a
    # ratio of 1.25 or 1; had either gone on to the estimate, the sum
    # would have stopped at k = 5 or 7
    lone, growing = [], []
    tail_stops = identities._tail_stops

    def recording_tail_stops(window, k, peak, prev_nz, last_nz, *rest):
        stops = tail_stops(window, k, peak, prev_nz, last_nz, *rest)
        nonzero = [v for v in window if v > 0.0]
        if len(nonzero) == 1 and not prev_nz:
            lone.append((k, stops))
        elif len(nonzero) > 1 and any(
            b >= a for a, b in zip(nonzero, nonzero[1:])
        ):
            growing.append((k, stops))
        return stops

    monkeypatch.setattr(identities, "_tail_stops", recording_tail_stops)
    report = verify(
        IdentityId.EULER_CHEB, IdentityParams(n=0, cheb_index=5),
        TruncationPolicy(tol=1),
    )
    assert (report.status, report.K_used) == (Status.VERIFIED, 13)
    assert lone == [(5, False), (6, False)]
    assert growing == [(k, False) for k in (7, 8, 9, 10)]


def test_underflowed_terms_stop_on_the_envelope_ratio_past_the_peak():
    # four equal stand-ins read ratio 1; past the peak at k = 5 the
    # envelope k^5 2^-k falls by 0.5 (11/10)^5 = 0.81 at k = 10
    u = identities._UNDERFLOW
    stops = functools.partial(
        identities._tail_stops, [u] * 4, peak=5.0, prev_nz=u, last_nz=u,
        S=0, den=1, lhs=F(1), decay=0.5,
    )
    assert stops(k=10, threshold=1e-12)
    assert not stops(k=4, threshold=1e-12)  # before the peak
    assert not stops(k=10, threshold=u)  # the estimate is 4.1 u


# --- the Chebyshev terms on their lattice ---------------------------------------------

_LATTICE_CASES = [
    IdentityParams(n=n, x=x, cheb_index=N)
    for N in range(1, 7) for n in (0, 1, 7, 20, 40) for x in (F(0), F(1, 3), F(1))
]


@pytest.mark.parametrize(
    "params", _LATTICE_CASES,
    ids=lambda p: f"N{p.cheb_index}-n{p.n}-x{p.x.numerator}_{p.x.denominator}",
)
def test_lattice_terms_equal_direct_formulas(params):
    # the step-2 table takes over at k = N % 2 + 2n <= 81, well inside 400
    count = 400
    identity = IdentityId.EULER_CHEB
    reference = [_reference_term(identity, params, k) for k in range(count)]
    assert list(itertools.islice(rhs_terms(identity, params), count)) == reference
    assert eval_rhs_partial(identity, params, count - 1) == sum(reference)
    assert term_magnitudes(identity, params, 0, count - 1) == [
        abs(float(t)) for t in reference
    ]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_stride_two_stream_advances_once_per_lattice_step(monkeypatch, N):
    tables, indices, drawn = [], [], [0]
    difference_table = identities._difference_table
    term_numerators = identities._term_numerators
    spec = identities._SPECS[IdentityId.EULER_CHEB]

    def recording_table(row):
        tables.append(len(row))
        return difference_table(row)

    def recording_right(params):
        weights, value, d = spec.right(params)

        def recording_value(k):
            indices.append(k)
            return value(k)

        return weights, recording_value, d

    def counting_term_numerators(*args):
        for item in term_numerators(*args):
            drawn[0] += 1
            yield item

    monkeypatch.setattr(identities, "_difference_table", recording_table)
    monkeypatch.setitem(
        identities._SPECS, IdentityId.EULER_CHEB, spec._replace(right=recording_right)
    )
    monkeypatch.setattr(identities, "_term_numerators", counting_term_numerators)
    n, count = 7, 200
    params = IdentityParams(n=n, x=F(1, 3), cheb_index=N)
    lattice = range(N % 2, count, 2)
    list(itertools.islice(rhs_terms(IdentityId.EULER_CHEB, params), count))
    # the hop row has 2 dy = o1, so the value is of degree n // 2 in k:
    # one table of the n // 2 + 1 head values, each computed once on the
    # lattice, and one stream item per lattice index
    head = n // 2 + 1
    assert tables == [head]
    assert sorted(indices) == list(lattice[:head])
    assert drawn == [len(lattice)]
    # verify draws one item per lattice index through K_used, and builds
    # the table only if it gets past the head (N = 1 stops in it)
    tables.clear()
    indices.clear()
    drawn[0] = 0
    report = verify(IdentityId.EULER_CHEB, params, TruncationPolicy(tol=1e-6))
    reached = len(range(N % 2, report.K_used + 1, 2))
    assert drawn == [reached]
    assert tables == ([head] if reached > head else [])
    assert set(indices) <= set(lattice[:head])
    assert len(indices) == len(set(indices))
    # a stride-1 stream draws one item at every index, from one table
    tables.clear()
    drawn[0] = 0
    params = IdentityParams(n=n, x=F(1, 3))
    list(itertools.islice(rhs_terms(IdentityId.FOUR_UNIFORM_1D, params), count))
    assert tables == [head]
    assert drawn == [count]


def test_stride_two_weights_state_no_weight_off_the_lattice():
    # geometric weights, none of them 0, declared on a lattice of stride 2:
    # the stream holds the lattice weights only, numerator j at index
    # phase + 2j over C step^j (the growth is per lattice step), so no
    # nonzero weight can sit off the lattice
    params = IdentityParams(n=2, x=F(1, 3))
    spec = identities._SPECS[IdentityId.FOUR_UNIFORM_1D]
    _, value, d = spec.right(params)
    for phase in (0, 1):

        def right(p):
            weights = identities._geometric(1, 4, 3, 4)
            return weights._replace(stride=2, phase=phase), value, d

        lattice_spec = spec._replace(right=right)
        terms = itertools.islice(identities._terms(lattice_spec, params), 40)
        for k, (t, den) in enumerate(terms):
            j, off = divmod(k - phase, 2)
            if off or j < 0:
                assert t == 0
            else:
                assert F(t, den) == F(3**j, 4 * 4**j) * F(*value(k))


# the 514 single-index instances of the benchmark's hop_sums workload,
# every one of them on geometric weights
_HOP_SUM_X = (F(0), F(1, 2), F(1), F(-1, 3))
_HOP_SUM_INSTANCES = [
    (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N))
    for N in (1, 2, 3) for n in range(21) for x in _HOP_SUM_X
] + [
    (identity, IdentityParams(n=n, x=x))
    for identity in (
        IdentityId.FOUR_UNIFORM_1D,
        IdentityId.N3_UNIFORM,
        IdentityId.N4_UNIFORM_CORRECTED,
    )
    for n in range(21) for x in _HOP_SUM_X
] + [(IdentityId.EVEN_BERNOULLI, IdentityParams(m=m)) for m in range(1, 11)]


def test_geometric_lattice_ratios_are_in_lowest_terms():
    # past any leading zero, numerator j + 1 is r.num times numerator j and
    # the denominator grows by step, so r.num / step is the ratio per
    # lattice step: coprime, no step grows the denominator by a factor the
    # numerators cancel, and a ratio numerator of 1 folds into the values
    assert len(_HOP_SUM_INSTANCES) == 514
    chebyshev = {}
    for identity, params in _HOP_SUM_INSTANCES:
        params = normalize_params(identity, params)
        weights, _, _ = identities._SPECS[identity].right(params)
        u = list(itertools.islice(weights.numerators, 12))
        lead = next(j for j, v in enumerate(u) if v)
        first, ratio = u[lead], u[lead + 1] // u[lead]
        assert u == [0] * lead + [first * ratio**i for i in range(12 - lead)]
        assert math.gcd(ratio, weights.step) == 1
        assert math.gcd(first, weights.C) == 1
        if identity is IdentityId.EULER_CHEB:
            chebyshev[params.cheb_index] = (ratio, weights.step)
    # p_(l+2) / p_l is 0, 1/2 and 3/4: N = 2 grows one bit per lattice
    # step, N = 3 two
    assert chebyshev == {1: (0, 1), 2: (1, 2), 3: (3, 4)}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chebyshev_weights_up_to_3_are_stated_from_t_n(monkeypatch, N):
    # for N <= 3 the weights come from T_N itself (p_N = 2^(1-N), ratio
    # N / 4 per lattice step), not from the lattice stream, which is
    # patched to raise so the closed form is what is checked
    reference = chebyshev_recip_weights(N, N % 2 + 600)[N % 2 :: 2]

    def no_stream(N):
        raise AssertionError(f"read the lattice stream for N = {N}")

    monkeypatch.setattr(identities, "chebyshev_lattice_numerators", no_stream)
    weights = identities._chebyshev_weights(IdentityParams(cheb_index=N))
    assert (weights.stride, weights.phase) == (2, N % 2)
    u = itertools.islice(weights.numerators, 300)
    stated = [F(v, weights.C * weights.step**j) for j, v in enumerate(u)]
    assert len(stated) == len(reference) == 300
    assert stated[: N // 2 + 1] == [0] * (N // 2) + [F(1, 2 ** (N - 1))]
    assert stated == reference


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=12))
def test_difference_table_equals_naive_backward_differences(row):
    # the j-th backward difference at the last value, for j = 0, 1, ...,
    # each level built from the one before; the table lists them top-first
    naive, level = [], list(row)
    while level:
        naive.append(level[-1])
        level = [hi - lo for lo, hi in zip(level, level[1:])]
    given_row = list(row)
    assert identities._difference_table(given_row) == naive[::-1]
    assert given_row == row


# --- the degree each right side states --------------------------------------------


def _lattice_terms(right, params, d=None, count=120):
    """The first `count` exact lattice terms of a right side, streamed from
    the degree it states or, given d, from d."""
    weights, value, stated = right(params)
    terms = identities._term_numerators(stated if d is None else d, weights, value)
    den, out = 1, []
    for t, m in itertools.islice(terms, count):
        den *= m
        out.append(F(t, den))
    return out


# every catalog right side, and the errata's three-site block sum, with its
# level count and its bound on the value's degree in k
_RIGHT_SIDES = [
    (identity, spec.right, spec.level_count, spec.degree)
    for identity, spec in identities._SPECS.items()
] + [("three-site blocks", identities._renewal(Walk.REFLECTED_1D), 2, lambda p: p.n)]

_LEVEL_STEPS = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=6)


@st.composite
def _right_side_cases(draw):
    name, right, level_count, bound = draw(st.sampled_from(_RIGHT_SIDES))
    steps = draw(st.lists(_LEVEL_STEPS, min_size=level_count, max_size=level_count))
    params = IdentityParams(**{
        "n": draw(st.integers(0, 24)),
        "x": draw(st.fractions(min_value=-3, max_value=3, max_denominator=7)),
        "levels": tuple(itertools.accumulate(steps)) if level_count else None,
        **_drawn_fields(draw, name),
    })
    if name == IdentityId.EVEN_BERNOULLI:
        params = normalize_params(name, params)
    return right, params, bound(params)


@settings(max_examples=160, deadline=None)
@given(_right_side_cases())
def test_stated_degree_streams_the_terms_of_the_bound(case):
    """Each catalog right side has a loop factor even in w, so it states
    the degree n // 2 in k, and the terms streamed from that degree are
    those streamed from the bound n."""
    right, params, bound = case
    assert right(params)[2] == bound // 2
    assert _lattice_terms(right, params) == _lattice_terms(right, params, bound)


def test_printed_four_general_right_side_states_the_bound():
    # the printed table's constants put odd coefficients in its loop, so
    # its value is of degree n in k and a head of n // 2 + 1 values does
    # not continue it: the rule that halves the degree is not vacuous
    params = IdentityParams(n=5, x=F(0), levels=(1, 2, 4))
    right = identities._printed_fg_right
    assert right(params)[2] == 5
    assert _lattice_terms(right, params, 2) != _lattice_terms(right, params)


def _chebyshev_stops(rows):
    return [
        (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N),
         TruncationPolicy(tol, stable_run, k_max))
        for N, n, x, tol, stable_run, k_max in rows
    ]


# A zero term on the lattice grows the partial sum's denominator by its m
# at once, and one off it leaves the sum as it is; the report must give the
# exact partial sum through K_used either way. Each case stops, or is
# cut off by k_max, on a zero term: off the Chebyshev lattice (a term the
# lattice stream does not carry), on it where its weight is 0, or in an
# all-zero sum (odd n at x = 1/2).
_ZERO_STOP_CASES = _chebyshev_stops((
    # tail-estimate and exact stops on an off-lattice zero
    (2, 2, F(0), 1e-12, 3, 400),
    (2, 7, F(-1, 3), 1e-12, 3, 400),
    (2, 1, F(1, 2), 1e-12, 4, 400),
    (3, 2, F(2), 1e-6, 3, 400),
    (3, 8, F(1, 2), 1e-6, 5, 400),
    (3, 1, F(1, 2), 1e-12, 5, 400),
    (3, 2, F(0), 1e-12, 3, 400),
    # k_max cut-offs on an off-lattice zero, in the tail and the head
    (2, 5, F(1, 3), 1e-12, 4, 41),
    (3, 5, F(1, 3), 1e-12, 4, 40),
    (3, 5, F(1, 3), 1e-12, 4, 1),
)) + [
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=7, x=F(1, 2)), policy)
    for policy in (
        TruncationPolicy(),
        TruncationPolicy(stable_run=6, k_max=5),
        TruncationPolicy(k_max=2),
    )
] + _chebyshev_stops((
    # N = 1: the one nonzero weight is p_1, so the sum is exact from
    # k = 1 and stops on the first all-zero window, off the lattice
    # (K 4, 6) or on it (K 5)
    (1, 2, F(1, 3), 1e-12, 3, 400),
    (1, 2, F(1, 3), 1e-12, 4, 400),
    (1, 0, F(0), 1e-12, 5, 400),
    # N = 4: phase 0 and two taps, zero weights on the lattice at k < 4;
    # exact stops off the lattice (K 1, 3) and on it (K 2), and a tail
    # estimate off the lattice at K 81
    (4, 3, F(1, 2), 1e-12, 2, 400),
    (4, 3, F(1, 2), 1e-12, 3, 400),
    (4, 3, F(1, 2), 1e-12, 4, 400),
    (4, 2, F(0), 1e-6, 3, 400),
    (4, 4, F(-1, 3), 1e-6, 3, 400),
    # the peak gate reads the off-lattice index: the envelope's peak
    # 21 / ln(1/cos(pi/4)) = 60.6 falls between lattice index 60 and
    # its zero partner 61, where the tail estimate stops the sum
    (2, 21, F(0), 1e-2, 3, 400),
    # k_max cut-offs on each slot of a lattice pair (lattice index, then
    # its off-lattice partner), at phase 0 (N = 2, 4) and phase 1
    # (N = 3, 5): lattice zeros below N or in an all-zero sum
    (4, 2, F(1, 3), 1e-12, 4, 2),
    (4, 2, F(1, 3), 1e-12, 4, 3),
    (2, 3, F(1, 2), 1e-12, 6, 4),
    (2, 3, F(1, 2), 1e-12, 6, 3),
    (3, 2, F(1, 3), 1e-12, 4, 1),
    (3, 2, F(1, 3), 1e-12, 4, 2),
    (3, 3, F(1, 2), 1e-12, 6, 3),
    (3, 3, F(1, 2), 1e-12, 6, 4),
    (5, 2, F(1, 3), 1e-12, 4, 3),
    (5, 2, F(1, 3), 1e-12, 4, 4),
))


@pytest.mark.parametrize("identity, params, policy", _ZERO_STOP_CASES)
def test_pending_zero_growth_is_taken_at_the_stop(identity, params, policy):
    report = verify(identity, params, policy)
    assert rhs_term(identity, params, report.K_used) == 0
    assert report == _reference_verify(identity, params, policy)
    assert report.rhs_partial_exact == eval_rhs_partial(
        identity, params, report.K_used
    )


def _printed_four_general_partial(K):
    """The boxed FOUR_GENERAL_1D block list summed over k <= K, l <= k."""
    lv = (F(1), F(2), F(4))
    total = F(0)
    for k in range(K + 1):
        for l in range(k + 1):
            q = (
                comb(k, l)
                * (lv[1] - lv[0]) ** (l + 1)
                * lv[0] ** (k - l + 1)
                * (lv[2] - lv[1]) ** (k - l)
                / (lv[1] ** (k + 1) * (lv[2] - lv[0]) ** (k - l + 1))
            )
            r_kl = lv[2] + (2 * k - 2 * l) * lv[1] + (3 * l - k + 1) * lv[0]
            expr = UmbralExpr.build(
                (Family.BERNOULLI, 2 * (lv[1] - lv[0]), 1),
                (Family.BERNOULLI, 2 * (lv[2] - lv[1]), 1),
                (Family.EULER, lv[0], l),
                (Family.UNIFORM, 2 * (lv[1] - lv[0]), l),
                (Family.UNIFORM, 2 * lv[0], k - l),
                (Family.BERNOULLI, 2 * (lv[1] - lv[0]), k - l),
                constant=r_kl,
            )
            total += q * eval_poly(umbral_moment(expr, 1), F(0))
    return total


def _count_errata_moments(monkeypatch):
    """The degrees of the block moments `errata_report` takes: each is one
    `_moment_at` call in `identities`."""
    calls = []
    moment_at = identities._moment_at

    def counting_moment_at(series, params):
        calls.append(params.n)
        return moment_at(series, params)

    monkeypatch.setattr(identities, "_moment_at", counting_moment_at)
    return calls


def test_errata_printed_blocks_stream_equals_double_loop(monkeypatch):
    calls = _count_errata_moments(monkeypatch)
    entry = errata_report()["four_general_printed_blocks"]
    assert entry["printed_partial_through_k80"] == str(
        _printed_four_general_partial(80)
    )
    # the moments of the printed and implemented block sums at k = 0, 1,
    # the three-site block moments and the block sums' left sides; the
    # double loop made 3,321
    assert 0 < len(calls) < 20


def _paper_three_site_weight(k, levels):
    """Term k's weight p_k of the sound three-site moment identity."""
    a1, a2 = levels
    return (a1 / a2) * (1 - a1 / a2) ** k


def _paper_three_site_term(k, n, x, levels):
    """Term k of the sound three-site moment identity, block form."""
    moment = umbral_moment(_paper_three_site_blocks(k, levels), n)
    return _paper_three_site_weight(k, levels) * eval_poly(moment, x)


def test_errata_three_site_blocks_stream_equals_direct_sum(monkeypatch):
    levels = (F(1), F(3))
    direct = sum(
        (_paper_three_site_term(k, 2, F(0), levels) for k in range(96)), F(0)
    )
    lhs = eval_poly(
        umbral_moment(UmbralExpr.build((Family.EULER, 6, 1), constant=3), 2),
        F(0),
    )
    calls = _count_errata_moments(monkeypatch)
    entry = errata_report()["three_sites_corrected_degree_2"]
    assert entry["block_level_partial"] == str(direct)
    assert entry["block_level_residual"] == abs(float(lhs - direct))
    # the direct sum makes one block moment per term, 96 of them
    assert 0 < len(calls) < 20


# --- block-level running products against one-shot moments ------------------------


def _paper_n3_weight(k, levels):
    """Term k's weight for three general spheres."""
    a1, a2, a3 = levels
    return (
        a3
        * (a2 - a1)
        * (a3 - a2) ** k
        * a1**k
        / ((a3 - a1) ** (k + 1) * a2 ** (k + 1))
    )


def _paper_n3_blocks(k, levels):
    """Term k's block list for three general spheres, as the chain gives it."""
    a1, a2, a3 = levels
    return UmbralExpr.build(
        (Family.UNIFORM, 2 * (a2 - a1), 1),
        (Family.UNIFORM, 2 * (a3 - a2), k),
        (Family.UNIFORM, 2 * a1, k),
        (Family.BERNOULLI, 2 * (a3 - a1), k + 1),
        (Family.BERNOULLI, 2 * a2, k + 1),
        constant=a3 + 2 * k * a2 - 2 * k * a1,
    )


def _paper_four_general_weight(k, l, levels):
    """Term (k, l)'s weight for four general sites."""
    a1, a2, a3 = levels
    return (
        comb(k, l)
        * (a2 - a1) ** (l + 1)
        * a1 ** (k - l + 1)
        * (a3 - a2) ** (k - l)
        / (a2 ** (k + 1) * (a3 - a1) ** (k - l + 1))
    )


def _paper_four_general_blocks(k, l, levels):
    """Term (k, l)'s block list for four general sites, from the two-loop
    chain product."""
    a1, a2, a3 = levels
    return UmbralExpr.build(
        (Family.EULER, 2 * a1, l + 1),
        (Family.UNIFORM, 2 * (a2 - a1), l + 1),
        (Family.UNIFORM, 2 * a1, k - l + 1),
        (Family.UNIFORM, 2 * (a3 - a2), k - l),
        (Family.BERNOULLI, 2 * a2, k + 1),
        (Family.BERNOULLI, 2 * (a3 - a1), k - l + 1),
        constant=a3 + 2 * (k - l) * a2 + 2 * (2 * l - k) * a1,
    )


def _paper_three_site_blocks(k, levels):
    """Term k's block list of the sound three-site moment identity."""
    a1, a2 = levels
    return UmbralExpr.build(
        (Family.UNIFORM, 2 * a1, 1),
        (Family.UNIFORM, 2 * (a2 - a1), k),
        (Family.BERNOULLI, 2 * a2, k + 1),
        (Family.EULER, 2 * a1, k + 1),
        constant=a2 + 2 * a1 * k,
    )


_LEVELS = st.lists(
    st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4),
    min_size=3, max_size=3, unique=True,
).map(lambda v: tuple(sorted(v)))


@settings(max_examples=25, deadline=None)
@given(
    levels=_LEVELS,
    n=st.integers(0, 8),
    k_max=st.integers(0, 10),
    x=st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_streamed_block_values_equal_one_shot_moments(levels, n, k_max, x):
    """The weights and values the block-level right sides read from the
    walk's moves equal the paper's block lists, weight by weight and
    moment by moment."""

    def one_shot(expr):
        return eval_poly(umbral_moment(expr, n), x)

    def terms(right, levels):
        weights, value, _ = right(IdentityParams(n=n, x=x, levels=levels))
        # stride 1: lattice index j is index k
        assert weights.stride == 1
        for k, u in zip(range(k_max + 1), weights.numerators):
            yield k, F(u, weights.C * weights.step**k), F(*value(k))

    n3 = identities._SPECS[IdentityId.N3_GENERAL].right
    for k, weight, value in terms(n3, levels):
        assert weight == _paper_n3_weight(k, levels)
        assert value == one_shot(_paper_n3_blocks(k, levels))

    # term k of the four-site sum is the sum over l of its terms (k, l)
    four = identities._SPECS[IdentityId.FOUR_GENERAL_1D].right
    for k, weight, value in terms(four, levels):
        weights = [_paper_four_general_weight(k, l, levels) for l in range(k + 1)]
        assert weight == sum(weights)
        assert weight * value == sum(
            q * one_shot(_paper_four_general_blocks(k, l, levels))
            for l, q in enumerate(weights)
        )

    pair = levels[:2]
    three_sites = identities._renewal(Walk.REFLECTED_1D)
    for k, weight, value in terms(three_sites, pair):
        assert weight == _paper_three_site_weight(k, pair)
        assert value == one_shot(_paper_three_site_blocks(k, pair))


# --- work guards ------------------------------------------------------------------


def _counted(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def test_four_general_moments_bounded_by_the_degree_lattice(monkeypatch):
    from umbralwalk import umbral

    egfs, products = [], []
    # every `umbral_moment` call takes its series from `umbral.expr_egf`
    for module in (umbral, identities):
        monkeypatch.setattr(module, "expr_egf", _counted(umbral.expr_egf, egfs))
    monkeypatch.setattr(identities, "ps_mul", _counted(identities.ps_mul, products))
    n = 4
    report = verify(
        IdentityId.FOUR_GENERAL_1D,
        IdentityParams(n=n, x=F(1), levels=(1, 2, 4)),
    )
    assert report.status is Status.VERIFIED
    assert report.K_used > n
    assert egfs == []
    # the loop is even in w, so the value is of degree n // 2 in k: the
    # head terms 0..n // 2 take one running product each, k = 0 none; the
    # lattice of two loop counts took (n+1)(n+2)/2 block moments
    assert len(products) == n // 2


def test_n3_general_takes_kernel_powers_once_per_instance(monkeypatch):
    from umbralwalk import polynomials, umbral

    def requests(n):
        params = IdentityParams(n=n, x=F(1), levels=(1, 2, 4))
        # the certificate, once per level system, is not this count
        ensure_ground_truth(IdentityId.N3_GENERAL, params)
        moves, powers = [], []
        # a move's numerator and denominator are each derived by one call
        for name in ("_numerator", "_denominator"):
            monkeypatch.setattr(
                loopcalc, name, _counted(getattr(loopcalc, name), moves)
            )
        # the memo's checked read and its unit read, wherever they are bound
        reads = {
            name: getattr(series, name)
            for name in ("kernel_power_numerators", "unit_power_numerators")
        }
        for module in (series, umbral, polynomials):
            for name, read in reads.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _counted(read, powers))
        report = verify(IdentityId.N3_GENERAL, params)
        monkeypatch.undo()
        assert report.status is Status.VERIFIED
        assert report.K_used > n
        # the right side reads its moves, not the kernel-power memo
        assert powers == []
        return len(moves)

    # the left side and the right side read the certified record: no
    # move is derived again, whatever the degree
    assert requests(4) == requests(12) == 0


def test_multi_level_derives_each_record_move_once_per_system(monkeypatch):
    identities._ground_truth_residual.cache_clear()
    numerators, denominators = [], []
    for name, calls in (
        ("_numerator", numerators), ("_denominator", denominators)
    ):
        monkeypatch.setattr(
            loopcalc, name, _counted(getattr(loopcalc, name), calls)
        )
    # the N3_GENERAL and FOUR_GENERAL_1D instances of the benchmark's
    # multi-level matrix, from a cold memo
    instances = [
        (IdentityId.N3_GENERAL, IdentityParams(n=n, x=F(x), levels=levels))
        for levels in ((1, 2, 4), (1, 3, 5)) for n in range(7) for x in (0, 1)
    ] + [
        (IdentityId.FOUR_GENERAL_1D,
         IdentityParams(n=1, x=F(x), levels=(1, 2, 4)))
        for x in (0, 1)
    ]
    try:
        for identity, params in instances:
            assert verify(identity, params).status is Status.VERIFIED
    finally:
        identities._ground_truth_residual.cache_clear()
    for calls, per_system in ((numerators, 6), (denominators, 4)):
        derived = [((s.walk, s.levels), move) for s, move, _ in calls]
        assert len(set(derived)) == len(derived)
        # three systems of three levels above 0: the numerators of H_0,
        # two ups, two downs and the free move each, and the denominators
        # of H_0, the free move and the two walls W_i that each up_i
        # shares with down_i
        assert len(derived) == 3 * per_system
        assert {order for _, _, order in calls} == {
            identities._GROUND_TRUTH_ORDER
        }


def test_constant_exponentials_take_no_kernel_power_chain(monkeypatch):
    monkeypatch.setattr(series, "_POWER_CACHE", {})
    payload = verify_all_payload()
    assert payload["all_passed"]
    assert series._POWER_CACHE
    assert all(kind is not Kernel.EXP for kind in series._POWER_CACHE)


def test_four_uniform_asks_for_no_order_beyond_the_direct_terms(monkeypatch):
    orders = []

    def recording_hop_euler(n, p):
        orders.append(p)
        return hop_euler(n, p)

    monkeypatch.setattr(identities, "hop_euler", recording_hop_euler)
    n = 10
    report = verify(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=n))
    assert report.K_used > n
    assert max(orders) <= 2 * n + 3


# --- verification -----------------------------------------------------------------


def test_verify_n3_uniform_small_case():
    report = verify(IdentityId.N3_UNIFORM, IdentityParams(n=1, x=F(0)))
    assert report.status is Status.VERIFIED
    assert report.lhs_exact == F(1, 2)
    assert report.converged


def test_verify_n4_stated_audit_values():
    report = verify(IdentityId.N4_UNIFORM_STATED, IdentityParams(n=1, x=F(0)))
    assert report.status is Status.RESIDUAL_NONZERO
    assert report.lhs_exact == F(1, 6)
    assert abs(float(report.rhs_partial_exact - F(1, 3))) < 1e-12


def test_verify_n4_stated_fails_from_degree_0():
    # the left side is 1, the partial sums 1 + 1/2 + ... + 2^-K = 2 - 2^-K
    params = IdentityParams(n=0, x=F(0))
    report = verify(IdentityId.N4_UNIFORM_STATED, params)
    assert report.status is Status.RESIDUAL_NONZERO
    assert (report.K_used, report.lhs_exact) == (43, 1)
    for K in (0, 1, 5, report.K_used):
        assert eval_rhs_partial(IdentityId.N4_UNIFORM_STATED, params, K) == (
            2 - F(1, 2**K)
        )
    assert report.rhs_partial_exact == 2 - F(1, 2**report.K_used)


def test_verify_three_sites_degenerate_spacing():
    report = verify(
        IdentityId.THREE_SITES_1D_STATED,
        IdentityParams(n=1, x=F(7), levels=(1, 2)),
    )
    assert report.status is Status.DEGENERATE_TRIVIAL
    assert report.K_used == -1


def test_verify_respects_k_max():
    report = verify(
        IdentityId.FOUR_UNIFORM_1D,
        IdentityParams(n=4, x=F(0)),
        TruncationPolicy(tol=1e-12, k_max=20),
    )
    assert report.status is Status.NOT_CONVERGED
    assert report.K_used == 20


@pytest.mark.parametrize("identity, params, status", [
    (IdentityId.N3_UNIFORM, IdentityParams(n=1), Status.VERIFIED),
    (IdentityId.N4_UNIFORM_STATED, IdentityParams(n=1), Status.RESIDUAL_NONZERO),
    (IdentityId.EULER_CHEB, IdentityParams(n=20, x=F(0), cheb_index=3),
     Status.NOT_CONVERGED),
    (IdentityId.THREE_SITES_1D_STATED, IdentityParams(n=1, x=F(7), levels=(1, 2)),
     Status.DEGENERATE_TRIVIAL),
], ids=lambda v: v.value if isinstance(v, Status) else None)
def test_converged_is_read_from_the_status(identity, params, status):
    report = verify(identity, params)
    assert report.status is status
    assert report.converged == (report.status is not Status.NOT_CONVERGED)
    assert "converged" not in report._fields


# true identities that the ratio stop reports RESIDUAL_NONZERO: the value
# polynomial has a real root past the peak gate, the terms dip below the
# threshold around it, the estimate stops the sum, and the terms rise again
_FALSE_RESIDUALS = [
    (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N))
    for N, n, x in [
        (2, 46, F(-1, 3)), (3, 34, F(7, 5)), (3, 36, F(7, 5)),
        (3, 44, F(-1, 3)), (3, 46, F(-1, 3)), (3, 48, F(-1, 3)),
        (3, 50, F(-1, 3)),
    ]
] + [
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=n, x=x))
    for n, x in [(36, F(7, 5)), (50, F(-1, 3))]
]


def _false_residual_id(case) -> str:
    identity, params = case
    N = "" if params.cheb_index is None else f"-N{params.cheb_index}"
    return f"{identity.value}{N}-n{params.n}-x{params.x}"


@pytest.mark.xfail(
    strict=True,
    reason="the ratio stop ends these sums in a dip of their terms; ROADMAP"
    " directions 2-3 (exact limits, then an exact-tail veto on the stop) mend it",
)
@pytest.mark.parametrize("case", _FALSE_RESIDUALS, ids=_false_residual_id)
def test_true_identities_are_not_reported_residual_nonzero(case):
    assert verify(*case).status is not Status.RESIDUAL_NONZERO


@pytest.mark.parametrize("case", _FALSE_RESIDUALS, ids=_false_residual_id)
def test_falsely_reported_identities_hold_at_long_partial_sums(case):
    lhs = eval_lhs(*case)
    gap = eval_rhs_partial(*case, 1600) - lhs
    assert abs(gap) < abs(lhs) / 10**60


def test_verify_all_zero_tail_short_circuits():
    # odd degree at x = 1/2: every term vanishes and so does the left side
    report = verify(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=7, x=F(1, 2)))
    assert report.status is Status.VERIFIED
    assert report.residual_float == 0.0
    assert report.K_used <= 5


@pytest.mark.parametrize(
    "identity, params",
    [
        (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=2, x=F(10**400))),
        (IdentityId.EULER_CHEB, IdentityParams(n=3, x=F(10**120), cheb_index=1)),
    ],
)
def test_verify_rejects_values_beyond_the_float_range(identity, params):
    # the left side exceeds the largest double, so no tolerance applies
    with pytest.raises(InvalidParamsError, match="float range of the tail control"):
        verify(identity, params)


def test_term_magnitudes_reject_terms_beyond_the_float_range():
    params = IdentityParams(n=2, x=F(10**400))
    with pytest.raises(InvalidParamsError, match="float range of the tail control"):
        term_magnitudes(IdentityId.FOUR_UNIFORM_1D, params, 0, 3)


def test_four_uniform_full_matrix_verifies_at_engine_semantics():
    for n in range(0, 11):
        for x in (F(0), F(1, 2), F(1), F(-1, 3)):
            report = verify(IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=n, x=x))
            assert report.status is Status.VERIFIED, (n, x, report)


def test_report_json_schema():
    report = verify(IdentityId.N3_UNIFORM, IdentityParams(n=2, x=F(1, 2)))
    payload = report.to_json()
    assert set(payload) >= {
        "identity", "variant", "n", "x", "levels", "K_used",
        "lhs", "rhs_partial", "residual", "status",
    }
    assert payload["x"] == "1/2"
    assert isinstance(payload["residual"], float)
    json.dumps(payload)


# --- ground truth -------------------------------------------------------------------


# per identity: an instance, its variant and its ground-truth level system
_SPEC_FACTS = {
    IdentityId.EULER_CHEB: (
        IdentityParams(n=1, cheb_index=2), "stated",
        (Walk.REFLECTED_1D, (0, 1, 2)),
    ),
    IdentityId.THREE_SITES_1D_STATED: (
        IdentityParams(n=1, levels=(1, 3)), "stated",
        (Walk.REFLECTED_1D, (0, 1, 3)),
    ),
    IdentityId.THREE_SITES_1D_CORRECTED: (
        IdentityParams(n=1, levels=(2, 5)), "corrected",
        (Walk.REFLECTED_1D, (0, 2, 5)),
    ),
    IdentityId.FOUR_UNIFORM_1D: (
        IdentityParams(n=1), "stated", (Walk.REFLECTED_1D, (0, 1, 2, 3)),
    ),
    IdentityId.FOUR_GENERAL_1D: (
        IdentityParams(n=1, levels=(1, 2, 4)), "corrected",
        (Walk.REFLECTED_1D, (0, 1, 2, 4)),
    ),
    IdentityId.N3_GENERAL: (
        IdentityParams(n=1, levels=(1, 3, 5)), "corrected",
        (Walk.BESSEL_3D, (0, 1, 3, 5)),
    ),
    IdentityId.N3_UNIFORM: (
        IdentityParams(n=1), "stated", (Walk.BESSEL_3D, (0, 1, 2, 3)),
    ),
    IdentityId.EVEN_BERNOULLI: (
        IdentityParams(m=1), "stated", (Walk.BESSEL_3D, (0, 1, 2, 3)),
    ),
    IdentityId.N4_UNIFORM_STATED: (
        IdentityParams(n=1), "stated", (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
    IdentityId.N4_UNIFORM_CORRECTED: (
        IdentityParams(n=1), "corrected", (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
}


def test_spec_facts_cover_every_identity():
    assert list(_SPEC_FACTS) == list(IdentityId)
    assert [e.identity for e in catalog()] == list(IdentityId)


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_variant_and_ground_truth_system_per_identity(identity):
    params, variant, system = _SPEC_FACTS[identity]
    report = IdentityReport(identity, params, 0, F(0), F(0), 0.0, Status.VERIFIED)
    assert report.variant == variant
    assert report.to_json()["variant"] == variant
    got = ground_truth_system(identity, params)
    assert (got.walk, got.levels) == system


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_weights_record_states_stride_and_decay(identity):
    params = normalize_params(identity, _SPEC_FACTS[identity][0])
    weights, _, _ = identities._SPECS[identity].right(params)
    assert weights.decay == _reference_decay(identity, params)
    assert weights.stride == (2 if identity is IdentityId.EULER_CHEB else 1)


def test_ground_truth_memo_computes_each_system_once(monkeypatch):
    systems = []

    def counting_residual(system, order, *series):
        systems.append(system)
        return decomposition_residual(system, order, *series)

    monkeypatch.setattr(identities, "decomposition_residual", counting_residual)
    identities._ground_truth_residual.cache_clear()
    instances = [
        (IdentityId.N3_UNIFORM, IdentityParams(n=1)),
        (IdentityId.EVEN_BERNOULLI, IdentityParams(m=1)),  # the same system
        (IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=2)),
        (IdentityId.THREE_SITES_1D_CORRECTED,
         IdentityParams(n=1, levels=(1, 3))),
        (IdentityId.EULER_CHEB, IdentityParams(n=1, cheb_index=2)),
    ]
    for _ in range(3):
        for identity, params in instances:
            assert verify(identity, params).status is Status.VERIFIED
    assert [(s.walk, s.levels) for s in systems] == [
        (Walk.BESSEL_3D, (0, 1, 2, 3)),
        (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
        (Walk.REFLECTED_1D, (0, 1, 3)),
        (Walk.REFLECTED_1D, (0, 1, 2)),
    ]


def test_repeated_verify_builds_no_level_system_after_the_first(monkeypatch):
    # the memo is keyed by (walk, levels): a hit builds no LevelSystem
    built = []
    post_init = LevelSystem.__post_init__

    def counting_post_init(self):
        built.append(self.walk)
        post_init(self)

    monkeypatch.setattr(LevelSystem, "__post_init__", counting_post_init)
    identities._ground_truth_residual.cache_clear()
    try:
        for n in range(4):
            verify(IdentityId.N3_UNIFORM, IdentityParams(n=n))
        assert built == [Walk.BESSEL_3D]
        for _ in range(3):
            for n in range(4):
                assert verify(
                    IdentityId.N3_UNIFORM, IdentityParams(n=n)
                ).status is Status.VERIFIED
            # another identity resting on the same system
            verify(IdentityId.EVEN_BERNOULLI, IdentityParams(m=2))
        assert built == [Walk.BESSEL_3D]
    finally:
        identities._ground_truth_residual.cache_clear()


# rationals around the float range, where float(lhs - S/den) starts to
# overflow: a 53-bit mantissa times 2^e, over a small denominator
_NEAR_FLOAT_MAX = st.builds(
    lambda m, e: m << e,
    st.integers(-(2**54), 2**54),
    st.integers(960, 1030),
)


@settings(max_examples=300, deadline=None)
@given(
    lhs_num=st.one_of(st.integers(-(10**30), 10**30), _NEAR_FLOAT_MAX),
    lhs_den=st.integers(1, 10**6),
    S=st.one_of(st.integers(-(10**30), 10**30), _NEAR_FLOAT_MAX),
    den=st.integers(1, 10**6),
)
# the largest float, and the halfway point above it, which rounds to inf
@example(lhs_num=2**1024 - 2**971, lhs_den=1, S=0, den=1)
@example(lhs_num=2**1024 - 2**970, lhs_den=1, S=0, den=1)
@example(lhs_num=2**1024 - 2**970 - 1, lhs_den=1, S=0, den=1)
@example(lhs_num=2**1025, lhs_den=2, S=-(2**1023), den=1)
@example(lhs_num=2**1030, lhs_den=1, S=2**1030 - 1, den=1)
@example(lhs_num=1, lhs_den=3, S=2, den=6)
def test_integer_residual_equals_the_fraction_residual(lhs_num, lhs_den, S, den):
    lhs = F(lhs_num, lhs_den)
    try:
        want = abs(float(lhs - F(S, den)))
    except OverflowError:
        with pytest.raises(OverflowError):
            identities._residual(lhs, S, den)
    else:
        assert identities._residual(lhs, S, den) == want


def test_ground_truth_memo_is_bounded():
    identities._ground_truth_residual.cache_clear()
    try:
        for a in range(2, 202):
            ensure_ground_truth(
                IdentityId.THREE_SITES_1D_CORRECTED,
                IdentityParams(n=1, levels=(1, a)),
            )
        info = identities._ground_truth_residual.cache_info()
        assert info.misses == 200
        assert info.currsize <= 64
    finally:
        identities._ground_truth_residual.cache_clear()


def test_ground_truth_nonzero_residual_raises(monkeypatch):
    monkeypatch.setattr(
        identities, "decomposition_residual",
        lambda system, order, *series: F(1, 7),
    )
    identities._ground_truth_residual.cache_clear()
    try:
        with pytest.raises(EngineConsistencyError, match="1/7"):
            ensure_ground_truth(IdentityId.N3_UNIFORM, IdentityParams(n=1))
        with pytest.raises(EngineConsistencyError):
            verify(IdentityId.N3_UNIFORM, IdentityParams(n=1))
    finally:
        identities._ground_truth_residual.cache_clear()


@st.composite
def _linear_systems(draw):
    # inside renewal_loops' range: 1-3 levels above 0 on the reflected
    # walk, 1-4 on the Bessel walk
    walk = draw(st.sampled_from([Walk.REFLECTED_1D, Walk.BESSEL_3D]))
    top = 3 if walk is Walk.REFLECTED_1D else 4
    levels = draw(st.lists(
        st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
        min_size=1, max_size=top, unique=True,
    ))
    return LevelSystem(walk, (F(0), *sorted(levels)))


@settings(max_examples=20, deadline=None)
@given(_linear_systems(), st.integers(min_value=1, max_value=64))
def test_record_serves_what_a_cold_derivation_gives(system, first):
    from umbralwalk.loopcalc import PhiMove, direct_mgf, phi, renewal_loops

    key, top = (system.walk, system.levels), system.top_index
    memo = identities._ground_truth_residual
    memo.cache_clear()
    try:
        # the first read meets a cold memo and certifies the system, at
        # the certificate's order or its own if longer; every read after
        # it is served by that one record
        for order in (first, *range(1, 65)):
            assert identities._free_at(key, order) == direct_mgf(system, order)
            assert identities._renewal_at(key, order) == renewal_loops(
                system, order
            )
            assert memo.cache_info().currsize == 1
        # each move is held as a kernel pair: up_i and down_i over the
        # one wall W_i they share, grown to the longest order read
        moves, _ = memo(key).pairs
        inner = range(1, top)
        read_moves = [
            (PhiMove(0, 1), ps_div(*moves.first)),
            *zip(
                (PhiMove(i, i + 1, i - 1) for i in inner),
                map(ps_div, moves.ups, moves.walls),
            ),
            *zip(
                (PhiMove(i, i - 1, i + 1) for i in inner),
                map(ps_div, moves.downs, moves.walls),
            ),
        ]
        assert len(read_moves) == 2 * top - 1
        for order in range(1, 65):
            for move, series in read_moves:
                assert identities._read(series, order) == phi(system, move, order)
    finally:
        memo.cache_clear()


def _quotient_record(system, order):
    """A record's free move, start and loops by the quotient construction:
    each move divided out of its closed form on its own (in w, then its
    even coefficients taken), the sinh arguments' ratio and the Bessel
    radial prefactor scaled in after the division, and the start and
    loops as products of those quotients; the start and loops are None
    outside `renewal_loops`' range."""
    lv, bessel_walk = system.levels, system.walk is Walk.BESSEL_3D
    free_kind = Kernel.SINH_OVER_ARG if bessel_walk else Kernel.COSH

    def ratio(kind, a, b):
        num, den = (kernel(kind, c, order) for c in (a, b))
        return PowerSeries(ps_div(num, den).coeffs[::2])

    def taboo(f, t, tb):
        if bessel_walk and lv[t] == 0:
            return PowerSeries.zero((order + 1) // 2)
        near, far = abs(lv[f] - lv[tb]), abs(lv[t] - lv[tb])
        out = ratio(Kernel.SINH_OVER_ARG, near, far).scale(near / far)
        return out.scale(lv[t] / lv[f]) if bessel_walk else out

    free = ratio(free_kind, 0, lv[-1])
    if not linear_in_loops(system):
        return free, None
    first = ratio(free_kind, 0, lv[1])
    inner = range(1, system.top_index)
    ups = [taboo(i, i + 1, i - 1) for i in inner]
    downs = [taboo(i, i - 1, i + 1) for i in inner]
    start = functools.reduce(ps_mul, ups, first)
    return free, (start, tuple(map(ps_mul, downs, (first, *ups))))


@st.composite
def _record_systems(draw):
    # up to one level beyond renewal_loops' range on each walk
    walk = draw(st.sampled_from([Walk.REFLECTED_1D, Walk.BESSEL_3D]))
    top = 4 if walk is Walk.REFLECTED_1D else 5
    levels = draw(st.lists(
        st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
        min_size=1, max_size=top, unique=True,
    ))
    return LevelSystem(walk, (F(0), *sorted(levels)))


@settings(max_examples=25, deadline=None)
@given(_record_systems())
@example(LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 4, 5)))
@example(LevelSystem(Walk.BESSEL_3D, (0, F(1, 2), 1, F(5, 2), 4)))
def test_record_equals_the_quotient_construction(system):
    memo = identities._ground_truth_residual
    memo.cache_clear()
    try:
        record = memo((system.walk, system.levels))
        free, renewal = _quotient_record(
            system, identities._GROUND_TRUTH_ORDER
        )
        # read at the certificate's order, in u
        order = (identities._GROUND_TRUTH_ORDER + 1) // 2
        assert record.free(order) == free
        assert record.renewal(order) == renewal
    finally:
        memo.cache_clear()


def _prefixes(renewal, order):
    """A record's start and loops cut to their first `order` coefficients."""
    if renewal is None:
        return None
    start, loops = renewal
    return start.prefix(order), tuple(loop.prefix(order) for loop in loops)


@settings(max_examples=20, deadline=None)
@given(
    _record_systems(),
    st.lists(
        st.integers(1, 2 * identities._GROUND_TRUTH_ORDER),
        min_size=1, max_size=6,
    ),
)
@example(LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 4)), [9, 3, 30, 1, 17, 30])
@example(LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3, 4)), [2, 2, 1, 8, 7])
@example(LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 4)), [9, 41, 3, 42, 30, 60])
@example(LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 4, 5)), [31, 32, 1, 33])
def test_record_reads_at_any_order_equal_the_quotient_construction(
    system, orders
):
    memo = identities._ground_truth_residual
    memo.cache_clear()
    divisions, certificates = [], []
    try:
        record = memo((system.walk, system.levels))
        held = (identities._GROUND_TRUTH_ORDER + 1) // 2
        with pytest.MonkeyPatch.context() as patch:
            for module in (loopcalc, identities):
                patch.setattr(module, "ps_div", _counted(ps_div, divisions))
            patch.setattr(
                identities, "decomposition_residual",
                _counted(identities.decomposition_residual, certificates),
            )
            longest = 0
            for order in orders:
                free, renewal = _quotient_record(system, order)
                size = free.order
                before, certified = len(divisions), len(certificates)
                assert record.free(size).prefix(size) == free
                assert _prefixes(record.renewal(size), size) == renewal
                # the pairs are derived and certified again only for a
                # read past the order held, and then once, at that order
                grown = certificates[certified:]
                assert [w_order for _, w_order, *_ in grown] == (
                    [2 * size] if size > held else []
                )
                held = max(held, size)
                assert record.pairs[1][0].order == held
                # a quotient is divided again only for a longer read, and
                # then once, at the order read; an exact certificate
                # divides nothing
                quotients = 1 + (0 if renewal is None else 1 + len(renewal[1]))
                formed = divisions[before:]
                assert len(formed) == (quotients if size > longest else 0)
                assert all(a.order == size for a, _ in formed)
                longest = max(longest, size)
    finally:
        memo.cache_clear()


def _bessel_prefactor_dropped(numerator):
    def mutated(system, move, order):
        out = numerator(system, move, order)
        lv, to = system.levels, move.to_level
        if move.taboo_level is None or lv[to] == 0:
            return out
        return out.scale(lv[move.from_level] / lv[to])

    return mutated


def _wall_at_twice_its_scale(denominator):
    def mutated(system, move, order):
        if move.taboo_level is None:
            return denominator(system, move, order)
        lv = system.levels
        span = abs(lv[move.to_level] - lv[move.taboo_level])
        return loopcalc._even_kernel(Kernel.SINH_OVER_ARG, 2 * span, order)

    return mutated


@pytest.mark.parametrize("name,mutation,identity", [
    ("_numerator", _bessel_prefactor_dropped, IdentityId.N3_UNIFORM),
    ("_denominator", _wall_at_twice_its_scale, IdentityId.N3_UNIFORM),
    ("_denominator", _wall_at_twice_its_scale, IdentityId.FOUR_UNIFORM_1D),
], ids=["bessel-prefactor", "bessel-wall", "reflected-wall"])
def test_a_mutated_move_fails_the_certificate(
    monkeypatch, name, mutation, identity
):
    monkeypatch.setattr(loopcalc, name, mutation(getattr(loopcalc, name)))
    identities._ground_truth_residual.cache_clear()
    try:
        with pytest.raises(EngineConsistencyError, match="residual"):
            ensure_ground_truth(identity, IdentityParams(n=1))
        with pytest.raises(EngineConsistencyError):
            verify(identity, IdentityParams(n=1))
    finally:
        identities._ground_truth_residual.cache_clear()


def _up_move_changed_at_u16(numerator):
    def mutated(system, move, order):
        out = numerator(system, move, order)
        if move.taboo_level is None or move.to_level < move.from_level:
            return out
        if out.order <= 16:
            return out
        bump = [0] * out.order
        bump[16] = 1
        return out + PowerSeries(bump)

    return mutated


def test_a_move_changed_past_the_certificates_order_fails_a_longer_read(
    monkeypatch,
):
    # each up move's numerator is wrong at u^16 alone, which the
    # certificate's order (u^0..u^14) does not reach; a side read at
    # degree 40 (u^0..u^20) must certify its own order, not sum the
    # wrong series to a report
    monkeypatch.setattr(
        loopcalc, "_numerator", _up_move_changed_at_u16(loopcalc._numerator)
    )
    memo = identities._ground_truth_residual
    memo.cache_clear()
    identity, params = IdentityId.FOUR_GENERAL_1D, IdentityParams(
        n=40, levels=(1, 2, 4)
    )
    try:
        ensure_ground_truth(identity, params)
        with pytest.raises(EngineConsistencyError, match="residual"):
            verify(identity, params)
        # the failed certificate keeps the record's pairs as they were
        record = memo((Walk.REFLECTED_1D, (0, 1, 2, 4)))
        assert memo.cache_info().currsize == 1
        assert record.pairs[1][0].order == (
            identities._GROUND_TRUTH_ORDER + 1
        ) // 2
    finally:
        memo.cache_clear()


@pytest.mark.parametrize("identity", [
    IdentityId.N3_UNIFORM, IdentityId.FOUR_UNIFORM_1D, IdentityId.EULER_CHEB,
], ids=lambda i: i.value)
def test_a_cold_hop_form_verify_divides_nothing_in_its_certificate(
    monkeypatch, identity
):
    divisions, renewals = [], []
    for module in (loopcalc, identities):
        monkeypatch.setattr(module, "ps_div", _counted(ps_div, divisions))
    monkeypatch.setattr(
        identities, "start_and_loops",
        _counted(identities.start_and_loops, renewals),
    )
    memo = identities._ground_truth_residual
    memo.cache_clear()
    n = 3
    params = IdentityParams(
        n=n, x=F(1, 3),
        cheb_index=3 if identity is IdentityId.EULER_CHEB else None,
    )
    try:
        assert verify(identity, params).status is Status.VERIFIED
        # the certificate cross-multiplies: no division, no start or loop
        assert divisions == []
        assert renewals == []
        # a block-level read at degree n forms the free move, the start
        # and each loop once, at u-order (n + 2) // 2, and a read at the
        # same or a lower order forms nothing again
        key = identities._SPECS[identity].system(
            normalize_params(identity, params)
        )
        for order in (n + 1, n + 1, 1):
            free = identities._free_at(key, order)
            start, loops = identities._renewal_at(key, order)
        assert len(renewals) == 1
        assert len(divisions) == 2 + len(loops)
        assert {a.order for a, _ in divisions} == {(n + 2) // 2}
        assert (free.order, start.order) == (1, 1)
    finally:
        memo.cache_clear()


def _quotient_residual(system, order):
    """max |chain - free| in u by the quotient construction: the chain's
    continuant divided out, less the free move divided out."""
    delta = loopcalc._chain(renewal_moves(system, order)) - free_move(
        system, order
    )
    return F(max(map(abs, delta.nums)), delta.den)


_MOVE_MUTATIONS = {
    "exact": None,
    "bessel-prefactor": ("_numerator", _bessel_prefactor_dropped),
    "wall": ("_denominator", _wall_at_twice_its_scale),
}


@settings(max_examples=40, deadline=None)
@given(
    _record_systems(),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(sorted(_MOVE_MUTATIONS)),
)
# the N3_UNIFORM and FOUR_UNIFORM_1D systems, on which each mutation
# fails the certificate
@example(LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3)), 30, "bessel-prefactor")
@example(LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3)), 30, "wall")
@example(LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 3)), 30, "wall")
def test_certificate_equals_the_quotient_residual(system, order, mutation):
    with pytest.MonkeyPatch.context() as patch:
        if _MOVE_MUTATIONS[mutation] is not None:
            name, mutate = _MOVE_MUTATIONS[mutation]
            patch.setattr(loopcalc, name, mutate(getattr(loopcalc, name)))
        try:
            want = _quotient_residual(system, order)
        except ConstantTermError:
            with pytest.raises(ConstantTermError, match="zero constant term"):
                decomposition_residual(system, order)
            return
        got = decomposition_residual(system, order)
    assert type(got) is F
    assert got == want
    if mutation == "exact":
        assert got == 0


def test_threads_on_a_cold_memo_get_identical_reports():
    # records are immutable: threads that all miss build equal ones
    params = IdentityParams(n=5, x=F(1, 3), levels=(1, F(5, 2), 4))
    barrier = threading.Barrier(4, timeout=60)

    def run(_):
        barrier.wait()
        return verify(IdentityId.N3_GENERAL, params).to_json()

    # then threads that grow one record at once, each past the order it
    # holds and some past each other's, get the reports of a lone reader
    degrees = [31, 50, 36, 44] * 2
    grow_barrier = threading.Barrier(len(degrees), timeout=60)

    def report(n):
        return verify(IdentityId.N3_GENERAL, params._replace(n=n)).to_json()

    def grow(n):
        grow_barrier.wait()
        return report(n)

    alone = {n: report(n) for n in degrees}
    identities._ground_truth_residual.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            reports = list(pool.map(run, range(4), timeout=60))
        with ThreadPoolExecutor(len(degrees)) as pool:
            grown = list(pool.map(grow, degrees, timeout=60))
    finally:
        sys.setswitchinterval(interval)
        identities._ground_truth_residual.cache_clear()
    assert reports[0]["status"] == Status.VERIFIED.value
    assert all(r == reports[0] for r in reports)
    assert grown == [alone[n] for n in degrees]


def test_ground_truth_systems_mapped():
    sys1 = ground_truth_system(
        IdentityId.THREE_SITES_1D_CORRECTED,
        IdentityParams(n=1, levels=(1, 3)),
    )
    assert sys1.levels == (0, 1, 3)
    sys2 = ground_truth_system(
        IdentityId.EULER_CHEB, IdentityParams(n=1, cheb_index=2)
    )
    assert (sys2.walk, sys2.levels) == (Walk.REFLECTED_1D, (0, 1, 2))
    ensure_ground_truth(
        IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=1, x=F(0))
    )


# --- truncation behaviour -------------------------------------------------------------


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tolerance_rejected(tol):
    # an infinite tol would pass the known-false N4_UNIFORM_STATED instance
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        TruncationPolicy(tol=tol)


def test_stable_run_longer_than_any_window_rejected():
    # no deque can be that long
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        TruncationPolicy(stable_run=sys.maxsize + 1)
    params = IdentityParams(n=3, x=F(1, 2), cheb_index=1)
    report = verify(
        IdentityId.EULER_CHEB, params, TruncationPolicy(stable_run=sys.maxsize)
    )
    assert report.status is Status.NOT_CONVERGED


@pytest.mark.parametrize("field,value", [
    ("stable_run", 2.5), ("stable_run", 4.0), ("stable_run", True),
    ("stable_run", "4"), ("k_max", 10.5), ("k_max", 512.0), ("k_max", True),
    ("k_max", None),
])
def test_non_integer_counts_rejected(field, value):
    # each used to pass the checks and fail later with a bare TypeError
    # (from the window's deque or from range), or to count as an int
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        TruncationPolicy(**{field: value})
    params = IdentityParams(n=3, x=F(1, 2), cheb_index=1)
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        verify(IdentityId.EULER_CHEB, params, TruncationPolicy(**{field: value}))


@pytest.mark.parametrize("tol", ["1e-3", None, 1j, Decimal("1e-3")])
def test_non_real_tolerance_rejected(tol):
    # each used to fail with a bare TypeError: from math.isfinite, or
    # for a Decimal from the threshold's product with a float in verify
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        TruncationPolicy(tol=tol)
    params = IdentityParams(n=3, x=F(1, 2), cheb_index=1)
    with pytest.raises(InvalidParamsError, match="bad truncation policy"):
        verify(IdentityId.EULER_CHEB, params, TruncationPolicy(tol=tol))


GEOMETRIC_CASES = [
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=3, x=F(1))),
    (IdentityId.THREE_SITES_1D_CORRECTED, IdentityParams(n=1, x=F(1), levels=(1, 3))),
    (IdentityId.N3_UNIFORM, IdentityParams(n=3, x=F(1))),
    (IdentityId.EVEN_BERNOULLI, IdentityParams(m=2)),
    (IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=3, x=F(1))),
    (IdentityId.EULER_CHEB, IdentityParams(n=3, x=F(1), cheb_index=3)),
]


@pytest.mark.parametrize("identity,params", GEOMETRIC_CASES,
                         ids=lambda v: v.value if isinstance(v, IdentityId) else "")
def test_term_magnitudes_eventually_strictly_decreasing(identity, params):
    mags = term_magnitudes(identity, params, 33, 80)
    nonzero = [m for m in mags if m > 0.0]
    assert len(nonzero) >= 10
    assert all(a > b for a, b in zip(nonzero, nonzero[1:]))


# --- the three-site block-level ground truth -------------------------------------------


def test_three_sites_block_sum_matches_exact_left_side():
    """The uncollapsed block translation converges to the true moment."""
    from umbralwalk import Family, UmbralExpr, eval_poly, umbral_moment

    for levels in ((F(1), F(3)), (F(2), F(5))):
        a2 = levels[1]
        lhs = eval_poly(
            umbral_moment(
                UmbralExpr.build((Family.EULER, 2 * a2, 1), constant=a2), 3
            ),
            F(1),
        )
        partial = sum(
            _paper_three_site_term(k, 3, F(1), levels) for k in range(90)
        )
        assert abs(float(lhs - partial)) < 1e-9


def test_three_sites_corrected_departs_beyond_degree_one():
    """From degree 2 on, the printed collapse is provably not the block sum."""
    report = verify(
        IdentityId.THREE_SITES_1D_CORRECTED,
        IdentityParams(n=2, x=F(0), levels=(1, 3)),
    )
    assert report.status is Status.RESIDUAL_NONZERO
    assert report.residual_float > 1e-3


# --- the batch payload -------------------------------------------------------------------


def test_verify_all_payload_stable_and_passing():
    policy = TruncationPolicy(tol=1e-6, k_max=256)
    first = verify_all_payload(policy)
    second = verify_all_payload(policy)
    assert first["all_passed"]
    for payload in (first, second):
        payload.pop("generated_at")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    statuses = {r["status"] for r in first["reports"]}
    assert statuses == {"VERIFIED"}
    assert all(a["pass"] for a in first["stated_audits"])
    assert all(d["pass"] for d in first["known_discrepancies"])
    assert first["degenerate_check"]["pass"]
    # errata entries carry live numbers for every printed discrepancy
    errata = first["errata"]
    assert errata["four_sphere_chain_display"]["printed_residual"] > 1
    assert errata["four_sphere_chain_display"]["recomputed_residual"] == "0"
    assert errata["bessel_taboo_prefactor"]["adopted_residual"] == "0"
    assert errata["bessel_taboo_prefactor"]["printed_residual"] > 0.1
    assert errata["four_general_printed_blocks"]["printed_residual"] > 1
    assert (
        errata["three_sites_stated_vs_corrected"]["stated"]["status"]
        == "RESIDUAL_NONZERO"
    )
    assert (
        errata["three_sites_stated_vs_corrected"]["corrected"]["status"]
        == "VERIFIED"
    )


def _hop_sums_cases():
    """The 514 single-index instances of the benchmark's hop_sums workload,
    in a fixed order."""
    xs = (F(0), F(1, 2), F(1), F(-1, 3))
    cases = [
        (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N))
        for N in (1, 2, 3) for n in range(21) for x in xs
    ]
    cases += [
        (identity, IdentityParams(n=n, x=x))
        for identity in (
            IdentityId.FOUR_UNIFORM_1D,
            IdentityId.N3_UNIFORM,
            IdentityId.N4_UNIFORM_CORRECTED,
        )
        for n in range(21) for x in xs
    ]
    return cases + [
        (IdentityId.EVEN_BERNOULLI, IdentityParams(m=m)) for m in range(1, 11)
    ]


# sha256 of the reports of `_hop_sums_cases()` as computed while each
# right-side value was a `Fraction`
_HOP_SUMS_SHA256 = (
    "3081b0f11fff9bb892697bf795d4aed4bea7ef38e6d7906bbbed23d8d003b90b"
)


@pytest.mark.pins
def test_hop_sums_reports_bytes_unchanged():
    cases = _hop_sums_cases()
    assert len(cases) == 514
    reports = [verify(identity, params).to_json() for identity, params in cases]
    rendered = json.dumps(reports)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _HOP_SUMS_SHA256
    # EULER_CHEB at N = 3, n = 20 and x in {0, 1} is known not to verify
    failed = [
        (r["N"], r["n"], r["x"]) for r in reports if r["status"] != "VERIFIED"
    ]
    assert failed == [(3, 20, "0"), (3, 20, "1")]


# sha256 of the reports of EULER_CHEB at N = 4, 5, 6 (weights with two or
# three lattice taps; phase 0 at N = 4, 6), n in {0, 1, 7, 20, 40} and x in
# {0, 1/3, 1/2, 1}, as computed while the off-lattice zeros were streamed
# terms: under the default policy and under a short one
_MULTI_TAP_SHA256 = [
    (TruncationPolicy(),
     "d4db278c0fb5ae741a3113744387965ff46b187e7e562f181998333b751ca1b0"),
    (TruncationPolicy(1e-6, 3, 41),
     "972e91c2b7c875a16683af936a81023aa07d11b27d8bbc99e1211875a8876410"),
]


@pytest.mark.pins
@pytest.mark.parametrize("policy, digest", _MULTI_TAP_SHA256)
def test_multi_tap_chebyshev_reports_bytes_unchanged(policy, digest):
    cases = [
        IdentityParams(n=n, x=x, cheb_index=N)
        for N in (4, 5, 6) for n in (0, 1, 7, 20, 40)
        for x in (F(0), F(1, 3), F(1, 2), F(1))
    ]
    reports = [verify(IdentityId.EULER_CHEB, p, policy).to_json() for p in cases]
    rendered = json.dumps(reports)
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def _block_level_cases():
    """FOUR_GENERAL_1D and N3_GENERAL over five level sets, in a fixed
    order; at (1, 3, 4) two distances between levels coincide."""
    levels = ((1, 2, 4), (1, 3, 5), (F(1, 3), F(7, 5), 3), (2, 3, 7), (1, 3, 4))
    return [
        (identity, IdentityParams(n=n, x=x, levels=lv))
        for identity in (IdentityId.FOUR_GENERAL_1D, IdentityId.N3_GENERAL)
        for lv in levels
        for n in (0, 1, 3, 6, 9)
        for x in (F(0), F(1, 2), F(-1, 3))
    ]


# sha256 of the reports of `_block_level_cases()` and of their first 30
# right-side terms, as computed while the block-level right sides were
# hand-written loop tables
_BLOCK_LEVEL_REPORTS_SHA256 = (
    "ddbe2dfdaa7f9b7066680d847f8b2ccec824418ea9dc6ceec7e492a702abc1d7"
)
_BLOCK_LEVEL_TERMS_SHA256 = (
    "d5c1885089fd52ae271badc44523c8e3facb77c8b24ccec3838fda2051af6974"
)


@pytest.mark.pins
def test_block_level_reports_and_terms_bytes_unchanged():
    cases = _block_level_cases()
    assert len(cases) == 150
    reports = [verify(identity, params).to_json() for identity, params in cases]
    rendered = json.dumps(reports)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _BLOCK_LEVEL_REPORTS_SHA256
    assert all(r["status"] == "VERIFIED" for r in reports)
    terms = [
        [str(t) for t in itertools.islice(rhs_terms(identity, params), 30)]
        for identity, params in cases
    ]
    rendered = json.dumps(terms)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _BLOCK_LEVEL_TERMS_SHA256


def test_verify_builds_fractions_independent_of_the_degree():
    """Right-side values and terms stay on integers: the Fractions one
    EULER_CHEB verify builds (left side, report, fixed weights) do not
    grow with the degree, though its head of d + 1 values does."""
    fraction_new = F.__new__.__code__
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is fraction_new:
            built.append(1)

    def fractions_built(n):
        params = IdentityParams(n=n, x=F(1, 2), cheb_index=3)
        verify(IdentityId.EULER_CHEB, params)  # fills the memos
        built.clear()
        sys.setprofile(profile)
        try:
            report = verify(IdentityId.EULER_CHEB, params)
        finally:
            sys.setprofile(None)
        assert report.status is Status.VERIFIED
        assert report.K_used > n
        return len(built)

    assert fractions_built(4) == fractions_built(12) == fractions_built(20)


def test_normalize_even_bernoulli_pins_degree():
    params = normalize_params(IdentityId.EVEN_BERNOULLI, IdentityParams(m=3))
    assert params.n == 6
