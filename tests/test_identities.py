"""Identity catalog, evaluation, verification loop, errata machinery."""

import functools
import hashlib
import itertools
import json
import math
import re
import sys
from dataclasses import replace
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
from umbralwalk import identities, series
from umbralwalk.identities import (
    EngineConsistencyError,
    ensure_ground_truth,
    errata_report,
    four_general_term_blocks,
    ground_truth_system,
    n3_general_term_blocks,
    normalize_params,
    rhs_terms,
    term_magnitudes,
    three_sites_block_term,
)
from umbralwalk.polynomials import (
    chebyshev_polynomial,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from umbralwalk.loopcalc import LevelSystem, Walk, decomposition_residual
from umbralwalk.series import Kernel, PowerSeries, ps_div
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
        total = F(0)
        for l in range(k + 1):
            q, expr = four_general_term_blocks(k, l, params.levels)
            total += q * eval_poly(umbral_moment(expr, n), x)
        return total
    if identity is IdentityId.N3_GENERAL:
        r_k, expr = n3_general_term_blocks(k, params.levels)
        return r_k * eval_poly(umbral_moment(expr, n), x)
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
    # the one nonzero weight of N = 1 sits at k = 1, whose order is 1
    (IdentityId.EULER_CHEB, IdentityParams(n=10, x=F(1, 2), cheb_index=1),
     lambda K: {1}),
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
    peak = d / math.log(1 / _reference_decay(identity, params))
    partial, mags, converged, K = F(0), [], False, -1
    for k in range(policy.k_max + 1):
        term = _reference_term(identity, params, k)
        partial += term
        K = k
        mags.append(abs(float(term)))
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
        if len(nonzero) == 1:
            # a lone magnitude pairs with the nonzero one before the window
            nonzero = [m for m in mags if m > 0.0][-2:]
        if len(nonzero) == 1:
            continue
        # a ratio >= 1 (terms still growing) keeps the sum going
        ratios = [b / a for a, b in zip(nonzero, nonzero[1:])]
        if max(ratios) >= 1.0:
            continue
        ratio = min(max(ratios), 0.99)
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
    return IdentityReport(
        identity, params, K, lhs, partial, residual, converged, status
    )


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


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(list(_ONE_CASE_PER_IDENTITY.items())),
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
def test_verify_equals_reference_under_any_policy(
    case, stable_run, tol_exponent, k_max
):
    identity, params = case
    policy = TruncationPolicy(10.0**tol_exponent, stable_run, k_max)
    assert verify(identity, params, policy) == _reference_verify(
        identity, params, policy
    )


@pytest.mark.parametrize(
    "n, x, stable_run, K_used",
    [
        (2, F(-1, 3), 2, 86),
        (2, F(-1, 3), 3, 87),
        # a lone magnitude once estimated its tail as 0 and stopped at K 96
        (5, F(0), 2, 98),
        # the terms read 0, 0, 1/16, 0, 0, 0, 1/64, ...: the zero window
        # at k = 3..5 once stopped the sum at K 5, inexact (1/16 against 0)
        (2, F(0), 3, 87),
    ],
)
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


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_stride_two_stream_advances_once_per_lattice_step(monkeypatch, N):
    # per value stream: the length of its difference table, values drawn
    streams = []
    values_after = identities._values_after

    def counting_values_after(diffs):
        stream = [len(diffs), 0]
        streams.append(stream)

        def draw(v):
            stream[1] += 1
            return v

        return map(draw, values_after(diffs))

    monkeypatch.setattr(identities, "_values_after", counting_values_after)
    n, count = 7, 200
    params = IdentityParams(n=n, x=F(1, 3), cheb_index=N)
    list(itertools.islice(rhs_terms(IdentityId.EULER_CHEB, params), count))
    # the unit-step table runs past the head to the (n + 1)-th lattice
    # index L; after L only the lattice indices draw from the step-2 table
    L = N % 2 + 2 * n
    assert streams == [[n + 1, L - n], [n + 1, (count - 1 - L) // 2]]
    # a stride-1 stream draws one value at every index past the head
    streams.clear()
    params = IdentityParams(n=n, x=F(1, 3))
    list(itertools.islice(rhs_terms(IdentityId.FOUR_UNIFORM_1D, params), count))
    assert streams == [[n + 1, count - 1 - n]]


def test_nonzero_weight_off_the_lattice_raises():
    # geometric weights, none of them 0, declared to vanish at odd indices
    spec = replace(
        identities._SPECS[IdentityId.FOUR_UNIFORM_1D],
        weights=lambda p: identities._geometric(F(1, 4), F(3, 4))._replace(stride=2),
    )
    params = IdentityParams(n=2, x=F(1, 3))
    terms = identities._term_numerators(spec, params, spec.weights(params))
    # the unit-step table serves k <= 4, the third lattice index; k = 5 is
    # the first index the lattice table skips
    assert len(list(itertools.islice(terms, 5))) == 5
    with pytest.raises(ValueError, match="off its lattice is 243"):
        next(terms)


# A zero term only grows the pending denominator, which the partial sum
# takes at the next nonzero term or at the stop. Each case stops, or is
# cut off by k_max, on a zero term: off the Chebyshev lattice (its weight
# is 0) or in FOUR_UNIFORM_1D's all-zero window at n = 7, x = 1/2.
_ZERO_STOP_CASES = [
    (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N),
     TruncationPolicy(tol, stable_run, k_max))
    for N, n, x, tol, stable_run, k_max in (
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
    )
] + [
    (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=7, x=F(1, 2)), policy)
    for policy in (
        TruncationPolicy(),
        TruncationPolicy(stable_run=6, k_max=5),
        TruncationPolicy(k_max=2),
    )
]


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


def test_errata_printed_blocks_stream_equals_double_loop(monkeypatch):
    calls = []

    def counting_moment(expr, n):
        calls.append(n)
        return umbral_moment(expr, n)

    monkeypatch.setattr(identities, "umbral_moment", counting_moment)
    entry = errata_report()["four_general_printed_blocks"]
    assert entry["printed_partial_through_k80"] == str(
        _printed_four_general_partial(80)
    )
    # the moments of the printed and implemented block sums at k = 0, 1,
    # the three-site block moments and a few left sides; the double loop
    # made 3,321
    assert len(calls) < 120


def test_errata_three_site_blocks_stream_equals_direct_sum(monkeypatch):
    levels = (F(1), F(3))
    direct = sum(
        (three_sites_block_term(k, 2, F(0), levels) for k in range(96)), F(0)
    )
    lhs = eval_poly(
        umbral_moment(UmbralExpr.build((Family.EULER, 6, 1), constant=3), 2),
        F(0),
    )
    calls = []

    def counting_moment(expr, n):
        calls.append(n)
        return umbral_moment(expr, n)

    monkeypatch.setattr(identities, "umbral_moment", counting_moment)
    entry = errata_report()["three_sites_corrected_degree_2"]
    assert entry["block_level_partial"] == str(direct)
    assert entry["block_level_residual"] == abs(float(lhs - direct))
    # the direct sum makes one block moment per term, 96 of them
    assert len(calls) < 20


# --- block-level running products against one-shot moments ------------------------


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
    def one_shot(expr):
        return eval_poly(umbral_moment(expr, n), x)

    params = IdentityParams(n=n, x=x, levels=levels)
    n3 = identities._SPECS[IdentityId.N3_GENERAL].values(params)
    for k in range(k_max + 1):
        assert F(*n3(k)) == one_shot(_paper_n3_blocks(k, levels))

    rows = identities._table_rows(identities._four_general_table(*levels), n)
    for k, row in zip(range(k_max + 1), rows):
        assert len(row) == k + 1
        for l, moment in enumerate(row):
            expr = _paper_four_general_blocks(k, l, levels)
            assert eval_poly(moment, x) == one_shot(expr)

    pair = levels[:2]
    three_sites = identities._block_values(
        IdentityParams(n=n, x=x, levels=pair), identities._three_sites_table
    )
    for k in range(k_max + 1):
        assert F(*three_sites(k)) == one_shot(_paper_three_site_blocks(k, pair))


# --- work guards ------------------------------------------------------------------


def test_four_general_moments_bounded_by_the_degree_lattice(monkeypatch):
    calls = []

    def counting_moment(expr, n):
        calls.append(n)
        return umbral_moment(expr, n)

    monkeypatch.setattr(identities, "umbral_moment", counting_moment)
    n = 4
    report = verify(
        IdentityId.FOUR_GENERAL_1D,
        IdentityParams(n=n, x=F(1), levels=(1, 2, 4)),
    )
    assert report.status is Status.VERIFIED
    assert report.K_used > n
    # terms 0..n hold (n+1)(n+2)/2 block moments; one more is the left side
    assert len(calls) <= (n + 1) * (n + 2) // 2 + 1


def test_n3_general_takes_kernel_powers_once_per_instance(monkeypatch):
    from umbralwalk import polynomials, umbral

    def counted(fn, calls):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    def requests(n):
        moments, powers = [], []
        monkeypatch.setattr(
            identities, "umbral_moment", counted(umbral_moment, moments)
        )
        for module in (umbral, polynomials):
            monkeypatch.setattr(
                module, "kernel_power_numerators",
                counted(series.kernel_power_numerators, powers),
            )
        params = IdentityParams(n=n, x=F(1), levels=(1, 2, 4))
        report = verify(IdentityId.N3_GENERAL, params)
        monkeypatch.undo()
        assert report.status is Status.VERIFIED
        assert report.K_used > n
        # the left side only: the right side streams its moments
        assert [args[1] for args in moments] == [n]
        return len(powers)

    # the start blocks, the loop blocks and the left side's block, at
    # power 1 whatever the degree
    assert requests(4) == requests(12) == 8


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
    report = IdentityReport(
        identity, params, 0, F(0), F(0), 0.0, True, Status.VERIFIED
    )
    assert report.variant == variant
    assert report.to_json()["variant"] == variant
    got = ground_truth_system(identity, params)
    assert (got.walk, got.levels) == system


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_weights_record_states_stride_and_decay(identity):
    params = normalize_params(identity, _SPEC_FACTS[identity][0])
    weights = identities._SPECS[identity].weights(params)
    assert weights.decay == _reference_decay(identity, params)
    assert weights.stride == (2 if identity is IdentityId.EULER_CHEB else 1)


def test_ground_truth_memo_computes_each_system_once(monkeypatch):
    systems = []

    def counting_residual(system, order):
        systems.append(system)
        return decomposition_residual(system, order)

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
        identities, "decomposition_residual", lambda system, order: F(1, 7)
    )
    identities._ground_truth_residual.cache_clear()
    try:
        with pytest.raises(EngineConsistencyError, match="1/7"):
            ensure_ground_truth(IdentityId.N3_UNIFORM, IdentityParams(n=1))
        with pytest.raises(EngineConsistencyError):
            verify(IdentityId.N3_UNIFORM, IdentityParams(n=1))
    finally:
        identities._ground_truth_residual.cache_clear()


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
            three_sites_block_term(k, 3, F(1), levels) for k in range(90)
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
