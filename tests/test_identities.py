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
    ground_truth_system,
    normalize_params,
    rhs_terms,
    term_magnitudes,
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
        identities._SPECS, IdentityId.EULER_CHEB, replace(spec, right=recording_right)
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
    # phase + 2j, so no nonzero weight can sit off the lattice
    params = IdentityParams(n=2, x=F(1, 3))
    spec = identities._SPECS[IdentityId.FOUR_UNIFORM_1D]
    _, value, d = spec.right(params)
    for phase in (0, 1):

        def right(p):
            weights = identities._geometric(F(1, 4), F(3, 4))
            return weights._replace(stride=2, phase=phase), value, d

        lattice_spec = replace(spec, right=right)
        terms = itertools.islice(identities._terms(lattice_spec, params), 40)
        for k, (t, den) in enumerate(terms):
            j, off = divmod(k - phase, 2)
            if off or j < 0:
                assert t == 0
            else:
                assert F(t, den) == F(3**j, 4 * 4**k) * F(*value(k))


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
    params = IdentityParams(
        n=draw(st.integers(0, 24)),
        x=draw(st.fractions(min_value=-3, max_value=3, max_denominator=7)),
        levels=tuple(itertools.accumulate(steps)) if level_count else None,
        cheb_index=draw(st.integers(1, 6)),
        m=draw(st.integers(1, 12)),
    )
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


# A zero term only grows the pending denominator, which the partial sum
# takes at the next nonzero term or at the stop. Each case stops, or is
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
        for k, u in zip(range(k_max + 1), weights.numerators):
            yield k, F(u, weights.C * weights.b**k), F(*value(k))

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
    from umbralwalk import loopcalc, polynomials, umbral

    def requests(n):
        params = IdentityParams(n=n, x=F(1), levels=(1, 2, 4))
        # the certificate, once per level system, is not this count
        ensure_ground_truth(IdentityId.N3_GENERAL, params)
        moves, powers = [], []
        monkeypatch.setattr(loopcalc, "_phi", _counted(loopcalc._phi, moves))
        for module in (series, umbral, polynomials):
            monkeypatch.setattr(
                module, "kernel_power_numerators",
                _counted(series.kernel_power_numerators, powers),
            )
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
    from umbralwalk import loopcalc

    identities._ground_truth_residual.cache_clear()
    moves = []
    monkeypatch.setattr(loopcalc, "_phi", _counted(loopcalc._phi, moves))
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
    derived = [((s.walk, s.levels), move) for s, move, _ in moves]
    assert len(set(derived)) == len(derived)
    # three systems of three levels above 0: H_0, two ups, two downs and
    # the free move each
    assert len(derived) == 3 * 6
    assert {order for _, _, order in moves} == {
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
        # the first read meets a cold memo: up to the certificate's order
        # it certifies the system, above it it derives and stores nothing
        certified = False
        for order in (first, *range(1, 65)):
            assert identities._free_at(key, order) == direct_mgf(system, order)
            assert identities._renewal_at(key, order) == renewal_loops(
                system, order
            )
            certified |= order <= identities._GROUND_TRUTH_ORDER
            assert memo.cache_info().currsize == certified
        record = memo(key)
        inner = range(1, top)
        read_moves = [
            (PhiMove(0, 1), record.moves.first),
            *zip((PhiMove(i, i + 1, i - 1) for i in inner), record.moves.ups),
            *zip((PhiMove(i, i - 1, i + 1) for i in inner), record.moves.downs),
        ]
        assert len(read_moves) == 2 * top - 1
        for order in range(1, identities._GROUND_TRUTH_ORDER + 1):
            for move, series in read_moves:
                assert identities._read(series, order) == phi(system, move, order)
    finally:
        memo.cache_clear()


def test_threads_on_a_cold_memo_get_identical_reports():
    # records are immutable: threads that all miss build equal ones
    params = IdentityParams(n=5, x=F(1, 3), levels=(1, F(5, 2), 4))
    barrier = threading.Barrier(4, timeout=60)

    def run(_):
        barrier.wait()
        return verify(IdentityId.N3_GENERAL, params).to_json()

    identities._ground_truth_residual.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            reports = list(pool.map(run, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
        identities._ground_truth_residual.cache_clear()
    assert reports[0]["status"] == Status.VERIFIED.value
    assert all(r == reports[0] for r in reports)


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
