"""Catalog and verifier for the connection-coefficient identities.

Each identity equates an exact left-hand value with an infinite sum of
exact terms; `verify` accumulates exact partial sums, stops once the
tail is demonstrably below tolerance, and reports the residual. Nothing
is ever rounded before the final float conversion of the residual.

One table, `_SPECS`, holds what each identity is: catalog text,
parameter requirements, left side, right side as weight times
polynomial, and the level system whose series underlies it.

Where the published statement of an identity disagrees with what the
underlying series decomposition forces, both forms are first-class
catalog entries ("stated" vs "corrected") and `errata_report` computes
the discrepancies live instead of hiding them:

  * THREE_SITES_1D: the stated form uses E_n on the left where the
    smoothing step integrates to E_{n+1}. Beyond that typo, the
    geometric-Bernoulli right side relies on splitting a Bernoulli
    block by coefficient, which the evaluation rules do not license;
    the corrected form therefore still only holds for n <= 1, and the
    sound identity keeps the full block structure, read from the walk's
    moves like the block-level identities.
  * FOUR_GENERAL_1D: the boxed statement's block list does not match
    the sech/sinh product it is read from; the engine evaluates the
    translation forced by that product, which the series ground truth
    confirms.
  * N4_UNIFORM: the stated form fails already at n = 0, where its left
    side is 1 and its partial sums are 2 - 2^-K (and at n = 1, 1/6 vs
    1/3); the corrected form follows the recomputed chain.

For every identity tied to a level system, the series decomposition
residual must be exactly zero before moment-level verification is
attempted; `verify` enforces this.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import operator
import sys
from collections import deque
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import cos, gcd, isfinite, lcm, log, pi
from typing import Callable, Iterable, Iterator, NamedTuple

from .loopcalc import (
    LevelSystem, Moves, Walk, _in_w, decomposition_residual, direct_mgf,
    free_move, linear_in_loops, renewal_loops, renewal_moves, start_and_loops,
)
from .polynomials import (
    ExactScalar,
    Poly,
    appell_polynomial,
    bernoulli_number,
    chebyshev_lattice_numerators,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from .series import (
    Kernel, PowerSeries, as_scalar, geometric_resum, kernel, ps_div, ps_mul
)
from .umbral import Family, UmbralExpr, expr_egf

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class _Weights(NamedTuple):
    """The weights of a right side on their lattice k = phase + stride j,
    j = 0, 1, 2, ...: weight k is numerators[j] / (C b^k).

    stride is 1 or 2 and 0 <= phase < stride. Every weight off the lattice
    is 0 and has no numerator in the stream, so a nonzero one cannot be
    stated. The weights shrink like decay^k: decay is one over the
    smallest modulus of a pole of their generating function.
    """

    C: int
    b: int
    numerators: Iterator[int]
    decay: float
    stride: int = 1
    phase: int = 0


class IdentityId(str, Enum):
    EULER_CHEB = "EULER_CHEB"
    THREE_SITES_1D_STATED = "THREE_SITES_1D_STATED"
    THREE_SITES_1D_CORRECTED = "THREE_SITES_1D_CORRECTED"
    FOUR_UNIFORM_1D = "FOUR_UNIFORM_1D"
    FOUR_GENERAL_1D = "FOUR_GENERAL_1D"
    N3_GENERAL = "N3_GENERAL"
    N3_UNIFORM = "N3_UNIFORM"
    EVEN_BERNOULLI = "EVEN_BERNOULLI"
    N4_UNIFORM_STATED = "N4_UNIFORM_STATED"
    N4_UNIFORM_CORRECTED = "N4_UNIFORM_CORRECTED"


class Status(str, Enum):
    VERIFIED = "VERIFIED"
    RESIDUAL_NONZERO = "RESIDUAL_NONZERO"
    DEGENERATE_TRIVIAL = "DEGENERATE_TRIVIAL"
    NOT_CONVERGED = "NOT_CONVERGED"


class InvalidParamsError(ValueError):
    """Parameters outside the identity's domain."""


@dataclass(frozen=True)
class IdentityParams:
    """Evaluation point of one identity instance.

    `n` is the polynomial degree, `x` the argument, `levels` the site
    levels where applicable, `cheb_index` the Chebyshev index N of
    EULER_CHEB, and `m` the half-degree of EVEN_BERNOULLI (which fixes
    n = 2m).
    """

    n: int = 0
    x: Fraction = _ZERO
    levels: tuple[Fraction, ...] | None = None
    cheb_index: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_scalar(self.x))
        if self.levels is not None:
            object.__setattr__(
                self, "levels", tuple(as_scalar(v) for v in self.levels)
            )


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for the infinite sums.

    Terms accumulate until the last `stable_run` term magnitudes are
    each below tol * max(1, |lhs|) and a geometric estimate of the
    remaining tail is below the same threshold, or `k_max` is reached.
    The estimate reads the nonzero magnitudes of that window: all of
    them zero stops the sum only on an exact partial sum (zero terms
    tell nothing of the tail); a consecutive ratio of 1 or more (terms
    still growing) keeps it going; otherwise the largest ratio r, capped
    at 0.99, estimates the tail as m_last r / (1 - r). A window holding
    a single nonzero magnitude (as the Chebyshev sums give at a short
    `stable_run`, their weights vanishing at every other index) takes r
    from it and the last nonzero magnitude before it, and keeps the sum
    going if there is none. A stop on such an estimate also waits for
    the peak gate: term k is a weight of decay rate rho times a value of
    degree d in k, whose envelope k^d rho^k peaks at k = d / ln(1/rho),
    and before that k a window of small terms may be a dip between larger
    ones, not the tail, so the sum goes on. rho is the weights' `decay`:
    |r| for geometric weights c r^k, cos(pi / 2N) for the Chebyshev ones.
    d here is the bound n (the spec's `degree`), even where the value is
    known to be of degree n // 2 in k and its terms are built from that
    degree, so every stop stays where the bound n puts it.
    This is a heuristic, not a bound; the zero-window stop on an exact
    partial sum is not gated.
    """

    tol: float = 1e-12
    stable_run: int = 4
    k_max: int = 512

    def __post_init__(self) -> None:
        # an infinite tol accepts every term, a nan tol none; a window
        # holds at most sys.maxsize magnitudes
        if (
            not isfinite(self.tol)
            or self.tol <= 0
            or not 2 <= self.stable_run <= sys.maxsize
            or self.k_max < 1
        ):
            raise InvalidParamsError(f"bad truncation policy: {self}")


def _exact_str(value: ExactScalar) -> str:
    """`str(value)` at any size. A partial sum's denominator can pass the
    int-to-str digit limit (4300 by default), where `str` raises; a
    Decimal renders an integer exactly, with the same digits, without
    that limit."""
    num = str(Decimal(value.numerator))
    den = value.denominator
    return num if den == 1 else f"{num}/{Decimal(den)}"


@dataclass(frozen=True)
class IdentityReport:
    identity: IdentityId
    params: IdentityParams
    K_used: int
    lhs_exact: ExactScalar
    rhs_partial_exact: ExactScalar
    residual_float: float
    converged: bool
    status: Status

    @property
    def variant(self) -> str:
        return _SPECS[self.identity].variant

    def to_json(self) -> dict:
        p = self.params
        out = {
            "identity": self.identity.value,
            "variant": self.variant,
            "n": p.n,
            "x": str(p.x),
            "levels": [str(v) for v in (p.levels or ())],
            "K_used": self.K_used,
            "lhs": _exact_str(self.lhs_exact),
            "rhs_partial": _exact_str(self.rhs_partial_exact),
            "residual": self.residual_float,
            "status": self.status.value,
        }
        if p.cheb_index is not None:
            out["N"] = p.cheb_index
        if p.m is not None:
            out["m"] = p.m
        return out


@dataclass(frozen=True)
class CatalogEntry:
    identity: IdentityId
    variant: str
    description: str
    reference: str


def catalog() -> list[CatalogEntry]:
    """Static, exhaustive listing of the ten identities."""
    return [
        CatalogEntry(i, s.variant, s.description, s.reference)
        for i, s in _SPECS.items()
    ]


# -- parameter validation --------------------------------------------------


def validate_params(identity: IdentityId, params: IdentityParams) -> None:
    # each message is built only when its check fails
    if not params.n >= 0:
        raise InvalidParamsError(f"degree must be nonnegative, got {params.n}")
    spec = _SPECS.get(identity)
    if spec is None:
        raise InvalidParamsError(f"unknown identity {identity!r}")
    if spec.level_count:
        lv, count = params.levels, spec.level_count
        if lv is None or len(lv) != count:
            raise InvalidParamsError(
                f"identity needs exactly {count} levels, got {lv}"
            )
        if not all(v > 0 for v in lv):
            raise InvalidParamsError(f"levels must be positive: {lv}")
        if not all(a < b for a, b in zip(lv, lv[1:])):
            raise InvalidParamsError(f"levels must strictly increase: {lv}")
    if spec.positive_field:
        field, phrase = spec.positive_field
        value = getattr(params, field)
        if value is None or not value >= 1:
            raise InvalidParamsError(
                f"{IdentityId(identity).value} needs {phrase} >= 1, got {value}"
            )


def normalize_params(
    identity: IdentityId, params: IdentityParams
) -> IdentityParams:
    """Fill derived fields (EVEN_BERNOULLI pins n = 2m)."""
    validate_params(identity, params)
    if identity is IdentityId.EVEN_BERNOULLI and params.n != 2 * params.m:
        params = replace(params, n=2 * params.m)
    return params


# -- left-hand sides -------------------------------------------------------


def _euler_at(n: int, x: Fraction) -> Fraction:
    return eval_poly(hop_euler(n, 1), x)


def _bernoulli_at(n: int, x: Fraction) -> Fraction:
    return eval_poly(hop_bernoulli(n, 1), x)


def _three_sites_lhs(params: IdentityParams, shift: int = 0) -> Fraction:
    """The Euler difference of degree n + shift at the three-site points."""
    (a1, a2), n = params.levels, params.n + shift
    u = params.x / (2 * a2)
    hi = _euler_at(n, u + Fraction(3, 2) - 2 * a1 / a2)
    return hi - _euler_at(n, u + _HALF)


def _bernoulli_integral(
    params: IdentityParams, c: Fraction, lo: Fraction, hi: Fraction
) -> Fraction:
    """c times the integral of B_n over [lo, hi]."""
    n = params.n
    return c * (_bernoulli_at(n + 1, hi) - _bernoulli_at(n + 1, lo)) / (n + 1)


def eval_lhs(identity: IdentityId, params: IdentityParams) -> ExactScalar:
    params = normalize_params(identity, params)
    return _SPECS[identity].lhs(params)


# -- right-hand side terms -------------------------------------------------
#
# Term k of every right side is weight(k) * value(k), the weight an integer
# u_k over C b^k (C, b fixed integers) and value(k) a polynomial in k of
# degree at most n: E_n^(p)(y) and B_n^(p)(y) have total degree n in
# (p, y) (Norlund), and the identities take p and y affine in k. Each
# value is n! [w^n] A(w) B(w)^k with B(0) = 1, B the loop factor, and
# each right side also states the degree it can check, which is n // 2
# where B is even in w: then log B = O(w^2), so in B^k = exp(k log B)
# k^j comes with w^(2j) at least and j <= n // 2. A hop row is n! [w^n]
# of K(w)^(o0 + o1 k) e^((y0 + dy k) w); where 2 dy = o1, K^o1 e^(dy w)
# is sech(w/2)^o1 (Euler) or ((w/2) / sinh(w/2))^o1 (Bernoulli), both
# even (Norlund's E_n^(p)(p - y) = (-1)^n E_n^(p)(y)). A block-level loop
# is even when no odd coefficient is in it; the errata's printed
# four-general loop mixes odd ones in and keeps n. Only the term stream
# reads this degree: the peak gate of `_sum_to_tolerance` keeps the
# bound n, `_Spec.degree`.
# value(k) comes as an unreduced integer pair (num, den), den > 0, and no
# `Fraction` is built per value: a hop-family value is one row of `_hop`
# (the family, the order o0 + o1 k, the point (a + c k) / q and an integer
# divisor) evaluated by `Poly.at` on integers.
# `_term_numerators` runs over the weights' lattice k = phase + stride j
# only: it continues the lattice values j = 0..d by integer differences
# over their common denominator D and gives term k as an integer t_k over
# den_k = C D b^k. It yields (t_k, m_k) with den_k the product of the m
# so far, so a partial sum S / den takes term k as (S m_k + t_k) /
# (den m_k); past the head m_k = b^stride. Where the weights vanish at
# every other index (stride 2), each off-lattice index is a zero term that
# the stream does not carry: `_index_terms` puts it back for the per-index
# readers, and `_sum_to_tolerance` counts it in O(1).
#
# A block-level right side is read from the walk's moves. While the
# renewal chain is linear in its loops it is S / (1 - L), with S its start
# and L the sum of its loops (`renewal_loops`), so term k is S L^k taken
# at the moment: weight S(0) L(0)^k times n![w^n] e^(xw) S1 L1^k, where
# S1 = S / S(0) and L1 = L / L(0) have constant term 1. Each move is a
# product of blocks: sech(aw) is e^(aw) times the Euler kernel at scale
# 2a, sinh(aw)/(aw) is e^(-aw) times the uniform kernel at 2a and its
# reciprocal e^(aw) times the Bernoulli kernel at 2a, so these are the
# moments of the paper's block lists. S1 L1^k is one running product, at
# one series product per loop count. Up to the certificate's order, S, the
# loops and the left side's free move are prefixes of the system's
# certified record (`_ground_truth_residual`), so an instance on a
# certified system derives no move.

_Value = Callable[[int], tuple[int, int]]
# a right side: its weights, value(k) and the degree of value in k
_Right = tuple[_Weights, _Value, int]
# a level system as (walk, levels): the ground-truth memo's key
_SystemKey = tuple[Walk, tuple[ExactScalar, ...]]


def _moment_at(series: PowerSeries, params: IdentityParams) -> tuple[int, int]:
    """n! [w^n] e^(xw) series at the instance's n and x, as an unreduced
    integer pair; the series needs n + 1 coefficients."""
    xn, xd = params.x.as_integer_ratio()
    return appell_polynomial(series.nums, series.den, params.n).at(xn, xd)


def _read(series: PowerSeries, order: int) -> PowerSeries:
    """A record's series in u, read in w with `order` coefficients."""
    return _in_w(series.prefix((order + 1) // 2), order)


def _free_at(key: _SystemKey, order: int) -> PowerSeries:
    """The system's free move in w: up to the certificate's order a
    prefix of its certified record, above it a fresh derivation that is
    kept nowhere."""
    if order > _GROUND_TRUTH_ORDER:
        return direct_mgf(LevelSystem(*key), order)
    return _read(_ground_truth_residual(key).free, order)


def _renewal_at(
    key: _SystemKey, order: int
) -> tuple[PowerSeries, tuple[PowerSeries, ...]]:
    """The system's renewal start and loops in w, read as in `_free_at`."""
    if order > _GROUND_TRUTH_ORDER:
        return renewal_loops(LevelSystem(*key), order)
    start, loops = _ground_truth_residual(key).renewal
    return _read(start, order), tuple(_read(loop, order) for loop in loops)


def _free_moment(walk: Walk) -> Callable[[IdentityParams], Fraction]:
    """The left side of a block-level identity: the moment of the free
    move from 0 to the top level."""

    def lhs(params: IdentityParams) -> Fraction:
        free = _free_at((walk, (0, *params.levels)), params.n + 1)
        return Fraction(*_moment_at(free, params))

    return lhs


def _loop_sum(
    start: PowerSeries, loop: PowerSeries, params: IdentityParams
) -> _Right:
    """The right side of S / (1 - L), S = start and L = loop: term k is
    S L^k at the moment.

    Its weight is S(0) L(0)^k and its value n![w^n] e^(xw) S1 L1^k, with
    S1 = S / S(0) and L1 = L / L(0). The products S1 L1^k are drawn once,
    in order, at one `ps_mul` each, and the values reached are kept,
    since `_term_numerators` may ask later for a value it put off. The
    value is of degree n // 2 in k when the loop has no odd coefficient,
    and n otherwise.
    """
    s0, l0 = start.constant_term, loop.constant_term
    products = itertools.accumulate(
        itertools.repeat(loop.scale(1 / l0)), ps_mul, initial=start.scale(1 / s0)
    )
    values: list[tuple[int, int]] = []

    def value(k: int) -> tuple[int, int]:
        for _, product in zip(range(len(values), k + 1), products):
            values.append(_moment_at(product, params))
        return values[k]

    degree = params.n if any(loop.nums[1::2]) else params.n // 2
    return _geometric(s0, l0), value, degree


def _renewal(walk: Walk) -> Callable[[IdentityParams], _Right]:
    """The block-level right side of the walk's chain on (0, *levels)."""

    def right(params: IdentityParams) -> _Right:
        start, loops = _renewal_at((walk, (0, *params.levels)), params.n + 1)
        return _loop_sum(start, functools.reduce(operator.add, loops), params)

    return right


def _printed_fg_table(
    a1: Fraction, a2: Fraction, a3: Fraction
) -> tuple[UmbralExpr, UmbralExpr, UmbralExpr]:
    """The boxed statement's start and two loop expressions: its term
    (k, l) is the start plus l copies of the first loop and k - l of the
    second."""
    return (
        UmbralExpr.build(
            (Family.BERNOULLI, 2 * (a2 - a1), 1),
            (Family.BERNOULLI, 2 * (a3 - a2), 1),
            constant=a3 + a1,
        ),
        UmbralExpr.build(
            (Family.EULER, a1, 1), (Family.UNIFORM, 2 * (a2 - a1), 1),
            constant=2 * a1,
        ),
        UmbralExpr.build(
            (Family.UNIFORM, 2 * a1, 1), (Family.BERNOULLI, 2 * (a2 - a1), 1),
            constant=2 * a2 - a1,
        ),
    )


def _printed_fg_right(params: IdentityParams) -> _Right:
    """The boxed statement's right side, on `FOUR_GENERAL_1D`'s weights.

    Term (k, l) weighs c0 C(k, l) alpha^l beta^(k-l), with c0 the constant
    term of the chain's start and alpha, beta those of its two loops. As
    n![w^n] is linear, the sum over l of term (k, l) is term k of one loop,
    the mixture alpha G1 + beta G2 of the two loop series.
    """
    order = params.n + 1
    start, first, second = (
        expr_egf(expr, order) for expr in _printed_fg_table(*params.levels)
    )
    chain_start, (loop1, loop2) = _renewal_at(
        (Walk.REFLECTED_1D, (0, *params.levels)), 1
    )
    return _loop_sum(
        start.scale(chain_start.constant_term),
        first.scale(loop1.constant_term) + second.scale(loop2.constant_term),
        params,
    )


def _geometric(c: Fraction, r: Fraction) -> _Weights:
    """The weights c r^k as c.num r.num^k over c.den r.den^k."""
    numerators = itertools.accumulate(
        itertools.repeat(r.numerator), operator.mul, initial=c.numerator
    )
    return _Weights(c.denominator, r.denominator, numerators, abs(float(r)))


def _chebyshev_weights(params: IdentityParams) -> _Weights:
    """The reciprocal-Chebyshev weights p_l of 1/T_N(1/t), as integers.

    They vanish whenever l - N is odd, so they are read on their lattice
    l = N % 2 + 2j only, and decay like cos(pi / 2N)^l, since the largest
    root of T_N is cos(pi / 2N).
    """
    N = params.cheb_index
    q0, numerators = chebyshev_lattice_numerators(N)
    return _Weights(1, q0, numerators, cos(pi / (2 * N)), 2, N % 2)


def _three_sites_weights(params: IdentityParams) -> _Weights:
    (a1, a2), n = params.levels, params.n
    prefactor = (n + 1) * (1 - 2 * a1 / a2) * (2 * a1 / a2) ** n
    return _geometric(prefactor * (a1 / a2), 1 - a1 / a2)


# family, degree n, order (o0, o1), point (y0, dy), integer divisor s
_HopRow = tuple[Callable[[int, int], Poly], int, tuple[int, int],
                tuple[Fraction | int, Fraction | int], int]


def _hop(
    weights: Callable[[IdentityParams], _Weights],
    row: Callable[[IdentityParams], _HopRow],
) -> Callable[[IdentityParams], _Right]:
    """The right side of a hop-family identity: its weights, and its
    values read from its row.

    value(k) is family(n, o0 + o1 k) at the point y0 + k dy, divided by
    s. Over the one integer q = lcm of the denominators of y0 and dy the
    point is (a + c k) / q, so each value is one integer Horner loop. It
    is of degree n // 2 in k when 2 dy = o1, and n otherwise.
    """

    def right(params: IdentityParams) -> _Right:
        family, n, (o0, o1), (y0, dy), s = row(params)
        (a, qa), (c, qc) = y0.as_integer_ratio(), dy.as_integer_ratio()
        q = lcm(qa, qc)
        a, c = a * (q // qa), c * (q // qc)

        def value(k: int) -> tuple[int, int]:
            num, den = family(n, o0 + o1 * k).at(a + c * k, q)
            return num, den * s

        return weights(params), value, n // 2 if 2 * dy == o1 else n

    return right


def _even_bernoulli_weights(params: IdentityParams) -> _Weights:
    m = params.m
    pref = Fraction(m) / ((1 - Fraction(2) ** (1 - 2 * m)) * (3 ** (2 * m) - 1))
    return _geometric(pref, Fraction(1, 4))


# -- the spec table ----------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """One identity: catalog text, left side, right side, ground truth.

    right(params) gives the right side as (weights, value, d): term k is
    u_k / (C b^k) * value(k) with C, b and u the first fields of the
    weights (see `_Weights`) and value(k) of degree <= d in k, given as an
    integer pair (num, den). d is n // 2 where the right side's loop
    factor is even in w (see the comment above `_Value`), and the term
    stream is built from it. degree(params) is the bound, the family's
    degree n (2m - 1 for EVEN_BERNOULLI), which d never exceeds; the peak
    gate of `_sum_to_tolerance` reads it.
    An instance needs `level_count` levels and, by `positive_field`, an
    integer field >= 1 (and the phrase naming it in the error).
    """

    variant: str
    description: str
    reference: str
    lhs: Callable[[IdentityParams], ExactScalar]
    right: Callable[[IdentityParams], _Right]
    system: Callable[[IdentityParams], _SystemKey]
    degree: Callable[[IdentityParams], int] = lambda p: p.n
    level_count: int = 0
    positive_field: tuple[str, str] | None = None
    degenerate: Callable[[IdentityParams], bool] = lambda p: False


_THREE_SITES = _Spec(
    "stated",
    "Euler difference at degree n against geometric-weighted "
    "higher-order Bernoulli polynomials (three sites, as printed)",
    "three sites on the half-line / reflected walk",
    _three_sites_lhs,
    _hop(_three_sites_weights, lambda p: (
        hop_bernoulli, p.n, (1, 1),
        ((p.x + p.levels[1]) / (4 * p.levels[0]), _HALF), 1,
    )),
    system=lambda p: (Walk.REFLECTED_1D, (0, *p.levels)),
    level_count=2,
    # uniformly spaced sites zero the weights' factor 1 - 2 a1/a2
    degenerate=lambda p: p.levels[1] == 2 * p.levels[0],
)

_SPECS: dict[IdentityId, _Spec] = {
    IdentityId.EULER_CHEB: _Spec(
        "stated",
        "E_n(x) as a positive combination of higher-order Euler "
        "polynomials with reciprocal-Chebyshev weights",
        "Euler polynomials via N-site transition weights",
        lambda p: _euler_at(p.n, p.x),
        _hop(_chebyshev_weights, lambda p: (
            hop_euler, p.n, (0, 1),
            (p.cheb_index * p.x - Fraction(p.cheb_index, 2), _HALF),
            p.cheb_index**p.n,
        )),
        system=lambda p: (Walk.REFLECTED_1D, tuple(range(p.cheb_index + 1))),
        positive_field=("cheb_index", "a Chebyshev index"),
    ),
    IdentityId.THREE_SITES_1D_STATED: _THREE_SITES,
    IdentityId.THREE_SITES_1D_CORRECTED: replace(
        _THREE_SITES,
        variant="corrected",
        description="same right side with the smoothing step integrated to "
        "degree n+1 on the left; sound only for n <= 1 (see errata)",
        lhs=lambda p: _three_sites_lhs(p, 1),
    ),
    IdentityId.FOUR_UNIFORM_1D: _Spec(
        "stated",
        "E_n(x) as a combination of E_n^(2k+3)(3x+k) over loop counts",
        "four uniform sites on the half-line / reflected walk",
        lambda p: _euler_at(p.n, p.x),
        _hop(
            lambda p: _geometric(Fraction(1, 4 * 3**p.n), Fraction(3, 4)),
            lambda p: (hop_euler, p.n, (3, 2), (3 * p.x, 1), 1),
        ),
        system=lambda p: (Walk.REFLECTED_1D, (0, 1, 2, 3)),
    ),
    IdentityId.FOUR_GENERAL_1D: _Spec(
        "corrected",
        "degree-n moment identity for four arbitrary sites, evaluated "
        "at block level from the two-loop product",
        "four arbitrary sites on the half-line / reflected walk",
        _free_moment(Walk.REFLECTED_1D),
        _renewal(Walk.REFLECTED_1D),
        system=lambda p: (Walk.REFLECTED_1D, (0, *p.levels)),
        level_count=3,
    ),
    IdentityId.N3_GENERAL: _Spec(
        "corrected",
        "Bernoulli moment expansion for three concentric spheres of "
        "arbitrary radii, evaluated at block level",
        "Thm 4.1 / three concentric spheres",
        _free_moment(Walk.BESSEL_3D),
        _renewal(Walk.BESSEL_3D),
        system=lambda p: (Walk.BESSEL_3D, (0, *p.levels)),
        level_count=3,
    ),
    IdentityId.N3_UNIFORM: _Spec(
        "stated",
        "Bernoulli difference at degree n+1 against quarter-geometric "
        "higher-order Euler polynomials (radii 1,2,3)",
        "three concentric spheres of radii 1,2,3",
        lambda p: _bernoulli_integral(
            p, Fraction(3) ** (p.n + 1), (p.x + 3) / 6, (p.x + 5) / 6
        ),
        _hop(
            lambda p: _geometric(Fraction(3, 4), Fraction(1, 4)),
            lambda p: (hop_euler, p.n, (2, 2), ((p.x + 3) / 2, 1), 1),
        ),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3)),
    ),
    IdentityId.EVEN_BERNOULLI: _Spec(
        "stated",
        "even Bernoulli number as a convex combination of higher-order "
        "Euler polynomial values",
        "specialization of the three-sphere identity at x=0, odd degree",
        lambda p: bernoulli_number(2 * p.m),
        _hop(
            _even_bernoulli_weights,
            lambda p: (hop_euler, 2 * p.m - 1, (2, 2), (Fraction(3, 2), 1), 1),
        ),
        degree=lambda p: 2 * p.m - 1,
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3)),
        positive_field=("m", "half-degree m"),
    ),
    IdentityId.N4_UNIFORM_STATED: _Spec(
        "stated",
        "Bernoulli value B_n((x+4)/6) against half-geometric Euler "
        "polynomials of order 2k+2 (as printed; fails at n=1)",
        "four concentric spheres of radii 1..4",
        lambda p: _bernoulli_at(p.n, (p.x + 4) / 6),
        _hop(
            lambda p: _geometric(Fraction(1, 3**p.n), Fraction(1, 2)),
            lambda p: (hop_euler, p.n, (2, 2), ((p.x + 3) / 2, 1), 1),
        ),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
    IdentityId.N4_UNIFORM_CORRECTED: _Spec(
        "corrected",
        "Bernoulli difference at degree n+1 against half-geometric "
        "Euler polynomials of order 2k+3 from the recomputed chain",
        "four concentric spheres of radii 1..4",
        lambda p: _bernoulli_integral(
            p, 4 * Fraction(8) ** p.n, (p.x + 4) / 8, (p.x + 6) / 8
        ),
        _hop(
            lambda p: _geometric(Fraction(2**p.n, 2), Fraction(1, 2)),
            lambda p: (hop_euler, p.n, (3, 2), ((p.x + 4) / 2, 1), 1),
        ),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
}


def _term_numerators(
    d: int, weights: _Weights, value: _Value
) -> Iterator[tuple[int, int]]:
    """The terms of a right side on its lattice: term k = phase + stride j,
    j = 0, 1, 2, ..., as integers (t_j, m_j). d is the degree the right
    side states for its value in k (n // 2 for an even loop factor, see
    `_Spec`); any larger d gives the same terms from more work.

    Term k is t_j / den_k with den_k = m_0 m_1 ... m_j = C D_k b^k, D_k a
    common denominator of the values reached, so a partial sum S / den
    takes the term as (S m_j + t_j) / (den m_j) without a division; the
    zero terms off the lattice between them leave S / den as it is.
    The lattice values j = 0..d are computed directly as integer pairs,
    each only when it is reached; a zero weight puts off its value (its
    term is 0 over the growth m_j alone). Later values continue through
    one backward-difference table of the d + 1 lattice values as integer
    numerators over their common denominator D (see `_values_after`),
    as value(phase + stride j) is of degree <= d in j: the first later
    term takes m = b^stride D / D_k, every one after it m = b^stride.
    The stream is a `chain.from_iterable` over a generator that yields
    each head term as a 1-tuple and then the tail, one chain of C
    iterators, itself: no generator frame resumes for a tail term.
    `value` is only ever called at a lattice index.
    """

    def pieces() -> Iterator[Iterable[tuple[int, int]]]:
        C, b, numerators, _, stride, phase = weights
        step = b**stride
        m, D = C * b**phase, 1
        head: list[tuple[int, int] | None] = []
        lattice = range(phase, phase + stride * (d + 1), stride)
        for k in lattice:
            u = next(numerators)
            if u:
                num, den = v = value(k)
                grow = den // gcd(D, den)  # D grows to lcm(D, den)
                D *= grow
                head.append(v)
                yield ((u * num * (D // den), m * grow),)
            else:
                head.append(None)
                yield ((0, m),)
            m = step
        head = [value(k) if v is None else v for k, v in zip(lattice, head)]
        D_all = lcm(*(den for _, den in head))
        row = [num * (D_all // den) for num, den in head]
        yield zip(
            map(operator.mul, numerators, _values_after(_difference_table(row))),
            itertools.chain((step * (D_all // D),), itertools.repeat(step)),
        )

    return itertools.chain.from_iterable(pieces())


def _difference_table(row: list[int]) -> list[int]:
    """The backward differences of equally spaced values at the last one,
    top-first: entry -1 - j is the j-th."""
    diffs = []
    for _ in range(len(row)):
        diffs.insert(0, row[-1])
        row = [hi - lo for lo, hi in zip(row, row[1:])]
    return diffs


def _values_after(diffs: list[int]) -> Iterator[int]:
    """The values after the last one of a difference table (see
    `_difference_table`), unending.

    Each difference of order j - 1 is the running sum of the one of order
    j, so the values are d nested `itertools.accumulate` sums over the
    constant d-th difference: one C-level addition per order and value.
    """
    values = itertools.repeat(diffs[0])
    for start in diffs[1:]:
        values = itertools.accumulate(values, initial=start)
        next(values)  # start itself, the difference at the last value
    return values


def _index_terms(
    spec: _Spec, params: IdentityParams
) -> Iterator[tuple[int, int]]:
    """Term k = 0, 1, 2, ... of a right side as (t_k, m_k), as in
    `_term_numerators`: at stride 2 its lattice terms with the zero terms
    (0, 1) off the lattice put back between them."""
    weights, value, d = spec.right(params)
    terms = _term_numerators(d, weights, value)
    if weights.stride == 1:
        return terms
    off = itertools.repeat((0, 1))
    return itertools.chain(
        itertools.repeat((0, 1), weights.phase),
        itertools.chain.from_iterable(zip(terms, off)),
    )


def _terms(spec: _Spec, params: IdentityParams) -> Iterator[tuple[int, int]]:
    """Term k = 0, 1, 2, ... of a right side as (t_k, den_k)."""
    den = 1
    for t, m in _index_terms(spec, params):
        den *= m
        yield t, den


def _partial(spec: _Spec, params: IdentityParams, K: int) -> Fraction:
    """Exact sum of the terms k = 0..K of a spec's right side."""
    S, den = 0, 1
    for t, m in itertools.islice(_index_terms(spec, params), K + 1):
        S, den = S * m + t, den * m
    return Fraction(S, den)


def rhs_term(
    identity: IdentityId, params: IdentityParams, k: int
) -> ExactScalar:
    """Exact k-th addend of the right-hand side."""
    if k < 0:
        raise InvalidParamsError(f"term index must be >= 0, got {k}")
    return next(itertools.islice(rhs_terms(identity, params), k, None))


def rhs_terms(
    identity: IdentityId, params: IdentityParams
) -> Iterator[ExactScalar]:
    """The exact addends k = 0, 1, 2, ... of the right side, unending.

    The parameters are checked at the call, before any term is drawn.
    """
    params = normalize_params(identity, params)
    return itertools.starmap(Fraction, _terms(_SPECS[identity], params))


def eval_rhs_partial(
    identity: IdentityId, params: IdentityParams, K: int
) -> ExactScalar:
    """Exact partial sum of the right side through index K inclusive."""
    if K < 0:
        raise InvalidParamsError(f"partial-sum bound must be >= 0, got {K}")
    params = normalize_params(identity, params)
    return _partial(_SPECS[identity], params, K)


# -- ground truth: the series decomposition behind each identity -----------

_GROUND_TRUTH_ORDER = 30


class EngineConsistencyError(AssertionError):
    """The w-series decomposition behind an identity failed to be exact."""


def ground_truth_system(
    identity: IdentityId, params: IdentityParams
) -> LevelSystem:
    """Level system whose exact series factorization underlies the identity."""
    params = normalize_params(identity, params)
    return LevelSystem(*_SPECS[identity].system(params))


class _Record(NamedTuple):
    """A certified level system's series in u = w^2, at the certificate's
    order: its moves, its free move and, in `renewal_loops`' range, its
    renewal start and loops (else None)."""

    moves: Moves
    free: PowerSeries
    renewal: tuple[PowerSeries, tuple[PowerSeries, ...]] | None


# Keyed by the plain (walk, levels) pair, so a hit builds no LevelSystem:
# a system is certified once, however many instances rest on it. Bounded,
# so a long run over many level sets keeps the 64 most recently used.
# A record is immutable, so two threads that both miss build equal ones.
@functools.lru_cache(maxsize=64)
def _ground_truth_residual(key: _SystemKey) -> _Record:
    """The system's certified record.

    Its moves and free move are derived once, at `_GROUND_TRUTH_ORDER`,
    and the decomposition residual is computed on exactly those series;
    a nonzero residual raises EngineConsistencyError and stores nothing.
    Every side of an identity on the system read up to that order is a
    prefix of the record, which is the series a fresh derivation gives,
    as coefficient j of a move, product or quotient does not depend on
    the order it is truncated at.
    """
    system = LevelSystem(*key)
    moves = renewal_moves(system, _GROUND_TRUTH_ORDER)
    free = free_move(system, _GROUND_TRUTH_ORDER)
    residual = decomposition_residual(system, _GROUND_TRUTH_ORDER, moves, free)
    if residual != 0:
        raise EngineConsistencyError(
            f"series decomposition residual {residual} != 0 for {system}"
        )
    renewal = start_and_loops(moves) if linear_in_loops(system) else None
    return _Record(moves, free, renewal)


def ensure_ground_truth(identity: IdentityId, params: IdentityParams) -> None:
    """Require the underlying series decomposition to be exactly zero."""
    params = normalize_params(identity, params)
    _ground_truth_residual(_SPECS[identity].system(params))


# -- verification loop ------------------------------------------------------

_DEFAULT_POLICY = TruncationPolicy()

_FLOAT_RANGE = (
    "the left side, a term or the residual is outside the float range of "
    f"the tail control (magnitudes up to {sys.float_info.max:.4g})"
)


def verify(
    identity: IdentityId,
    params: IdentityParams,
    policy: TruncationPolicy | None = None,
) -> IdentityReport:
    """Accumulate the right side until tail control triggers; report.

    The threshold is tol * max(1, |lhs|). Convergence requires the last
    `stable_run` term magnitudes below threshold plus a geometric tail
    estimate below threshold, which a window of still-growing terms
    never gives, and which a window of zero terms gives only when the
    partial sum equals the left side exactly (see `TruncationPolicy`).
    The terms arrive as integer numerators, each with the integer factor
    by which the common denominator grows. Each term costs its exact
    update and one float comparison; a run of terms at or above
    threshold is summed in an inner loop with no other bookkeeping, and
    only a run of `stable_run` small terms calls for the tail estimate
    (see `_sum_to_tolerance`). The level system's
    ground truth is certified at its first instance and looked up by its
    (walk, levels) key after that; the certified record also holds the
    moves, free move, start and loops that the block-level sides read,
    so an instance on a certified system derives no move. Degenerate instances (uniformly spaced
    three-site systems) short-circuit to DEGENERATE_TRIVIAL.
    The tail control runs in double precision, so a left side, term or
    residual beyond the float range raises InvalidParamsError.
    """
    identity = IdentityId(identity)
    policy = policy or _DEFAULT_POLICY
    # checked once here; the spec's parts below take the normalised params
    params = normalize_params(identity, params)
    spec = _SPECS[identity]
    lhs = spec.lhs(params)
    if spec.degenerate(params):
        return IdentityReport(
            identity, params, -1, lhs, _ZERO, 0.0, True, Status.DEGENERATE_TRIVIAL
        )
    _ground_truth_residual(spec.system(params))
    try:
        return _sum_to_tolerance(identity, params, lhs, policy)
    except OverflowError:
        raise InvalidParamsError(f"{identity.value}: {_FLOAT_RANGE}") from None


def _sum_to_tolerance(
    identity: IdentityId,
    params: IdentityParams,
    lhs: Fraction,
    policy: TruncationPolicy,
) -> IdentityReport:
    """The summation and tail control of `verify`, in double precision.

    The partial sum stays one integer S over den and takes each nonzero
    term (t, m) of `_term_numerators` as S m + t over den m, with no
    division. A zero term only multiplies the pending growth `grow` by
    its m, which S and den take at the next nonzero term and at the stop,
    so every magnitude is still over the term's true den_k.
    The loop runs over the lattice terms. At stride 2 each lattice index
    k is followed by the zero term at k + 1 off the lattice (and at phase
    1 one more leads at k = 0), which the stream does not carry: it
    appends 0.0 to the window and 1 to the run, leaves S / den as it is,
    and is cut off when k is `k_max`.
    `run` counts the consecutive term magnitudes below threshold, and
    `window` keeps the last `stable_run` of them, read by `_tail_stops`
    only once the run is long enough; `prev_nz` and `last_nz` are the
    last two nonzero terms' magnitudes (0.0 while fewer were seen).
    A term at or above threshold sets the run to 0, and no window is read
    until `stable_run` small magnitudes have followed it. So the terms
    after it go to an inner loop over the same stream, which only takes
    each into S / den, its magnitude and `prev_nz`/`last_nz`, while they
    are nonzero and at or above threshold. The first zero or small term
    goes back to the general body, after the last large term's zero off
    the lattice (at stride 2, where `stable_run` >= 2 keeps that zero
    from completing a run): every window read still holds the magnitudes
    of terms k - stable_run + 1..k. The residual is taken on the
    integers too (`_residual`). Raises OverflowError when a magnitude it
    compares or the residual exceeds the float range.
    """
    spec = _SPECS[identity]
    threshold = policy.tol * max(1.0, abs(float(lhs)))
    S, den = 0, 1  # the partial sum is S / den; den_k is den grow
    grow = 1
    stable_run, k_max = policy.stable_run, policy.k_max
    weights, value, d = spec.right(params)
    stride, phase = weights.stride, weights.phase
    gap = stride == 2  # a zero term follows each lattice term
    # at phase 1 the zero term at k = 0 leads the window and the run
    window: deque[float] = deque([0.0] * phase, maxlen=stable_run)
    append = window.append
    run = phase
    prev_nz = last_nz = 0.0
    converged = False
    K = k_max  # where a sum that does not converge is cut off
    # before the envelope's peak, small terms may be a dip, not the tail;
    # the gate reads the bound n, not the stream's degree d
    peak = spec.degree(params) / -log(weights.decay)
    terms = zip(
        range(phase, k_max + 1, stride), _term_numerators(d, weights, value)
    )
    for k, (t, m) in terms:
        if t:
            m *= grow
            grow = 1
            S, den = S * m + t, den * m
            # int true division rounds correctly, as float(Fraction(t, den))
            mag = abs(t) / den
            prev_nz, last_nz = last_nz, mag
            if mag >= threshold:
                # no window is read until stable_run small magnitudes
                # follow, so the large terms after this one skip the
                # window and the run (grow stays 1 while they are nonzero)
                append(mag)
                for k, (t, m) in terms:
                    if not t:
                        break
                    S, den = S * m + t, den * m
                    mag = abs(t) / den
                    prev_nz, last_nz = last_nz, mag
                    if mag < threshold:
                        break
                else:
                    break  # k_max is reached among large terms
                if gap:  # the last large term's off-lattice zero
                    append(0.0)
                    run = 1
                else:
                    run = 0
                if not t:
                    grow, mag = m, 0.0
        else:
            grow *= m
            mag = 0.0
        append(mag)
        run = run + 1 if mag < threshold else 0
        if run >= stable_run and _tail_stops(
            window, k, peak, prev_nz, last_nz, threshold, S, den, lhs
        ):
            K, converged = k, True
            break
        if gap:
            if k == k_max:
                break
            append(0.0)
            run += 1
            if run >= stable_run and _tail_stops(
                window, k + 1, peak, prev_nz, last_nz, threshold, S, den, lhs
            ):
                K, converged = k + 1, True
                break
    S, den = S * grow, den * grow
    residual = _residual(lhs, S, den)
    if converged:
        status = Status.VERIFIED if residual < threshold else Status.RESIDUAL_NONZERO
    else:
        status = Status.NOT_CONVERGED
    return IdentityReport(
        identity, params, K, lhs, Fraction(S, den), residual, converged, status
    )


def _tail_stops(
    window: deque[float],
    k: int,
    peak: float,
    prev_nz: float,
    last_nz: float,
    threshold: float,
    S: int,
    den: int,
    lhs: Fraction,
) -> bool:
    """Whether the sum stops at term k, its window of the last
    `stable_run` magnitudes all below threshold.

    A window of zero magnitudes stops it only where the partial sum
    S / den (over any multiple of its denominator) equals the left side
    exactly, compared cross-multiplied. Any other stop waits for the peak
    k = d / ln(1/decay) of the terms' envelope k^d decay^k, and for a
    geometric tail estimate below threshold: a window with one nonzero
    magnitude, which is last_nz, takes its ratio to prev_nz, from before
    the window, and goes on if there is none.
    """
    nonzero = [v for v in window if v > 0.0]
    if not nonzero:
        # zero terms say nothing of the tail; only an exact sum ends here
        return S * lhs.denominator == lhs.numerator * den
    if k < peak:
        return False
    if len(nonzero) == 1:
        # its magnitude is last_nz; the ratio reaches back past the window
        if not prev_nz:
            return False
        ratio = last_nz / prev_nz
    else:
        ratio = max(b / a for a, b in zip(nonzero, nonzero[1:]))
    if ratio >= 1.0:
        return False
    ratio = min(ratio, 0.99)
    return nonzero[-1] * ratio / (1.0 - ratio) < threshold


def _residual(lhs: Fraction, S: int, den: int) -> float:
    """|lhs - S/den| as a float, on integers: no `Fraction` is built.

    int true division rounds correctly, so this is float(lhs - S/den)'s
    magnitude to the bit, and it raises OverflowError where that does.
    """
    ld = lhs.denominator
    return abs(lhs.numerator * den - S * ld) / (ld * den)


def term_magnitudes(
    identity: IdentityId, params: IdentityParams, k_lo: int, k_hi: int
) -> list[float]:
    """Float magnitudes of the terms over an index range (inclusive)."""
    if k_lo < 0:
        raise InvalidParamsError(f"term index must be >= 0, got {k_lo}")
    params = normalize_params(identity, params)
    terms = itertools.islice(
        _terms(_SPECS[identity], params), k_lo, max(k_lo, k_hi + 1)
    )
    try:
        # int true division rounds correctly, as float(Fraction(t, den))
        return [abs(t) / den for t, den in terms]
    except OverflowError:
        name = IdentityId(identity).value
        raise InvalidParamsError(f"{name}: {_FLOAT_RANGE}") from None


# -- batch matrices ----------------------------------------------------------

_X_STD = (_ZERO, _HALF, Fraction(1))
_X_SIGNED = (_ZERO, Fraction(1), Fraction(-1, 3))
_THREE_SITE_PAIRS = ((1, 3), (1, 4), (2, 5))


def expected_verified_cases() -> list[tuple[IdentityId, IdentityParams]]:
    """Every instance the engine expects to report VERIFIED.

    THREE_SITES_1D_CORRECTED appears only for n <= 1: from degree 2 on,
    its printed right side provably departs from the exact block-level
    sum (the collapse to pure Bernoulli orders splits a Bernoulli block
    by coefficient, which no evaluation rule allows). The higher-degree
    instances are carried separately as known discrepancies.
    """
    cases = [
        (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N))
        for N in (1, 2, 3) for n in range(7) for x in _X_STD
    ]
    cases += [
        (IdentityId.THREE_SITES_1D_CORRECTED,
         IdentityParams(n=n, x=x, levels=lv))
        for lv in _THREE_SITE_PAIRS for n in (0, 1) for x in _X_SIGNED
    ]
    cases += [
        (IdentityId.FOUR_UNIFORM_1D, IdentityParams(n=n, x=x))
        for n in range(11)
        for x in (_ZERO, _HALF, Fraction(1), Fraction(-1, 3))
    ]
    cases += [
        (IdentityId.FOUR_GENERAL_1D,
         IdentityParams(n=n, x=x, levels=(1, 2, 4)))
        for n in range(1, 5) for x in (_ZERO, Fraction(1))
    ]
    cases += [
        (IdentityId.N3_GENERAL, IdentityParams(n=n, x=x, levels=lv))
        for lv in ((1, 2, 4), (1, 3, 5))
        for n in range(7) for x in (_ZERO, Fraction(1))
    ]
    cases += [
        (IdentityId.N3_UNIFORM, IdentityParams(n=n, x=x))
        for n in range(11) for x in _X_STD
    ]
    cases += [
        (IdentityId.EVEN_BERNOULLI, IdentityParams(m=m)) for m in range(1, 6)
    ]
    cases += [
        (IdentityId.N4_UNIFORM_CORRECTED, IdentityParams(n=n, x=x))
        for n in range(11) for x in (_ZERO, Fraction(1))
    ]
    return cases


@dataclass(frozen=True)
class AuditCase:
    """A printed form expected to disagree, with the exact two limits."""

    identity: IdentityId
    params: IdentityParams
    expected_lhs: ExactScalar
    expected_rhs_limit: ExactScalar


def stated_audit_cases() -> list[AuditCase]:
    """Small instances where the as-printed identities must fail."""
    return [
        AuditCase(
            IdentityId.THREE_SITES_1D_STATED,
            IdentityParams(n=1, x=_ZERO, levels=(1, 3)),
            Fraction(1, 3),
            Fraction(1, 9),
        ),
        AuditCase(
            IdentityId.N4_UNIFORM_STATED,
            IdentityParams(n=1, x=_ZERO),
            Fraction(1, 6),
            Fraction(1, 3),
        ),
    ]


def known_discrepancy_cases() -> list[tuple[IdentityId, IdentityParams]]:
    """Corrected-form instances that still fail for structural reasons.

    Representative degrees of the three-site identity beyond n = 1: the
    right side converges, but not to the left side, because the printed
    collapse to B_n^(k+1) values is unsound.
    """
    return [
        (
            IdentityId.THREE_SITES_1D_CORRECTED,
            IdentityParams(n=n, x=_ZERO, levels=(a1, a2)),
        )
        for (a1, a2) in _THREE_SITE_PAIRS
        for n in (2, 5, 8)
    ]


# -- errata: live recomputation of every printed discrepancy ----------------


def _report_pair(
    stated: IdentityId,
    corrected: IdentityId,
    params: IdentityParams,
    policy: TruncationPolicy,
) -> dict:
    return {
        "stated": verify(stated, params, policy).to_json(),
        "corrected": verify(corrected, params, policy).to_json(),
    }


def _sup(series: PowerSeries) -> Fraction:
    return max(abs(c) for c in series.coeffs)


def errata_report(policy: TruncationPolicy | None = None) -> dict:
    """Machine-generated audit of printed forms versus exact recomputation.

    Every number here is computed on the spot from the exact engine; the
    structure separates surviving identities from typographical or
    structural misprints in their published statements.
    """
    policy = policy or _DEFAULT_POLICY
    order = 24
    entries: dict[str, dict] = {}

    entries["three_sites_stated_vs_corrected"] = _report_pair(
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
        IdentityParams(n=1, x=_ZERO, levels=(1, 3)),
        policy,
    ) | {
        "note": (
            "at degree 1 the corrected left side (degree-2 Euler "
            "difference from the smoothing integral) repairs the printed "
            "statement"
        )
    }

    # beyond degree 1 even the corrected collapse fails; the block-level
    # sum translated directly from the chain is the value that matches.
    # Its weights are geometric and its moments of degree 2 in k.
    n2 = IdentityParams(n=2, x=_ZERO, levels=(1, 3))
    blocks = replace(
        _SPECS[IdentityId.THREE_SITES_1D_CORRECTED],
        right=_renewal(Walk.REFLECTED_1D),
    )
    block_partial = _partial(blocks, n2, 95)
    lhs_block = _free_moment(Walk.REFLECTED_1D)(n2)
    entries["three_sites_corrected_degree_2"] = {
        "corrected": verify(
            IdentityId.THREE_SITES_1D_CORRECTED, n2, policy
        ).to_json(),
        "block_level_lhs": str(lhs_block),
        "block_level_partial": str(block_partial),
        "block_level_residual": abs(float(lhs_block - block_partial)),
        "note": (
            "the printed right side collapses mixed blocks to pure "
            "Bernoulli orders by splitting a Bernoulli block across "
            "coefficients, which the evaluation rules do not license; "
            "the uncollapsed block sum shown here does converge to the "
            "exact left side"
        ),
    }

    entries["four_sites_uniform_stated_vs_corrected"] = _report_pair(
        IdentityId.N4_UNIFORM_STATED,
        IdentityId.N4_UNIFORM_CORRECTED,
        IdentityParams(n=1, x=_ZERO),
        policy,
    ) | {
        "note": (
            "the printed four-sphere statement fails at degree 1 "
            "(1/6 vs 1/3); the recomputed chain gives order-(2k+3) Euler "
            "blocks with half-geometric weights and verifies"
        )
    }

    # four-sphere chain: printed middle display vs recomputed factorization
    one = PowerSeries.one(order, "w")
    w_over_sinh = ps_div(one, kernel(Kernel.SINH_OVER_ARG, 1, order, "w"))
    sech2 = ps_mul(
        kernel(Kernel.SECH, 1, order, "w"), kernel(Kernel.SECH, 1, order, "w")
    )
    sech3 = ps_mul(sech2, kernel(Kernel.SECH, 1, order, "w"))
    resum = geometric_resum(sech2.scale(_HALF))
    printed = ps_mul(w_over_sinh, ps_mul(sech2, resum))
    recomputed = ps_mul(w_over_sinh, ps_mul(sech3.scale(_HALF), resum))
    # the four-sphere system, certified by the pair above
    target = _free_at((Walk.BESSEL_3D, (0, 1, 2, 3, 4)), order)
    entries["four_sphere_chain_display"] = {
        "printed_residual": float(_sup(printed - target)),
        "recomputed_residual": str(_sup(recomputed - target)),
        "note": (
            "the printed resummed chain drops one secant factor and a "
            "factor 1/2; the recomputed form matches the closed form "
            "exactly, coefficient by coefficient"
        ),
    }

    # radial taboo prefactor: target/start versus the printed target/taboo.
    # The three-sphere system is not certified here, so its moves are
    # derived directly: the straight climb H_0 up_1 up_2, and the one loop
    # down_2 up_1 (its L_1 is the zero series).
    sys3 = LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3))
    fwd, (_, loop) = renewal_loops(sys3, order)
    direct3 = direct_mgf(sys3, order)
    chain_ok = ps_mul(fwd, geometric_resum(loop))
    # printed prefactor reads target/taboo = 1/3 instead of target/start = 1/2
    chain_printed = ps_mul(fwd, geometric_resum(loop.scale(Fraction(2, 3))))
    entries["bessel_taboo_prefactor"] = {
        "adopted_residual": str(_sup(chain_ok - direct3)),
        "printed_residual": float(_sup(chain_printed - direct3)),
        "note": (
            "the inward taboo move carries radial prefactor target/start; "
            "with the printed target/taboo weight the loop factorization "
            "no longer reproduces the closed form"
        ),
    }

    # four general sites: the boxed block list versus the forced translation
    fg = IdentityParams(n=1, x=_ZERO, levels=(1, 2, 4))
    printed = replace(
        _SPECS[IdentityId.FOUR_GENERAL_1D],
        right=_printed_fg_right,
    )
    printed_partial = _partial(printed, fg, 80)
    lhs_fg = eval_lhs(IdentityId.FOUR_GENERAL_1D, fg)
    entries["four_general_printed_blocks"] = {
        "printed_partial_through_k80": str(printed_partial),
        "lhs": str(lhs_fg),
        "printed_residual": abs(float(lhs_fg - printed_partial)),
        "implemented": verify(
            IdentityId.FOUR_GENERAL_1D,
            fg,
            TruncationPolicy(tol=1e-10, k_max=policy.k_max),
        ).to_json(),
        "note": (
            "the boxed statement's block list (with its order-l Euler "
            "block and printed constants) does not follow from the "
            "two-loop product; the factor-by-factor translation used by "
            "the engine does, and verifies"
        ),
    }
    return entries


def verify_all_payload(policy: TruncationPolicy | None = None) -> dict:
    """Run the full expected matrix, audits, and errata; canonical order."""
    policy = policy or _DEFAULT_POLICY

    def sort_key(item: dict):
        return (item["identity"], item.get("N") or 0, item["n"], item["x"],
                tuple(item["levels"]))

    def expect(cases, want: Status) -> list[dict]:
        reps = [verify(identity, params, policy) for identity, params in cases]
        checked = [
            r.to_json() | {"expected": want.value, "pass": r.status is want}
            for r in reps
        ]
        return sorted(checked, key=sort_key)

    reports = expect(expected_verified_cases(), Status.VERIFIED)
    audits = []
    for case in stated_audit_cases():
        rep = verify(case.identity, case.params, policy)
        # the partial sum sits within the policy's own tail allowance of
        # the true limit of the printed right side
        limit_tol = 10.0 * policy.tol
        ok = (
            rep.status is Status.RESIDUAL_NONZERO
            and rep.lhs_exact == case.expected_lhs
            and abs(float(rep.rhs_partial_exact - case.expected_rhs_limit))
            < limit_tol
        )
        audits.append(
            rep.to_json()
            | {
                "expected": "RESIDUAL_NONZERO",
                "expected_lhs": str(case.expected_lhs),
                "expected_rhs_limit": str(case.expected_rhs_limit),
                "pass": ok,
            }
        )
    audits.sort(key=sort_key)
    discrepancies = expect(known_discrepancy_cases(), Status.RESIDUAL_NONZERO)
    degenerate = verify(
        IdentityId.THREE_SITES_1D_STATED,
        IdentityParams(n=1, x=Fraction(7), levels=(1, 2)),
        policy,
    )
    ok = degenerate.status is Status.DEGENERATE_TRIVIAL
    all_ok = ok and all(r["pass"] for r in reports + audits + discrepancies)
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "policy": {
            "tol": policy.tol,
            "stable_run": policy.stable_run,
            "k_max": policy.k_max,
        },
        "reports": reports,
        "stated_audits": audits,
        "known_discrepancies": discrepancies,
        "degenerate_check": degenerate.to_json() | {"pass": ok},
        "errata": errata_report(policy),
        "all_passed": all_ok,
    }
