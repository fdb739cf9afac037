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

import functools
import itertools
import operator
import sys
from collections import deque, namedtuple
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import cos, gcd, inf, isfinite, log, log1p, pi, ulp
from numbers import Real
from typing import Callable, Iterable, Iterator

from .loopcalc import (
    LevelSystem, Moves, Walk, _even_kernel, _in_w, decomposition_residual,
    free_pair, linear_in_loops, renewal_moves, start_and_loops,
)
from .polynomials import (
    ExactScalar,
    Poly,
    appell_polynomial,
    bernoulli_number,
    chebyshev_lattice_numerators,
    hop_bernoulli,
    hop_euler,
)
from .series import (
    Kernel, PowerSeries, Record, as_scalar, geometric_resum, ps_div, ps_mul,
)
from .umbral import Family, UmbralExpr, expr_egf

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class _Weights(
    namedtuple(
        "_Weights", "C step numerators decay stride phase",
        defaults=(1, 0),
    )
):
    """The weights of a right side on their lattice k = phase + stride j,
    j = 0, 1, 2, ...: weight k is numerators[j] / (C step^j).

    `step` is the denominator's growth per lattice step, not per index:
    b^stride for weights over b^k. stride is 1 or 2 and
    0 <= phase < stride. Every weight off the lattice is 0 and has no
    numerator in the stream, so a nonzero one cannot be stated. The
    weights shrink like decay^k: decay is one over the smallest modulus
    of a pole of their generating function.
    """

    __slots__ = ()
    C: int
    step: int
    numerators: Iterator[int]
    decay: float
    stride: int
    phase: int


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


class IdentityParams(Record):
    """Evaluation point of one identity instance.

    `n` is the polynomial degree, `x` the argument (0 when not given),
    `levels` the site levels where applicable, `cheb_index` the Chebyshev
    index N of EULER_CHEB, and `m` the half-degree of EVEN_BERNOULLI, the
    number B_2m, which also rejects an `x` and an `n` other than 0 or 2m.
    An identity rejects `levels`, `cheb_index` or `m` if it does not read
    them.
    """

    n: int = 0
    x: Fraction | None = None
    levels: tuple[Fraction, ...] | None = None
    cheb_index: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.x is not None:
            object.__setattr__(self, "x", as_scalar(self.x))
        if self.levels is not None:
            object.__setattr__(
                self, "levels", tuple(as_scalar(v) for v in self.levels)
            )


class TruncationPolicy(Record):
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
    |r| for geometric weights c r^k, cos(pi / 2N) for the Chebyshev ones,
    in double precision. Where it rounds to 1.0 the envelope has no peak,
    so no estimate stops the sum and it ends NOT_CONVERGED at k_max
    unless a partial sum is exact; where it underflows to 0.0 the peak is
    at k = 0. d here is the bound n (the spec's `degree`), even where the
    value is known to be of degree n // 2 in k and its terms are built
    from that degree, so every stop stays where the bound n puts it.
    This is a heuristic, not a bound; the zero-window stop on an exact
    partial sum is not gated.
    Magnitudes are floats, and a nonzero term whose magnitude underflows
    to 0.0 enters the window as the smallest positive float. Where the
    window's last nonzero term underflowed, equal stand-ins would give a
    ratio of 1, so the estimate takes the envelope's ratio at k,
    (1 + 1/k)^d rho: below 1 past the peak, and 0 where rho underflows.
    A policy with a tol that is not a finite positive real number, a
    stable_run or k_max that is not an int (a bool is none), a stable_run
    below 2 or longer than any deque, or a k_max below 1 raises
    InvalidParamsError.
    """

    tol: float = 1e-12
    stable_run: int = 4
    k_max: int = 512

    def __post_init__(self) -> None:
        # an infinite tol accepts every term, a nan tol none, and a tol
        # that is no real number (a str, None, a complex) none either; a
        # window holds at most sys.maxsize magnitudes; the two counts are
        # ints, and a bool, an int to Python, is no count
        if (
            not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in (self.stable_run, self.k_max)
            )
            or not isinstance(self.tol, Real)
            or not isfinite(self.tol)
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


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "identity params K_used lhs_exact rhs_partial_exact residual_float"
        " status",
    )
):
    __slots__ = ()
    identity: IdentityId
    params: IdentityParams
    K_used: int
    lhs_exact: ExactScalar
    rhs_partial_exact: ExactScalar
    residual_float: float
    status: Status

    @property
    def variant(self) -> str:
        return _SPECS[self.identity].variant

    @property
    def converged(self) -> bool:
        """Whether the tail control stopped the sum (or it needed none)."""
        return self.status is not Status.NOT_CONVERGED

    def to_json(self) -> dict:
        p = self.params
        out = {
            "identity": self.identity.value,
            "variant": self.variant,
            "n": p.n,
            # EVEN_BERNOULLI reads no x, and prints 0
            "x": str(p.x or 0),
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


class CatalogEntry(
    namedtuple("CatalogEntry", "identity variant description reference")
):
    __slots__ = ()
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
    for field, phrase in _OPTIONAL_FIELDS:
        # a field the identity does not read would be echoed as verified
        value = getattr(params, field)
        if value is not None and not _takes(spec, field):
            shown = ",".join(map(str, value)) if field == "levels" else value
            raise InvalidParamsError(
                f"{IdentityId(identity).value} takes no {phrase}, got {shown}"
            )
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
    if identity == IdentityId.EVEN_BERNOULLI and (
        params.x is not None or params.n not in (0, 2 * params.m)
    ):
        raise InvalidParamsError(
            f"EVEN_BERNOULLI takes m alone, with n 0 or 2m and no x, "
            f"got n = {params.n}, x = {params.x}"
        )


# the fields only some identities read, and the phrase naming each
_OPTIONAL_FIELDS = (
    ("levels", "levels"), ("cheb_index", "Chebyshev index N"),
    ("m", "half-degree m"),
)


def _takes(spec: _Spec, field: str) -> bool:
    """Whether an identity of this spec reads the optional field."""
    if field == "levels":
        return bool(spec.level_count)
    return spec.positive_field is not None and spec.positive_field[0] == field


def normalize_params(
    identity: IdentityId, params: IdentityParams
) -> IdentityParams:
    """Fill derived fields: EVEN_BERNOULLI's n = 2m, and every other
    identity's x = 0 when not given."""
    validate_params(identity, params)
    if identity == IdentityId.EVEN_BERNOULLI:
        if params.n != 2 * params.m:
            params = params._replace(n=2 * params.m)
    elif params.x is None:
        params = params._replace(x=_ZERO)
    return params


# -- left-hand sides -------------------------------------------------------


def _bernoulli_at(n: int, x: Fraction, plus: int, over: int) -> Fraction:
    """B_n((x + plus) / over), one `Fraction` of `Poly.at`'s integer pair."""
    xn, xd = x.as_integer_ratio()
    return Fraction(*hop_bernoulli(n, 1).at(xn + plus * xd, over * xd))


def _difference_at(
    family: Callable[[int, int], Poly], n: int, hi: int, lo: int, q: int
) -> tuple[int, int]:
    """family(n, 1) at hi / q minus at lo / q (q > 0), as an unreduced
    integer pair: `Poly.at` gives both values over one denominator."""
    poly = family(n, 1)
    top, den = poly.at(hi, q)
    return top - poly.at(lo, q)[0], den


def _three_sites_lhs(params: IdentityParams, shift: int = 0) -> Fraction:
    """The Euler difference of degree n + shift at the three-site points
    u + 3/2 - 2 a1 / a2 and u + 1/2, u = x / (2 a2)."""
    (a1, a2), n = params.levels, params.n + shift
    xn, xd = params.x.as_integer_ratio()
    p1, q1 = a1.as_integer_ratio()
    p2, q2 = a2.as_integer_ratio()
    # both points over q = 2 xd p2 q1: u is xn q2 q1 / q, 1/2 is half / q
    # and 2 a1 / a2 is 4 p1 q2 xd / q
    half = xd * p2 * q1
    u = xn * q2 * q1
    return Fraction(*_difference_at(
        hop_euler, n, u + 3 * half - 4 * p1 * q2 * xd, u + half, 2 * half
    ))


def _bernoulli_integral(
    params: IdentityParams, c: int, base: int, lo: int, hi: int
) -> Fraction:
    """c times the integral of B_n from (x + lo) / base to (x + hi) / base:
    c (B_(n+1)((x + hi) / base) - B_(n+1)((x + lo) / base)) / (n + 1),
    c an integer."""
    n = params.n
    xn, xd = params.x.as_integer_ratio()
    num, den = _difference_at(
        hop_bernoulli, n + 1, xn + hi * xd, xn + lo * xd, base * xd
    )
    return Fraction(c * num, den * (n + 1))


def eval_lhs(identity: IdentityId, params: IdentityParams) -> ExactScalar:
    params = normalize_params(identity, params)
    return _SPECS[identity].lhs(params)


# -- right-hand side terms -------------------------------------------------
#
# Term k = phase + stride j of every right side is weight(k) * value(k),
# the weight an integer u_j over C step^j (C, step fixed integers: the
# denominator grows by step per lattice step) and value(k) a polynomial
# in k of degree at most n: E_n^(p)(y) and B_n^(p)(y) have total degree n in
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
# den_k = C D step^j. It yields (t_k, m_k) with den_k the product of the m
# so far, so a partial sum S / den takes term k as (S m_k + t_k) /
# (den m_k); in the head m_k also grows D by the new value's share, and
# past it m_k = step. Where the weights vanish at
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
# one series product per loop count. S, the loops and the left side's
# free move are divided out of prefixes of the kernel pairs held in the
# system's certified record (`_ground_truth_residual`), at the order read:
# a read up to the order the record holds derives no move, and a longer
# one certifies the pairs at its own order first.

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
    """The system's free move in w, formed by its certified record."""
    return _read(_ground_truth_residual(key).free((order + 1) // 2), order)


def _renewal_at(
    key: _SystemKey, order: int
) -> tuple[PowerSeries, tuple[PowerSeries, ...]]:
    """The system's renewal start and loops in w, read as in `_free_at`."""
    start, loops = _ground_truth_residual(key).renewal((order + 1) // 2)
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
    in order, at one `ps_mul` each, and the values reached are kept, so
    value(k) answers any k in any order, as a hop-form value does. The
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
    weights = _geometric(*s0.as_integer_ratio(), *l0.as_integer_ratio())
    return weights, value, degree


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


def _geometric(cn: int, cd: int, rn: int, rd: int, lead: int = 0) -> _Weights:
    """The weights c r^(j - lead) at lattice index j >= lead and 0 below,
    c = cn / cd and r = rn / rd (cd, rd > 0, lead 0 or 1), as numerators
    over C step^j with step = r.den.

    r is reduced by one gcd, and weight j is
    c.num r.den^lead r.num^(j - lead) / (c.den r.den^j) with that first
    fraction reduced by another, so each lattice step grows the
    denominator by r.den alone.
    """
    h = gcd(rn, rd)
    rn, rd = rn // h, rd // h
    cn *= rd**lead
    g = gcd(cn, cd)
    numerators = itertools.accumulate(
        itertools.repeat(rn), operator.mul, initial=cn // g
    )
    if lead:
        numerators = itertools.chain(itertools.repeat(0, lead), numerators)
    return _Weights(cd // g, rd, numerators, abs(rn / rd))


def _chebyshev_weights(params: IdentityParams) -> _Weights:
    """The reciprocal-Chebyshev weights p_l of 1/T_N(1/t), as integers
    P_l = p_l 2^l over 2^l.

    They vanish whenever l - N is odd, so they are read on their lattice
    l = N % 2 + 2j only, over 2^(N % 2) 4^j, and decay like
    cos(pi / 2N)^l, since the largest root of T_N is cos(pi / 2N). For
    N <= 3, Q(t) = t^N T_N(1/t) = 2^(N-1) - N 2^(N-3) t^2 has at most
    two terms (the coefficient of x^(N-2) in 2 T_N(x/2) is -N), so past
    the N // 2 lattice zeros the weights are geometric: p_N = 2^(1-N)
    and the ratio per lattice step is N / 4, reduced by `_geometric`
    (N = 2 grows the denominator one bit per lattice step, N = 3 two).
    N = 1 has no tap, and p_1 = 1 is its one nonzero weight.
    """
    N = params.cheb_index
    phase, decay = N % 2, cos(pi / (2 * N))
    # the lattice stream at N <= 3 too cost 12% on hop_sums
    if N > 3:
        numerators = chebyshev_lattice_numerators(N)
        return _Weights(2**phase, 4, numerators, decay, 2, phase)
    return _geometric(1, 2 ** (N - 1), N if N > 1 else 0, 4, N // 2)._replace(
        decay=decay, stride=2, phase=phase
    )


def _three_sites_weights(params: IdentityParams) -> _Weights:
    """The weights (n + 1) (1 - 2 a) (2 a)^n a (1 - a)^k, a = a1 / a2."""
    (a1, a2), n = params.levels, params.n
    (p1, q1), (p2, q2) = a1.as_integer_ratio(), a2.as_integer_ratio()
    r, s = p1 * q2, q1 * p2  # a = r / s
    return _geometric(
        (n + 1) * (s - 2 * r) * (2 * r) ** n * r, s ** (n + 2), s - r, s
    )


# family, degree n, order (o0, o1), point (a, c, q), integer divisor s
_HopRow = tuple[Callable[[int, int], Poly], int, tuple[int, int],
                tuple[int, int, int], int]


def _line(
    x: Fraction, times: int, plus: int, step: int, over: int
) -> tuple[int, int, int]:
    """The point (times x + plus + step k) / over of a hop row, as the
    integers (a, c, q) of (a + c k) / q, q > 0."""
    xn, xd = x.as_integer_ratio()
    return times * xn + plus * xd, step * xd, over * xd


def _three_sites_row(params: IdentityParams) -> _HopRow:
    """B_n^(k+1) at (x + a2) / (4 a1) + k / 2."""
    a1, a2 = params.levels
    xn, xd = params.x.as_integer_ratio()
    p1, q1 = a1.as_integer_ratio()
    p2, q2 = a2.as_integer_ratio()
    # over q = 4 p1 xd q2, the step 1/2 is 2 p1 xd q2 / q
    point = (xn * q2 + p2 * xd) * q1, 2 * p1 * xd * q2, 4 * p1 * xd * q2
    return hop_bernoulli, params.n, (1, 1), point, 1


def _hop(
    weights: Callable[[IdentityParams], _Weights],
    row: Callable[[IdentityParams], _HopRow],
) -> Callable[[IdentityParams], _Right]:
    """The right side of a hop-family identity: its weights, and its
    values read from its row.

    value(k) is family(n, o0 + o1 k) at the point (a + c k) / q, divided
    by s, so each value is one integer Horner loop. The row states a, c
    and q in any common scale; divided by g = gcd(a, c, q), q is the
    least common denominator of a / q and c / q. It is of degree n // 2
    in k when 2 c / q = o1, and n otherwise.
    """

    def right(params: IdentityParams) -> _Right:
        family, n, (o0, o1), (a, c, q), s = row(params)
        g = gcd(a, c, q)
        a, c, q = a // g, c // g, q // g

        def value(k: int) -> tuple[int, int]:
            num, den = family(n, o0 + o1 * k).at(a + c * k, q)
            return num, den * s

        return weights(params), value, n // 2 if 2 * c == o1 * q else n

    return right


def _even_bernoulli_weights(params: IdentityParams) -> _Weights:
    """The weights m / ((1 - 2^(1 - 2m)) (3^(2m) - 1)) 4^-k."""
    m = params.m
    half = 2 ** (2 * m - 1)
    return _geometric(m * half, (half - 1) * (9**m - 1), 1, 4)


# -- the spec table ----------------------------------------------------------


class _Spec(
    namedtuple(
        "_Spec",
        "variant description reference lhs right system degree level_count"
        " positive_field degenerate",
        defaults=(lambda p: p.n, 0, None, lambda p: False),
    )
):
    """One identity: catalog text, left side, right side, ground truth.

    right(params) gives the right side as (weights, value, d): term
    k = phase + stride j is u_j / (C step^j) * value(k) with C, step and u
    the first fields of the weights (see `_Weights`) and value(k) of
    degree <= d in k, given as an
    integer pair (num, den). d is n // 2 where the right side's loop
    factor is even in w (see the comment above `_Value`), and the term
    stream is built from it. degree(params) is the bound, the family's
    degree n (2m - 1 for EVEN_BERNOULLI), which d never exceeds; the peak
    gate of `_sum_to_tolerance` reads it.
    An instance needs `level_count` levels and, by `positive_field`, an
    integer field >= 1 (and the phrase naming it in the error).
    """

    __slots__ = ()
    variant: str
    description: str
    reference: str
    lhs: Callable[[IdentityParams], ExactScalar]
    right: Callable[[IdentityParams], _Right]
    system: Callable[[IdentityParams], _SystemKey]
    degree: Callable[[IdentityParams], int]
    level_count: int
    positive_field: tuple[str, str] | None
    degenerate: Callable[[IdentityParams], bool]


_THREE_SITES = _Spec(
    "stated",
    "Euler difference at degree n against geometric-weighted "
    "higher-order Bernoulli polynomials (three sites, as printed)",
    "three sites on the half-line / reflected walk",
    _three_sites_lhs,
    _hop(_three_sites_weights, _three_sites_row),
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
        lambda p: hop_euler(p.n, 1).eval(p.x),
        _hop(_chebyshev_weights, lambda p: (
            hop_euler, p.n, (0, 1),
            _line(p.x, 2 * p.cheb_index, -p.cheb_index, 1, 2),
            p.cheb_index**p.n,
        )),
        system=lambda p: (Walk.REFLECTED_1D, tuple(range(p.cheb_index + 1))),
        positive_field=("cheb_index", "a Chebyshev index"),
    ),
    IdentityId.THREE_SITES_1D_STATED: _THREE_SITES,
    IdentityId.THREE_SITES_1D_CORRECTED: _THREE_SITES._replace(
        variant="corrected",
        description="same right side with the smoothing step integrated to "
        "degree n+1 on the left; sound only for n <= 1 (see errata)",
        lhs=lambda p: _three_sites_lhs(p, 1),
    ),
    IdentityId.FOUR_UNIFORM_1D: _Spec(
        "stated",
        "E_n(x) as a combination of E_n^(2k+3)(3x+k) over loop counts",
        "four uniform sites on the half-line / reflected walk",
        lambda p: hop_euler(p.n, 1).eval(p.x),
        _hop(
            lambda p: _geometric(1, 4 * 3**p.n, 3, 4),
            lambda p: (hop_euler, p.n, (3, 2), _line(p.x, 3, 0, 1, 1), 1),
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
        lambda p: _bernoulli_integral(p, 3 ** (p.n + 1), 6, 3, 5),
        _hop(
            lambda p: _geometric(3, 4, 1, 4),
            lambda p: (hop_euler, p.n, (2, 2), _line(p.x, 1, 3, 2, 2), 1),
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
            lambda p: (hop_euler, 2 * p.m - 1, (2, 2), (3, 2, 2), 1),
        ),
        degree=lambda p: 2 * p.m - 1,
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3)),
        positive_field=("m", "half-degree m"),
    ),
    IdentityId.N4_UNIFORM_STATED: _Spec(
        "stated",
        "Bernoulli value B_n((x+4)/6) against half-geometric Euler "
        "polynomials of order 2k+2 (as printed; fails from n=0)",
        "four concentric spheres of radii 1..4",
        lambda p: _bernoulli_at(p.n, p.x, 4, 6),
        _hop(
            lambda p: _geometric(1, 3**p.n, 1, 2),
            lambda p: (hop_euler, p.n, (2, 2), _line(p.x, 1, 3, 2, 2), 1),
        ),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
    IdentityId.N4_UNIFORM_CORRECTED: _Spec(
        "corrected",
        "Bernoulli difference at degree n+1 against half-geometric "
        "Euler polynomials of order 2k+3 from the recomputed chain",
        "four concentric spheres of radii 1..4",
        lambda p: _bernoulli_integral(p, 4 * 8**p.n, 8, 4, 6),
        _hop(
            lambda p: _geometric(2**p.n, 2, 1, 2),
            lambda p: (hop_euler, p.n, (3, 2), _line(p.x, 1, 4, 2, 2), 1),
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

    Term k is t_j / den_k with den_k = m_0 m_1 ... m_j = C D_k step^j, D_k
    a common denominator of the values reached, so a partial sum S / den
    takes the term as (S m_j + t_j) / (den m_j) without a division; the
    zero terms off the lattice between them leave S / den as it is.
    The lattice values j = 0..d are computed directly as integer pairs,
    each when its lattice index is reached, whatever its weight. Later
    values continue through one backward-difference table of those d + 1
    values as integer numerators over their common denominator D = D_d
    (see `_values_after`), as value(phase + stride j) is of degree <= d
    in j, so every tail term takes m = step. The table is built on a
    short row in place (`_difference_table`).
    The stream is a `chain.from_iterable` over a generator that yields
    each head term as a 1-tuple and then the tail, one chain of C
    iterators, itself: no generator frame resumes for a tail term.
    `value` is only ever called at a lattice index.
    """

    def pieces() -> Iterator[Iterable[tuple[int, int]]]:
        C, step, numerators, _, stride, phase = weights
        m, D = C, 1
        head: list[tuple[int, int]] = []
        for k in range(phase, phase + stride * (d + 1), stride):
            num, den = v = value(k)
            grow = den // gcd(D, den)  # D grows to lcm(D, den)
            D *= grow
            head.append(v)
            yield ((next(numerators) * num * (D // den), m * grow),)
            m = step
        row = [num * (D // den) for num, den in head]
        values = _values_after(_difference_table(row))
        values = map(operator.mul, numerators, values)
        yield zip(values, itertools.repeat(step))

    # a generator over the whole stream cost 7.4% on a cold hop_sums run
    return itertools.chain.from_iterable(pieces())


def _difference_table(row: list[int]) -> list[int]:
    """The backward differences of equally spaced values at the last one,
    top-first: entry -1 - j is the j-th.

    Built in a copy of the row: pass i leaves the i-th differences in its
    first len(row) - i entries, so entry len(row) - 1 - i keeps the i-th
    difference at the last value. A plain loop, as the rows are short
    (a right side's degree plus one).
    """
    row = row[:]
    size = len(row)
    for i in range(1, size):
        for j in range(size - i):
            row[j] = row[j + 1] - row[j]
    return row


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


class _Record:
    """A certified level system in u = w^2: its moves as kernel pairs
    (`loopcalc.Moves`) and its free move's pair (`loopcalc.free_pair`),
    held as one unit, `pairs`, at the order they were last certified:
    `_GROUND_TRUTH_ORDER` when built, or a longer order read since. Every
    series read was so certified at its own order or a longer one, and
    is the series a fresh derivation gives, as coefficient j of a move,
    product or quotient does not depend on the order it is truncated at.

    Quotients are formed only when read, at the order read: `free(order)`
    divides the free move, and `renewal(order)` the start and loops (None
    outside `renewal_loops`' range), out of the pairs' first `order`
    coefficients, so a system that only the hop-form identities rest on
    divides nothing. Each keeps one slot, formed again only for a longer
    read. A read returns the pairs and series it formed or found, of at
    least `order` coefficients, not a slot, which a racing thread may
    refill with a shorter one."""

    # dividing again at every read, with no slots, cost 11.3% on multi_level
    __slots__ = ("system", "pairs", "_free", "_renewal")

    def __init__(self, system: LevelSystem) -> None:
        self.system = system
        self.pairs = self._free = self._renewal = None
        self._pairs((_GROUND_TRUTH_ORDER + 1) // 2)

    def _pairs(
        self, order: int
    ) -> tuple[Moves, tuple[PowerSeries, PowerSeries]]:
        """The held pairs, if shorter than `order` first derived at that
        order and certified: the decomposition residual is computed on
        exactly those series, by cross-multiplying the chain's continuant
        with the free pair, so the certificate divides nothing. A nonzero
        residual raises EngineConsistencyError and keeps the old pairs."""
        held = self.pairs
        if held is None or held[1][0].order < order:
            system, w_order = self.system, 2 * order
            moves = renewal_moves(system, w_order)
            free = free_pair(system, w_order)
            residual = decomposition_residual(system, w_order, moves, free)
            if residual != 0:
                raise EngineConsistencyError(
                    f"series decomposition residual {residual} != 0 "
                    f"for {system}"
                )
            held = self.pairs = moves, free
        return held

    def free(self, order: int) -> PowerSeries:
        held = self._free
        if held is None or held.order < order:
            _, pair = self._pairs(order)
            held = self._free = ps_div(*(s.prefix(order) for s in pair))
        return held

    def renewal(
        self, order: int
    ) -> tuple[PowerSeries, tuple[PowerSeries, ...]] | None:
        if not linear_in_loops(self.system):
            return None
        held = self._renewal
        if held is None or held[0].order < order:
            moves, _ = self._pairs(order)
            held = self._renewal = start_and_loops(moves.prefix(order))
        return held


# Keyed by the plain (walk, levels) pair, so a hit builds no LevelSystem:
# a system is certified once at each order it grows to, however many
# instances rest on it. Bounded, so a long run over many level sets keeps
# the 64 most recently used. A record's series are immutable, so two
# threads that both miss or both grow a record build equal ones.
@functools.lru_cache(maxsize=64)
def _ground_truth_residual(key: _SystemKey) -> _Record:
    """The system's certified record (see `_Record`); a nonzero residual
    at `_GROUND_TRUTH_ORDER` raises EngineConsistencyError and stores
    nothing."""
    return _Record(LevelSystem(*key))


def ensure_ground_truth(identity: IdentityId, params: IdentityParams) -> None:
    """Require the underlying series decomposition to be exactly zero."""
    params = normalize_params(identity, params)
    _ground_truth_residual(_SPECS[identity].system(params))


# -- verification loop ------------------------------------------------------

_DEFAULT_POLICY = TruncationPolicy()

_UNDERFLOW = ulp(0.0)  # a nonzero term's magnitude where abs(t) / den is 0.0

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

    The threshold is tol * max(1, |lhs|); `TruncationPolicy` states the
    stop rule and `_sum_to_tolerance` its bookkeeping. The level system's
    ground truth is certified at its first instance and looked up by its
    (walk, levels) key after that; every series a side reads comes from
    that record (see `_Record`), certified at its own order or a longer one.
    Degenerate instances (uniformly spaced three-site systems)
    short-circuit to DEGENERATE_TRIVIAL.
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
            identity, params, -1, lhs, _ZERO, 0.0, Status.DEGENERATE_TRIVIAL
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

    The partial sum stays one integer S over den and takes each term
    (t, m) of `_term_numerators` as S m + t over den m, with no division,
    so every magnitude is over the term's den_k.
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
    S, den = 0, 1  # the partial sum is S / den
    stable_run, k_max = policy.stable_run, policy.k_max
    weights, value, d = spec.right(params)
    stride, phase = weights.stride, weights.phase
    # streaming the off-lattice zeros cost 8.3% on a warm hop_sums run
    gap = stride == 2  # a zero term follows each lattice term
    # at phase 1 the zero term at k = 0 leads the window and the run
    window: deque[float] = deque([0.0] * phase, maxlen=stable_run)
    append = window.append
    run = phase
    prev_nz = last_nz = 0.0
    converged = False
    K = k_max  # where a sum that does not converge is cut off
    # before the envelope's peak, small terms may be a dip, not the tail;
    # the gate reads the bound n, not the stream's degree d. A decay that
    # rounds to 1.0 has no peak, so no estimate stops the sum; one that
    # underflows to 0.0 peaks at 0
    decay = weights.decay
    if 0.0 < decay < 1.0:
        peak = spec.degree(params) / -log(decay)
    else:
        peak = inf if decay else 0.0
    terms = zip(
        range(phase, k_max + 1, stride), _term_numerators(d, weights, value)
    )
    for k, (t, m) in terms:
        S, den = S * m + t, den * m
        if t:
            # int true division rounds correctly, as float(Fraction(t, den))
            mag = abs(t) / den or _UNDERFLOW
            prev_nz, last_nz = last_nz, mag
            if mag >= threshold:
                # no window is read until stable_run small magnitudes
                # follow, so the large terms after this one skip the
                # window and the run; the general body cost 3.4% on hop_sums
                append(mag)
                for k, (t, m) in terms:
                    S, den = S * m + t, den * m
                    if not t:
                        break
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
                    mag = 0.0
                elif not mag:  # the small term after the large ones underflowed
                    mag = last_nz = _UNDERFLOW
        else:
            mag = 0.0
        append(mag)
        run = run + 1 if mag < threshold else 0
        if run >= stable_run and _tail_stops(
            window, k, peak, prev_nz, last_nz, threshold, S, den, lhs, decay
        ):
            K, converged = k, True
            break
        if gap:
            if k == k_max:
                break
            append(0.0)
            run += 1
            if run >= stable_run and _tail_stops(
                window, k + 1, peak, prev_nz, last_nz, threshold, S, den, lhs, decay
            ):
                K, converged = k + 1, True
                break
    residual = _residual(lhs, S, den)
    if converged:
        status = Status.VERIFIED if residual < threshold else Status.RESIDUAL_NONZERO
    else:
        status = Status.NOT_CONVERGED
    return IdentityReport(identity, params, K, lhs, Fraction(S, den), residual, status)


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
    decay: float,
) -> bool:
    """Whether the sum stops at term k, its window of the last
    `stable_run` magnitudes all below threshold.

    A window of zero magnitudes stops it only where the partial sum
    S / den (over any multiple of its denominator) equals the left side
    exactly, compared cross-multiplied. Any other stop waits for the peak
    k = d / ln(1/decay) of the terms' envelope k^d decay^k, and for a
    geometric tail estimate below threshold: a window with one nonzero
    magnitude, which is last_nz, takes its ratio to prev_nz, from before
    the window, and goes on if there is none. An underflowed last_nz
    (`_UNDERFLOW`) takes the envelope's ratio at k, (1 + 1/k)^d decay =
    decay^(1 - peak ln(1 + 1/k)), below 1 past the peak.
    """
    nonzero = [v for v in window if v > 0.0]
    if not nonzero:
        # zero terms say nothing of the tail; only an exact sum ends here
        return S * lhs.denominator == lhs.numerator * den
    if k < peak:
        return False
    if last_nz == _UNDERFLOW:
        ratio = decay ** (1.0 - peak * log1p(1.0 / k))
    elif len(nonzero) == 1:
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


class AuditCase(
    namedtuple(
        "AuditCase", "identity params expected_lhs expected_rhs_limit"
    )
):
    """A printed form expected to disagree, with the exact two limits."""

    __slots__ = ()
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
    blocks = _SPECS[IdentityId.THREE_SITES_1D_CORRECTED]._replace(
        right=_renewal(Walk.REFLECTED_1D)
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
            "the printed four-sphere statement fails from degree 0 "
            "(1 vs 2 there, 1/6 vs 1/3 at degree 1); the recomputed chain "
            "gives order-(2k+3) Euler blocks with half-geometric weights "
            "and verifies"
        )
    }

    # four-sphere chain: printed middle display vs recomputed factorization.
    # Every series here is even in w, so each is taken in u = w^2, where
    # its coefficients are the even ones in w and the odd ones, all 0,
    # change no supremum.
    sech = _even_kernel(Kernel.SECH, 1, order)
    w_over_sinh = ps_div(
        PowerSeries.one(sech.order),
        _even_kernel(Kernel.SINH_OVER_ARG, 1, order),
    )
    sech2 = ps_mul(sech, sech)
    sech3 = ps_mul(sech2, sech)
    resum = geometric_resum(sech2.scale(_HALF))
    printed = ps_mul(w_over_sinh, ps_mul(sech2, resum))
    recomputed = ps_mul(w_over_sinh, ps_mul(sech3.scale(_HALF), resum))
    # the four-sphere system, certified by the pair above: its free move
    target = _ground_truth_residual(
        (Walk.BESSEL_3D, (0, 1, 2, 3, 4))
    ).free(sech.order).prefix(sech.order)
    entries["four_sphere_chain_display"] = {
        "printed_residual": float(_sup(printed - target)),
        "recomputed_residual": str(_sup(recomputed - target)),
        "note": (
            "the printed resummed chain drops one secant factor and a "
            "factor 1/2; the recomputed form matches the closed form "
            "exactly, coefficient by coefficient"
        ),
    }

    # radial taboo prefactor: target/start versus the printed target/taboo,
    # on the three-sphere system's certified moves: the straight climb
    # H_0 up_1 up_2 and the one loop down_2 up_1 (its L_1 is the zero series)
    record3 = _ground_truth_residual((Walk.BESSEL_3D, (0, 1, 2, 3)))
    fwd, (_, loop) = record3.renewal(sech.order)
    fwd, loop = fwd.prefix(sech.order), loop.prefix(sech.order)
    direct3 = record3.free(sech.order).prefix(sech.order)
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
    printed = _SPECS[IdentityId.FOUR_GENERAL_1D]._replace(right=_printed_fg_right)
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
    import datetime  # its only user, so no other command loads it

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
