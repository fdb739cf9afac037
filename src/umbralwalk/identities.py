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
    sound identity keeps the full block structure (see
    `three_sites_block_term`).
  * FOUR_GENERAL_1D: the boxed statement's block list does not match
    the sech/sinh product it is read from; the engine evaluates the
    translation forced by that product, which the series ground truth
    confirms.
  * N4_UNIFORM: the stated form fails already at n = 1 (1/6 vs 1/3);
    the corrected form follows the recomputed chain.

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
from enum import Enum
from fractions import Fraction
from math import comb, gcd, isfinite, lcm
from typing import Callable, Iterator

from .loopcalc import (
    LevelSystem, PhiMove, Walk, decomposition_residual, direct_mgf, phi
)
from .polynomials import (
    ExactScalar,
    Poly,
    bernoulli_number,
    chebyshev_recip_weight_numerators,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from .series import (
    Kernel, PowerSeries, as_scalar, geometric_resum, kernel, ps_div, ps_mul
)
from .umbral import Family, UmbralExpr, moment_rows, umbral_moment

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_Weights = tuple[int, int, Iterator[int]]


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
    going if there is none.
    """

    tol: float = 1e-12
    stable_run: int = 4
    k_max: int = 512

    def __post_init__(self) -> None:
        # an infinite tol accepts every term, a nan tol none
        if (
            not isfinite(self.tol)
            or self.tol <= 0
            or self.stable_run < 2
            or self.k_max < 1
        ):
            raise InvalidParamsError(f"bad truncation policy: {self}")


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
            "lhs": str(self.lhs_exact),
            "rhs_partial": str(self.rhs_partial_exact),
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


def _top_block_lhs(params: IdentityParams, family: Family) -> Fraction:
    """Moment n of x + a + one `family` block of scale 2a (a: top level)."""
    a = params.levels[-1]
    expr = UmbralExpr.build((family, 2 * a, 1), constant=a)
    return eval_poly(umbral_moment(expr, params.n), params.x)


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
# u_k over C b^k (C, b fixed integers) and value(k) a polynomial of degree
# <= d in k: E_n^(p)(y) and B_n^(p)(y) have total degree n in (p, y)
# (Norlund), and the identities take p and y affine in k; a block moment
# is n! [w^n] of an exponential whose exponent is linear in the block
# orders and the constant, which are affine in the loop counts.
# value(k) comes as an unreduced integer pair (num, den), den > 0, and no
# `Fraction` is built per value: a hop-family value is one row of `_hop`
# (the family, the order o0 + o1 k, the point (a + c k) / q and an integer
# divisor) evaluated by `Poly.at` on integers.
# `_term_numerators` continues value(0..d) by integer differences over
# their common denominator D and gives term k as an integer t_k over
# den_k = C D b^k. It yields (t_k, m_k) with den_k = m_0 m_1 ... m_k, so a
# partial sum S / den takes term k as (S m_k + t_k) / (den m_k); past the
# head m_k = b.
#
# A block-level right side is given by a loop table: per block its family,
# coefficient and orders, and the constant, each as a vector whose dot
# product with the counts (1, k), or (1, l, k - l) for the four-site sum's
# two loops, gives term k's (or term (k, l)'s) value. Every order is thus
# a nonnegative combination of the loop counts, so the term's generating
# function is EGF_0 G^k (EGF_0 G_1^l G_2^(k-l)): `moment_rows` streams it
# from the start expression (counts (1, 0, ...)) and each loop's
# expression (a unit count), at one series product per loop count or
# lattice point, with every block kernel at power 1.

_Value = Callable[[int], tuple[int, int]]
# a level system as (walk, levels): the ground-truth memo's key
_SystemKey = tuple[Walk, tuple[ExactScalar, ...]]
_LoopTable = tuple[tuple[tuple[Family, Fraction, tuple[int, ...]], ...],
                   tuple[Fraction, ...]]


def _blocks_at(
    table: _LoopTable, counts: tuple[int, ...], has_x: bool = True
) -> UmbralExpr:
    """The block expression of a loop table at the given loop counts."""
    blocks, constants = table

    def dot(v):
        return sum(map(operator.mul, v, counts))

    return UmbralExpr.build(
        *((family, c, dot(orders)) for family, c, orders in blocks),
        constant=dot(constants),
        has_x=has_x,
    )


def _table_rows(table: _LoopTable, n: int) -> Iterator[list[Poly]]:
    """`moment_rows` of a loop table: its start, at counts (1, 0, ...),
    and its loops, each at one unit count and without x."""
    width = len(table[1])
    start, *loops = (
        _blocks_at(table, tuple(int(i == j) for j in range(width)), i == 0)
        for i in range(width)
    )
    return moment_rows(start, tuple(loops), n)


def _block_values(
    params: IdentityParams,
    table: Callable[..., _LoopTable],
    split: Fraction = _ZERO,
) -> _Value:
    """value(k) of a block-level right side, from one running product.

    value(k) is the mean at x of row k's moments (see `_table_rows`) of
    `table(*levels)` over l ~ Binomial(k, split); with one loop (split
    0) that is its one moment. Rows are drawn once, in order, and the
    values reached are kept, since `_term_numerators` may ask later for
    a value it put off.
    """
    rows = _table_rows(table(*params.levels), params.n)
    values: list[Fraction] = []

    def value(k: int) -> tuple[int, int]:
        for j, row in zip(range(len(values), k + 1), rows):
            values.append(sum(
                (comb(j, l) * split**l * (1 - split) ** (j - l)
                 * eval_poly(m, params.x) for l, m in enumerate(row)),
                _ZERO,
            ))
        return values[k].as_integer_ratio()

    return value


def _four_general_table(
    a1: Fraction, a2: Fraction, a3: Fraction
) -> _LoopTable:
    """Term (k, l) of the four-site block sum, over counts (1, l, k - l).

    Translated factor-by-factor from the two-loop chain product

      sech^(l+1)(a1 w) sinh^(l+1)((a2-a1) w) sinh^(k-l+1)(a1 w)
        sinh^(k-l)((a3-a2) w) / (sinh^(k+1)(a2 w) sinh^(k-l+1)((a3-a1) w)),

    whose powers of w cancel exactly, leaving the geometric weight
    q_{k,l} (see `four_general_term_blocks`) and affine block orders.
    """
    return (
        (Family.EULER, 2 * a1, (1, 1, 0)),
        (Family.UNIFORM, 2 * (a2 - a1), (1, 1, 0)),
        (Family.UNIFORM, 2 * a1, (1, 0, 1)),
        (Family.UNIFORM, 2 * (a3 - a2), (0, 0, 1)),
        (Family.BERNOULLI, 2 * a2, (1, 1, 1)),
        (Family.BERNOULLI, 2 * (a3 - a1), (1, 0, 1)),
    ), (a3, 2 * a1, 2 * (a2 - a1))


def _printed_fg_table(
    a1: Fraction, a2: Fraction, a3: Fraction
) -> _LoopTable:
    """The boxed statement's block list for (k, l), over (1, l, k - l)."""
    return (
        (Family.BERNOULLI, 2 * (a2 - a1), (1, 0, 0)),
        (Family.BERNOULLI, 2 * (a3 - a2), (1, 0, 0)),
        (Family.EULER, a1, (0, 1, 0)),
        (Family.UNIFORM, 2 * (a2 - a1), (0, 1, 0)),
        (Family.UNIFORM, 2 * a1, (0, 0, 1)),
        (Family.BERNOULLI, 2 * (a2 - a1), (0, 0, 1)),
    ), (a3 + a1, 2 * a1, 2 * a2 - a1)


def four_general_term_blocks(
    k: int, l: int, levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, UmbralExpr]:
    """Weight and block expression of the (k, l) term, four general sites
    (see `_four_general_table`)."""
    a1, a2, a3 = levels
    q = (
        comb(k, l)
        * (a2 - a1) ** (l + 1)
        * a1 ** (k - l + 1)
        * (a3 - a2) ** (k - l)
        / (a2 ** (k + 1) * (a3 - a1) ** (k - l + 1))
    )
    return q, _blocks_at(_four_general_table(*levels), (1, l, k - l))


def _four_general_rates(
    levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, Fraction, Fraction]:
    """c0, alpha and beta, where q_{k,l} = c0 C(k,l) alpha^l beta^(k-l)."""
    a1, a2, a3 = levels
    alpha = (a2 - a1) / a2
    beta = a1 * (a3 - a2) / (a2 * (a3 - a1))
    c0 = a1 * (a2 - a1) / (a2 * (a3 - a1))
    return c0, alpha, beta


def _four_general_values(
    params: IdentityParams, table: Callable = _four_general_table
) -> _Value:
    """The block sum over l of term k, divided by c0 (alpha + beta)^k.

    That quotient is the mean of the moment, a polynomial of total degree
    <= n in (l, k-l), over l ~ Binomial(k, alpha/(alpha+beta)); the mean
    of l^(a) (k-l)^(b) is a multiple of k^(a+b), so the quotient is a
    polynomial of degree <= n in k.
    """
    _, alpha, beta = _four_general_rates(params.levels)
    return _block_values(params, table, alpha / (alpha + beta))


def _four_general_weights(params: IdentityParams) -> _Weights:
    c0, alpha, beta = _four_general_rates(params.levels)
    return _geometric(c0, alpha + beta)


def _n3_general_table(
    a1: Fraction, a2: Fraction, a3: Fraction
) -> _LoopTable:
    """Term k of the three-sphere block sum, over counts (1, k)."""
    return (
        (Family.UNIFORM, 2 * (a2 - a1), (1, 0)),
        (Family.UNIFORM, 2 * (a3 - a2), (0, 1)),
        (Family.UNIFORM, 2 * a1, (0, 1)),
        (Family.BERNOULLI, 2 * (a3 - a1), (1, 1)),
        (Family.BERNOULLI, 2 * a2, (1, 1)),
    ), (a3, 2 * (a2 - a1))


def n3_general_term_blocks(
    k: int, levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, UmbralExpr]:
    """Weight and block expression of the k-th term, three spheres."""
    a1, a2, a3 = levels
    r_k = (
        a3
        * (a2 - a1)
        * (a3 - a2) ** k
        * a1**k
        / ((a3 - a1) ** (k + 1) * a2 ** (k + 1))
    )
    return r_k, _blocks_at(_n3_general_table(*levels), (1, k))


def _three_sites_table(a1: Fraction, a2: Fraction) -> _LoopTable:
    """Term k of the sound three-site block sum, over counts (1, k)."""
    return (
        (Family.UNIFORM, 2 * a1, (1, 0)),
        (Family.UNIFORM, 2 * (a2 - a1), (0, 1)),
        (Family.BERNOULLI, 2 * a2, (1, 1)),
        (Family.EULER, 2 * a1, (1, 1)),
    ), (a2, 2 * a1)


def three_sites_block_term(
    k: int, n: int, x: Fraction, levels: tuple[Fraction, Fraction]
) -> ExactScalar:
    """k-th term of the sound three-site moment identity, block form.

    This is the direct translation of the one-loop chain term, with
    weight p_k = (a1/a2) (1 - a1/a2)^k; its sum equals
    (x + 2*a2*E + a2)^n exactly. It is what the printed
    geometric-Bernoulli right side would need to reduce to, and is kept
    as the engine's ground truth for the three-site errata.
    """
    a1, a2 = levels
    p_k = (a1 / a2) * (1 - a1 / a2) ** k
    expr = _blocks_at(_three_sites_table(*levels), (1, k))
    return p_k * eval_poly(umbral_moment(expr, n), x)


def _three_sites_block_weights(params: IdentityParams) -> _Weights:
    a1, a2 = params.levels
    return _geometric(a1 / a2, 1 - a1 / a2)


def _geometric(c: Fraction, r: Fraction) -> _Weights:
    """The weights c r^k as c.num r.num^k over c.den r.den^k."""
    numerators = itertools.accumulate(
        itertools.repeat(r.numerator), operator.mul, initial=c.numerator
    )
    return c.denominator, r.denominator, numerators


def _three_sites_weights(params: IdentityParams) -> _Weights:
    (a1, a2), n = params.levels, params.n
    prefactor = (n + 1) * (1 - 2 * a1 / a2) * (2 * a1 / a2) ** n
    return _geometric(prefactor * (a1 / a2), 1 - a1 / a2)


# family, degree n, order (o0, o1), point (y0, dy), integer divisor s
_HopRow = tuple[Callable[[int, int], Poly], int, tuple[int, int],
                tuple[Fraction | int, Fraction | int], int]


def _hop(
    row: Callable[[IdentityParams], _HopRow]
) -> Callable[[IdentityParams], _Value]:
    """The values of a hop-family right side, read from its row.

    value(k) is family(n, o0 + o1 k) at the point y0 + k dy, divided by
    s. Over the one integer q = lcm of the denominators of y0 and dy the
    point is (a + c k) / q, so each value is one integer Horner loop.
    """

    def values(params: IdentityParams) -> _Value:
        family, n, (o0, o1), (y0, dy), s = row(params)
        (a, qa), (c, qc) = y0.as_integer_ratio(), dy.as_integer_ratio()
        q = lcm(qa, qc)
        a, c = a * (q // qa), c * (q // qc)

        def value(k: int) -> tuple[int, int]:
            num, den = family(n, o0 + o1 * k).at(a + c * k, q)
            return num, den * s

        return value

    return values


def _n3_general_weights(params: IdentityParams) -> _Weights:
    a1, a2, a3 = params.levels
    base = (a3 - a1) * a2
    return _geometric(a3 * (a2 - a1) / base, (a3 - a2) * a1 / base)


def _even_bernoulli_weights(params: IdentityParams) -> _Weights:
    m = params.m
    pref = Fraction(m) / ((1 - Fraction(2) ** (1 - 2 * m)) * (3 ** (2 * m) - 1))
    return _geometric(pref, Fraction(1, 4))


# -- the spec table ----------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """One identity: catalog text, left side, right side, ground truth.

    Term k of the right side is u_k / (C b^k) * value(k) with
    (C, b, u) = weights(params) and value = values(params), of degree
    <= degree(params) in k and given as an integer pair (num, den).
    An instance needs `level_count` levels and, by `positive_field`, an
    integer field >= 1 (and the phrase naming it in the error).
    """

    variant: str
    description: str
    reference: str
    lhs: Callable[[IdentityParams], ExactScalar]
    weights: Callable[[IdentityParams], _Weights]
    values: Callable[[IdentityParams], _Value]
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
    _three_sites_weights,
    _hop(lambda p: (
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
        lambda p: (1, *chebyshev_recip_weight_numerators(p.cheb_index)),
        _hop(lambda p: (
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
        lambda p: _geometric(Fraction(1, 4 * 3**p.n), Fraction(3, 4)),
        _hop(lambda p: (hop_euler, p.n, (3, 2), (3 * p.x, 1), 1)),
        system=lambda p: (Walk.REFLECTED_1D, (0, 1, 2, 3)),
    ),
    IdentityId.FOUR_GENERAL_1D: _Spec(
        "corrected",
        "degree-n moment identity for four arbitrary sites, evaluated "
        "at block level from the two-loop product",
        "four arbitrary sites on the half-line / reflected walk",
        lambda p: _top_block_lhs(p, Family.EULER),
        _four_general_weights,
        _four_general_values,
        system=lambda p: (Walk.REFLECTED_1D, (0, *p.levels)),
        level_count=3,
    ),
    IdentityId.N3_GENERAL: _Spec(
        "corrected",
        "Bernoulli moment expansion for three concentric spheres of "
        "arbitrary radii, evaluated at block level",
        "Thm 4.1 / three concentric spheres",
        lambda p: _top_block_lhs(p, Family.BERNOULLI),
        _n3_general_weights,
        lambda p: _block_values(p, _n3_general_table),
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
        lambda p: _geometric(Fraction(3, 4), Fraction(1, 4)),
        _hop(lambda p: (hop_euler, p.n, (2, 2), ((p.x + 3) / 2, 1), 1)),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3)),
    ),
    IdentityId.EVEN_BERNOULLI: _Spec(
        "stated",
        "even Bernoulli number as a convex combination of higher-order "
        "Euler polynomial values",
        "specialization of the three-sphere identity at x=0, odd degree",
        lambda p: bernoulli_number(2 * p.m),
        _even_bernoulli_weights,
        _hop(lambda p: (hop_euler, 2 * p.m - 1, (2, 2), (Fraction(3, 2), 1), 1)),
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
        lambda p: _geometric(Fraction(1, 3**p.n), Fraction(1, 2)),
        _hop(lambda p: (hop_euler, p.n, (2, 2), ((p.x + 3) / 2, 1), 1)),
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
        lambda p: _geometric(Fraction(2**p.n, 2), Fraction(1, 2)),
        _hop(lambda p: (hop_euler, p.n, (3, 2), ((p.x + 4) / 2, 1), 1)),
        system=lambda p: (Walk.BESSEL_3D, (0, 1, 2, 3, 4)),
    ),
}


def _term_numerators(
    spec: _Spec, params: IdentityParams
) -> Iterator[tuple[int, int]]:
    """Term k = 0, 1, 2, ... of a right side as integers (t_k, m_k).

    Term k is t_k / den_k with den_k = m_0 m_1 ... m_k = C D_k b^k, D_k
    a common denominator of the values reached, so a partial sum S / den
    takes the term as (S m_k + t_k) / (den m_k) without a division.
    Values 0..d are computed directly as integer pairs, each only when it
    is reached; a zero weight puts off its value (its term is 0 over the
    growth m_k alone). Later values continue through a backward-difference
    table of integer numerators over the common denominator D of all d + 1
    values: the first later term takes m = b D / D_d, every one after it
    m = b.
    """
    d = spec.degree(params)
    C, b, weights = spec.weights(params)
    value = spec.values(params)
    m, D = C, 1
    head: list[tuple[int, int] | None] = []
    for k in range(d + 1):
        u = next(weights)
        if u:
            num, den = v = value(k)
            grow = den // gcd(D, den)  # D grows to lcm(D, den)
            D *= grow
            head.append(v)
            yield u * num * (D // den), m * grow
        else:
            head.append(None)
            yield 0, m
        m = b
    head = [value(k) if v is None else v for k, v in enumerate(head)]
    D_all = lcm(*(den for _, den in head))
    row = [num * (D_all // den) for num, den in head]
    diffs = []  # top-first: diffs[-1 - j] is the j-th backward difference
    for _ in range(d + 1):
        diffs.insert(0, row[-1])
        row = [hi - lo for lo, hi in zip(row, row[1:])]
    m = b * (D_all // D)
    for u in weights:
        diffs = list(itertools.accumulate(diffs))
        yield u * diffs[-1], m
        m = b


def _terms(spec: _Spec, params: IdentityParams) -> Iterator[tuple[int, int]]:
    """Term k = 0, 1, 2, ... of a right side as (t_k, den_k)."""
    den = 1
    for t, m in _term_numerators(spec, params):
        den *= m
        yield t, den


def _partial(spec: _Spec, params: IdentityParams, K: int) -> Fraction:
    """Exact sum of the terms k = 0..K of a spec's right side."""
    S, den = 0, 1
    for t, m in itertools.islice(_term_numerators(spec, params), K + 1):
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


# Keyed by the plain (walk, levels) pair, so a hit builds no LevelSystem:
# a system is certified once, however many instances rest on it. Bounded,
# so a long run over many level sets keeps the 64 most recently used.
@functools.lru_cache(maxsize=64)
def _ground_truth_residual(key: _SystemKey) -> Fraction:
    return decomposition_residual(LevelSystem(*key), _GROUND_TRUTH_ORDER)


def ensure_ground_truth(identity: IdentityId, params: IdentityParams) -> None:
    """Require the underlying series decomposition to be exactly zero."""
    params = normalize_params(identity, params)
    _require_exact_decomposition(_SPECS[identity].system(params))


def _require_exact_decomposition(key: _SystemKey) -> None:
    residual = _ground_truth_residual(key)
    if residual != 0:
        raise EngineConsistencyError(
            f"series decomposition residual {residual} != 0 for "
            f"{LevelSystem(*key)}"
        )


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
    by which the common denominator grows, and the rule costs one float
    comparison per term until a run of `stable_run` small terms calls for
    the tail estimate (see `_sum_to_tolerance`). The level system's
    ground truth is certified at its first instance and looked up by its
    (walk, levels) key after that. Degenerate instances (uniformly spaced
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
    _require_exact_decomposition(spec.system(params))
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
    (t, m) of `_term_numerators` as S m + t over den m, with no division;
    a zero term's magnitude needs no integer division either.
    Each term costs one comparison: `run` counts the consecutive term
    magnitudes below threshold, and `window` keeps the last `stable_run`
    of them, read only once the run is long enough; `prev_nz` and
    `last_nz` are the last two nonzero magnitudes (0.0 while fewer were
    seen), whose ratio a window with one nonzero magnitude reads. A
    window of zero magnitudes compares the partial sum with the left
    side exactly. The residual is taken on the integers too (`_residual`).
    Raises OverflowError when a magnitude it compares or the residual
    exceeds the float range.
    """
    spec = _SPECS[identity]
    threshold = policy.tol * max(1.0, abs(float(lhs)))
    S, den = 0, 1  # the partial sum is S / den
    stable_run = policy.stable_run
    window: deque[float] = deque(maxlen=stable_run)
    append = window.append
    run = 0
    prev_nz = last_nz = 0.0
    converged = False
    K = -1
    terms = _term_numerators(spec, params)
    for k, (t, m) in zip(range(policy.k_max + 1), terms):
        S, den = S * m + t, den * m
        K = k
        # int true division rounds correctly, as float(Fraction(t, den))
        mag = abs(t) / den if t else 0.0
        append(mag)
        if mag:
            prev_nz, last_nz = last_nz, mag
        run = run + 1 if mag < threshold else 0
        if run < stable_run:
            continue
        nonzero = [v for v in window if v > 0.0]
        if not nonzero:
            # zero terms say nothing of the tail; only an exact sum ends here
            if S * lhs.denominator == lhs.numerator * den:
                converged = True
                break
            continue
        if len(nonzero) == 1:
            # its magnitude is last_nz; the ratio reaches back past the window
            if not prev_nz:
                continue
            ratio = last_nz / prev_nz
        else:
            ratio = max(b / a for a, b in zip(nonzero, nonzero[1:]))
        if ratio >= 1.0:
            continue
        ratio = min(ratio, 0.99)
        if nonzero[-1] * ratio / (1.0 - ratio) < threshold:
            converged = True
            break
    residual = _residual(lhs, S, den)
    if converged:
        status = Status.VERIFIED if residual < threshold else Status.RESIDUAL_NONZERO
    else:
        status = Status.NOT_CONVERGED
    return IdentityReport(
        identity, params, K, lhs, Fraction(S, den), residual, converged, status
    )


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
        weights=_three_sites_block_weights,
        values=lambda p: _block_values(p, _three_sites_table),
    )
    block_partial = _partial(blocks, n2, 95)
    lhs_block = _top_block_lhs(n2, Family.EULER)
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
    target = direct_mgf(
        LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3, 4)), order
    )
    entries["four_sphere_chain_display"] = {
        "printed_residual": float(_sup(printed - target)),
        "recomputed_residual": str(_sup(recomputed - target)),
        "note": (
            "the printed resummed chain drops one secant factor and a "
            "factor 1/2; the recomputed form matches the closed form "
            "exactly, coefficient by coefficient"
        ),
    }

    # radial taboo prefactor: target/start versus the printed target/taboo
    sys3 = LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3))
    fwd = ps_mul(
        phi(sys3, PhiMove(0, 1), order), phi(sys3, PhiMove(1, 2, 0), order)
    )
    fwd = ps_mul(fwd, phi(sys3, PhiMove(2, 3, 1), order))
    up = phi(sys3, PhiMove(1, 2, 0), order)
    down_ok = phi(sys3, PhiMove(2, 1, 3), order)
    # printed prefactor reads target/taboo = 1/3 instead of target/start = 1/2
    down_printed = down_ok.scale(Fraction(2, 3))
    direct3 = direct_mgf(sys3, order)
    chain_ok = ps_mul(fwd, geometric_resum(ps_mul(up, down_ok)))
    chain_printed = ps_mul(fwd, geometric_resum(ps_mul(up, down_printed)))
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
        values=lambda p: _four_general_values(p, _printed_fg_table),
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
