"""Catalog and verifier for the connection-coefficient identities.

Each identity equates an exact left-hand value with an infinite sum of
exact terms; `verify` accumulates exact partial sums, stops once the
tail is demonstrably below tolerance, and reports the residual. Nothing
is ever rounded before the final float conversion of the residual.

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
import itertools
import operator
import threading
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterator

from .loopcalc import (
    LevelSystem, PhiMove, Walk, decomposition_residual, direct_mgf, phi
)
from .polynomials import (
    ExactScalar,
    bernoulli_number,
    chebyshev_recip_weight_numerators,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from .series import (
    Kernel, PowerSeries, as_scalar, geometric_resum, kernel, ps_div, ps_mul
)
from .umbral import Family, UmbralExpr, umbral_moment

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
    """

    tol: float = 1e-12
    stable_run: int = 4
    k_max: int = 512

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.stable_run < 2 or self.k_max < 1:
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
        return VARIANTS[self.identity]

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


VARIANTS: dict[IdentityId, str] = {
    IdentityId.EULER_CHEB: "stated",
    IdentityId.THREE_SITES_1D_STATED: "stated",
    IdentityId.THREE_SITES_1D_CORRECTED: "corrected",
    IdentityId.FOUR_UNIFORM_1D: "stated",
    IdentityId.FOUR_GENERAL_1D: "corrected",
    IdentityId.N3_GENERAL: "corrected",
    IdentityId.N3_UNIFORM: "stated",
    IdentityId.EVEN_BERNOULLI: "stated",
    IdentityId.N4_UNIFORM_STATED: "stated",
    IdentityId.N4_UNIFORM_CORRECTED: "corrected",
}


@dataclass(frozen=True)
class CatalogEntry:
    identity: IdentityId
    variant: str
    description: str
    reference: str


def catalog() -> list[CatalogEntry]:
    """Static, exhaustive listing of the ten identities."""
    entries = [
        (
            IdentityId.EULER_CHEB,
            "E_n(x) as a positive combination of higher-order Euler "
            "polynomials with reciprocal-Chebyshev weights",
            "Euler polynomials via N-site transition weights",
        ),
        (
            IdentityId.THREE_SITES_1D_STATED,
            "Euler difference at degree n against geometric-weighted "
            "higher-order Bernoulli polynomials (three sites, as printed)",
            "three sites on the half-line / reflected walk",
        ),
        (
            IdentityId.THREE_SITES_1D_CORRECTED,
            "same right side with the smoothing step integrated to "
            "degree n+1 on the left; sound only for n <= 1 (see errata)",
            "three sites on the half-line / reflected walk",
        ),
        (
            IdentityId.FOUR_UNIFORM_1D,
            "E_n(x) as a combination of E_n^(2k+3)(3x+k) over loop counts",
            "four uniform sites on the half-line / reflected walk",
        ),
        (
            IdentityId.FOUR_GENERAL_1D,
            "degree-n moment identity for four arbitrary sites, evaluated "
            "at block level from the two-loop product",
            "four arbitrary sites on the half-line / reflected walk",
        ),
        (
            IdentityId.N3_GENERAL,
            "Bernoulli moment expansion for three concentric spheres of "
            "arbitrary radii, evaluated at block level",
            "Thm 4.1 / three concentric spheres",
        ),
        (
            IdentityId.N3_UNIFORM,
            "Bernoulli difference at degree n+1 against quarter-geometric "
            "higher-order Euler polynomials (radii 1,2,3)",
            "three concentric spheres of radii 1,2,3",
        ),
        (
            IdentityId.EVEN_BERNOULLI,
            "even Bernoulli number as a convex combination of higher-order "
            "Euler polynomial values",
            "specialization of the three-sphere identity at x=0, odd degree",
        ),
        (
            IdentityId.N4_UNIFORM_STATED,
            "Bernoulli value B_n((x+4)/6) against half-geometric Euler "
            "polynomials of order 2k+2 (as printed; fails at n=1)",
            "four concentric spheres of radii 1..4",
        ),
        (
            IdentityId.N4_UNIFORM_CORRECTED,
            "Bernoulli difference at degree n+1 against half-geometric "
            "Euler polynomials of order 2k+3 from the recomputed chain",
            "four concentric spheres of radii 1..4",
        ),
    ]
    return [
        CatalogEntry(i, VARIANTS[i], desc, ref) for i, desc, ref in entries
    ]


# -- parameter validation --------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParamsError(msg)


def _levels(params: IdentityParams, count: int) -> tuple[Fraction, ...]:
    _require(
        params.levels is not None and len(params.levels) == count,
        f"identity needs exactly {count} levels, got {params.levels}",
    )
    lv = params.levels
    _require(all(v > 0 for v in lv), f"levels must be positive: {lv}")
    _require(
        all(a < b for a, b in zip(lv, lv[1:])),
        f"levels must strictly increase: {lv}",
    )
    return lv


def validate_params(identity: IdentityId, params: IdentityParams) -> None:
    _require(params.n >= 0, f"degree must be nonnegative, got {params.n}")
    if identity is IdentityId.EULER_CHEB:
        _require(
            params.cheb_index is not None and params.cheb_index >= 1,
            f"EULER_CHEB needs a Chebyshev index >= 1, got {params.cheb_index}",
        )
    elif identity in (
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
    ):
        _levels(params, 2)
    elif identity in (IdentityId.FOUR_GENERAL_1D, IdentityId.N3_GENERAL):
        _levels(params, 3)
    elif identity is IdentityId.EVEN_BERNOULLI:
        _require(
            params.m is not None and params.m >= 1,
            f"EVEN_BERNOULLI needs half-degree m >= 1, got {params.m}",
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


def eval_lhs(identity: IdentityId, params: IdentityParams) -> ExactScalar:
    params = normalize_params(identity, params)
    n, x = params.n, params.x
    if identity is IdentityId.EULER_CHEB:
        return _euler_at(n, x)
    if identity is IdentityId.THREE_SITES_1D_STATED:
        a1, a2 = params.levels
        u = x / (2 * a2)
        return _euler_at(n, u + Fraction(3, 2) - 2 * a1 / a2) - _euler_at(
            n, u + _HALF
        )
    if identity is IdentityId.THREE_SITES_1D_CORRECTED:
        a1, a2 = params.levels
        u = x / (2 * a2)
        return _euler_at(
            n + 1, u + Fraction(3, 2) - 2 * a1 / a2
        ) - _euler_at(n + 1, u + _HALF)
    if identity is IdentityId.FOUR_UNIFORM_1D:
        return _euler_at(n, x)
    if identity is IdentityId.FOUR_GENERAL_1D:
        a3 = params.levels[2]
        expr = UmbralExpr.build((Family.EULER, 2 * a3, 1), constant=a3)
        return eval_poly(umbral_moment(expr, n), x)
    if identity is IdentityId.N3_GENERAL:
        a3 = params.levels[2]
        expr = UmbralExpr.build((Family.BERNOULLI, 2 * a3, 1), constant=a3)
        return eval_poly(umbral_moment(expr, n), x)
    if identity is IdentityId.N3_UNIFORM:
        return (
            Fraction(3) ** (n + 1)
            / (n + 1)
            * (
                _bernoulli_at(n + 1, x / 6 + Fraction(5, 6))
                - _bernoulli_at(n + 1, x / 6 + _HALF)
            )
        )
    if identity is IdentityId.EVEN_BERNOULLI:
        return bernoulli_number(2 * params.m)
    if identity is IdentityId.N4_UNIFORM_STATED:
        return _bernoulli_at(n, (x + 4) / 6)
    if identity is IdentityId.N4_UNIFORM_CORRECTED:
        return (
            4
            * Fraction(8) ** n
            / (n + 1)
            * (
                _bernoulli_at(n + 1, (x + 6) / 8)
                - _bernoulli_at(n + 1, (x + 4) / 8)
            )
        )
    raise InvalidParamsError(f"unknown identity {identity!r}")


# -- right-hand side terms -------------------------------------------------
#
# Term k of every right side is weight(k) * value(k), the weight an integer
# u_k over C b^k (C, b fixed integers) and value(k) a polynomial of degree
# <= d in k: E_n^(p)(y) and B_n^(p)(y) have total degree n in (p, y)
# (Norlund), and the identities take p and y affine in k; a block moment
# is n! [w^n] of an exponential whose exponent is linear in the block
# orders and the constant, which are affine in the loop counts.
# `_term_numerators` therefore continues value(0..d) by integer differences
# over their common denominator D and gives term k as an integer over C D b^k.


def four_general_term_blocks(
    k: int, l: int, levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, UmbralExpr]:
    """Weight and block expression of the (k, l) term, four general sites.

    Translated factor-by-factor from the two-loop chain product

      sech^(l+1)(a1 w) sinh^(l+1)((a2-a1) w) sinh^(k-l+1)(a1 w)
        sinh^(k-l)((a3-a2) w) / (sinh^(k+1)(a2 w) sinh^(k-l+1)((a3-a1) w)),

    whose powers of w cancel exactly, leaving the geometric weight
    q_{k,l} and an affine block expression.
    """
    a1, a2, a3 = levels
    q = (
        comb(k, l)
        * (a2 - a1) ** (l + 1)
        * a1 ** (k - l + 1)
        * (a3 - a2) ** (k - l)
        / (a2 ** (k + 1) * (a3 - a1) ** (k - l + 1))
    )
    const = a3 + 2 * (k - l) * a2 + 2 * (2 * l - k) * a1
    expr = UmbralExpr.build(
        (Family.EULER, 2 * a1, l + 1),
        (Family.UNIFORM, 2 * (a2 - a1), l + 1),
        (Family.UNIFORM, 2 * a1, k - l + 1),
        (Family.UNIFORM, 2 * (a3 - a2), k - l),
        (Family.BERNOULLI, 2 * a2, k + 1),
        (Family.BERNOULLI, 2 * (a3 - a1), k - l + 1),
        constant=const,
    )
    return q, expr


def _printed_fg_blocks(
    k: int, l: int, levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, UmbralExpr]:
    """The boxed statement's block list for (k, l), with the same q_{k,l}."""
    a1, a2, a3 = levels
    expr = UmbralExpr.build(
        (Family.BERNOULLI, 2 * (a2 - a1), 1),
        (Family.BERNOULLI, 2 * (a3 - a2), 1),
        (Family.EULER, a1, l),
        (Family.UNIFORM, 2 * (a2 - a1), l),
        (Family.UNIFORM, 2 * a1, k - l),
        (Family.BERNOULLI, 2 * (a2 - a1), k - l),
        constant=a3 + (2 * k - 2 * l) * a2 + (3 * l - k + 1) * a1,
    )
    return four_general_term_blocks(k, l, levels)[0], expr


def _four_general_ratio(
    levels: tuple[Fraction, Fraction, Fraction]
) -> tuple[Fraction, Fraction]:
    """c0 and alpha + beta, where q_{k,l} = c0 C(k,l) alpha^l beta^(k-l)."""
    a1, a2, a3 = levels
    alpha = (a2 - a1) / a2
    beta = a1 * (a3 - a2) / (a2 * (a3 - a1))
    c0 = a1 * (a2 - a1) / (a2 * (a3 - a1))
    return c0, alpha + beta


def _four_general_value(
    params: IdentityParams, k: int, blocks: Callable = four_general_term_blocks
) -> Fraction:
    """The block sum over l of term k, divided by c0 (alpha + beta)^k.

    That quotient is the mean of the moment, a polynomial of total degree
    <= n in (l, k-l), over l ~ Binomial(k, alpha/(alpha+beta)); the mean
    of l^(a) (k-l)^(b) is a multiple of k^(a+b), so the quotient is a
    polynomial of degree <= n in k. `blocks(k, l, levels)` gives q_{k,l}
    and the (k, l) block expression.
    """
    total = _ZERO
    for l in range(k + 1):
        q, expr = blocks(k, l, params.levels)
        total += q * eval_poly(umbral_moment(expr, params.n), params.x)
    c0, ratio = _four_general_ratio(params.levels)
    return total / (c0 * ratio**k)


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
    s_k = a3 + 2 * k * a2 - 2 * k * a1
    expr = UmbralExpr.build(
        (Family.UNIFORM, 2 * (a2 - a1), 1),
        (Family.UNIFORM, 2 * (a3 - a2), k),
        (Family.UNIFORM, 2 * a1, k),
        (Family.BERNOULLI, 2 * (a3 - a1), k + 1),
        (Family.BERNOULLI, 2 * a2, k + 1),
        constant=s_k,
    )
    return r_k, expr


def three_sites_block_term(
    k: int, n: int, x: Fraction, levels: tuple[Fraction, Fraction]
) -> ExactScalar:
    """k-th term of the sound three-site moment identity, block form.

    This is the direct translation of the one-loop chain term; its sum
    equals (x + 2*a2*E + a2)^n exactly. It is what the printed
    geometric-Bernoulli right side would need to reduce to, and is kept
    as the engine's ground truth for the three-site errata.
    """
    a1, a2 = levels
    p_k = (a1 / a2) * (1 - a1 / a2) ** k
    expr = UmbralExpr.build(
        (Family.UNIFORM, 2 * a1, 1),
        (Family.UNIFORM, 2 * (a2 - a1), k),
        (Family.BERNOULLI, 2 * a2, k + 1),
        (Family.EULER, 2 * a1, k + 1),
        constant=a2 + 2 * a1 * k,
    )
    return p_k * eval_poly(umbral_moment(expr, n), x)


@dataclass(frozen=True)
class _TermPlan:
    """How one identity's right side is summed.

    Term k is u_k / (C b^k) * value(params, k) with (C, b, u) =
    weights(params); value has degree <= degree(params) in k.
    """

    degree: Callable[[IdentityParams], int]
    weights: Callable[[IdentityParams], _Weights]
    value: Callable[[IdentityParams, int], Fraction]


def _geometric(c: Fraction, r: Fraction) -> _Weights:
    """The weights c r^k as c.num r.num^k over c.den r.den^k."""
    numerators = itertools.accumulate(
        itertools.repeat(r.numerator), operator.mul, initial=c.numerator
    )
    return c.denominator, r.denominator, numerators


def _degree_n(params: IdentityParams) -> int:
    return params.n


def _euler_cheb_value(params: IdentityParams, k: int) -> Fraction:
    N = params.cheb_index
    arg = Fraction(k - N, 2) + N * params.x
    return eval_poly(hop_euler(params.n, k), arg) / Fraction(N) ** params.n


def _three_sites_weights(params: IdentityParams) -> _Weights:
    (a1, a2), n = params.levels, params.n
    prefactor = (n + 1) * (1 - 2 * a1 / a2) * (2 * a1 / a2) ** n
    return _geometric(prefactor * (a1 / a2), 1 - a1 / a2)


def _three_sites_value(params: IdentityParams, k: int) -> Fraction:
    a1, a2 = params.levels
    arg = params.x / (4 * a1) + a2 / (4 * a1) + Fraction(k, 2)
    return eval_poly(hop_bernoulli(params.n, k + 1), arg)


def _n3_general_weights(params: IdentityParams) -> _Weights:
    a1, a2, a3 = params.levels
    base = (a3 - a1) * a2
    return _geometric(a3 * (a2 - a1) / base, (a3 - a2) * a1 / base)


def _even_bernoulli_weights(params: IdentityParams) -> _Weights:
    m = params.m
    pref = Fraction(m) / ((1 - Fraction(2) ** (1 - 2 * m)) * (3 ** (2 * m) - 1))
    return _geometric(pref, Fraction(1, 4))


_THREE_SITES_PLAN = _TermPlan(
    _degree_n, _three_sites_weights, _three_sites_value
)

_PLANS: dict[IdentityId, _TermPlan] = {
    IdentityId.EULER_CHEB: _TermPlan(
        _degree_n,
        lambda p: (1, *chebyshev_recip_weight_numerators(p.cheb_index)),
        _euler_cheb_value,
    ),
    IdentityId.THREE_SITES_1D_STATED: _THREE_SITES_PLAN,
    IdentityId.THREE_SITES_1D_CORRECTED: _THREE_SITES_PLAN,
    IdentityId.FOUR_UNIFORM_1D: _TermPlan(
        _degree_n,
        lambda p: _geometric(Fraction(1, 4 * 3**p.n), Fraction(3, 4)),
        lambda p, k: eval_poly(hop_euler(p.n, 2 * k + 3), 3 * p.x + k),
    ),
    IdentityId.FOUR_GENERAL_1D: _TermPlan(
        _degree_n,
        lambda p: _geometric(*_four_general_ratio(p.levels)),
        _four_general_value,
    ),
    IdentityId.N3_GENERAL: _TermPlan(
        _degree_n,
        _n3_general_weights,
        lambda p, k: eval_poly(
            umbral_moment(n3_general_term_blocks(k, p.levels)[1], p.n), p.x
        ),
    ),
    IdentityId.N3_UNIFORM: _TermPlan(
        _degree_n,
        lambda p: _geometric(Fraction(3, 4), Fraction(1, 4)),
        lambda p, k: eval_poly(
            hop_euler(p.n, 2 * k + 2), Fraction(p.x + 3 + 2 * k, 2)
        ),
    ),
    IdentityId.EVEN_BERNOULLI: _TermPlan(
        lambda p: 2 * p.m - 1,
        _even_bernoulli_weights,
        lambda p, k: eval_poly(
            hop_euler(2 * p.m - 1, 2 * k + 2), k + Fraction(3, 2)
        ),
    ),
    IdentityId.N4_UNIFORM_STATED: _TermPlan(
        _degree_n,
        lambda p: _geometric(Fraction(1, 3**p.n), Fraction(1, 2)),
        lambda p, k: eval_poly(
            hop_euler(p.n, 2 * k + 2), Fraction(p.x + 2 * k + 3, 2)
        ),
    ),
    IdentityId.N4_UNIFORM_CORRECTED: _TermPlan(
        _degree_n,
        lambda p: _geometric(Fraction(2**p.n, 2), Fraction(1, 2)),
        lambda p, k: eval_poly(
            hop_euler(p.n, 2 * k + 3), Fraction(p.x + 2 * k + 4, 2)
        ),
    ),
}


def _term_numerators(
    plan: _TermPlan, params: IdentityParams
) -> Iterator[tuple[int, int]]:
    """Term k = 0, 1, 2, ... of a right side as integers (t_k, C D b^k).

    Terms 0..d are computed directly, each only when it is reached, over
    the common denominator D of the values so far; a zero weight puts off
    its value. Later values continue through a backward-difference table
    of integer numerators over D. Each denominator divides the next.
    """
    d = plan.degree(params)
    C, b, weights = plan.weights(params)
    scale, D = C, 1  # scale is C b^k
    head: list[Fraction | None] = []
    for k in range(d + 1):
        u = next(weights)
        v = plan.value(params, k) if u else _ZERO
        head.append(v if u else None)
        D = lcm(D, v.denominator)
        yield u * v.numerator * (D // v.denominator), scale * D
        scale *= b
    head = [
        plan.value(params, k) if v is None else v for k, v in enumerate(head)
    ]
    D = lcm(*(v.denominator for v in head))
    row = [v.numerator * (D // v.denominator) for v in head]
    diffs = []  # diffs[j]: j-th backward difference of the numerators at d
    for _ in range(d + 1):
        diffs.append(row[-1])
        row = [hi - lo for lo, hi in zip(row, row[1:])]
    den = scale * D
    for u in weights:
        for j in range(d - 1, -1, -1):
            diffs[j] += diffs[j + 1]
        yield u * diffs[0], den
        den *= b


def rhs_term(
    identity: IdentityId, params: IdentityParams, k: int
) -> ExactScalar:
    """Exact k-th addend of the right-hand side."""
    return next(itertools.islice(rhs_terms(identity, params), k, None))


def rhs_terms(
    identity: IdentityId, params: IdentityParams
) -> Iterator[ExactScalar]:
    """The exact addends k = 0, 1, 2, ... of the right side, unending."""
    params = normalize_params(identity, params)
    for t, den in _term_numerators(_PLANS[IdentityId(identity)], params):
        yield Fraction(t, den)


def eval_rhs_partial(
    identity: IdentityId, params: IdentityParams, K: int
) -> ExactScalar:
    """Exact partial sum of the right side through index K inclusive."""
    if K < 0:
        raise InvalidParamsError(f"partial-sum bound must be >= 0, got {K}")
    return sum(itertools.islice(rhs_terms(identity, params), K + 1), _ZERO)


# -- ground truth: the series decomposition behind each identity -----------

_GROUND_TRUTH_ORDER = 30
_GROUND_TRUTH_CACHE: dict[tuple[Walk, tuple[Fraction, ...]], Fraction] = {}
_GROUND_TRUTH_LOCK = threading.Lock()


class EngineConsistencyError(AssertionError):
    """The w-series decomposition behind an identity failed to be exact."""


def ground_truth_system(
    identity: IdentityId, params: IdentityParams
) -> LevelSystem | None:
    """Level system whose exact series factorization underlies the identity."""
    if identity in (
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
        IdentityId.FOUR_GENERAL_1D,
    ):
        return LevelSystem(Walk.REFLECTED_1D, (_ZERO,) + params.levels)
    if identity is IdentityId.FOUR_UNIFORM_1D:
        return LevelSystem(Walk.REFLECTED_1D, (0, 1, 2, 3))
    if identity is IdentityId.N3_GENERAL:
        return LevelSystem(Walk.BESSEL_3D, (_ZERO,) + params.levels)
    if identity in (IdentityId.N3_UNIFORM, IdentityId.EVEN_BERNOULLI):
        return LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3))
    if identity in (
        IdentityId.N4_UNIFORM_STATED,
        IdentityId.N4_UNIFORM_CORRECTED,
    ):
        return LevelSystem(Walk.BESSEL_3D, (0, 1, 2, 3, 4))
    return None


def ensure_ground_truth(
    identity: IdentityId, params: IdentityParams
) -> None:
    """Require the underlying series decomposition to be exactly zero."""
    system = ground_truth_system(identity, params)
    if system is None:
        return
    key = (system.walk, system.levels)
    with _GROUND_TRUTH_LOCK:
        residual = _GROUND_TRUTH_CACHE.get(key)
    if residual is None:
        residual = decomposition_residual(system, _GROUND_TRUTH_ORDER)
        with _GROUND_TRUTH_LOCK:
            _GROUND_TRUTH_CACHE[key] = residual
    if residual != 0:
        raise EngineConsistencyError(
            f"series decomposition residual {residual} != 0 for {system}"
        )


# -- verification loop ------------------------------------------------------


def _is_degenerate(identity: IdentityId, params: IdentityParams) -> bool:
    if identity in (
        IdentityId.THREE_SITES_1D_STATED,
        IdentityId.THREE_SITES_1D_CORRECTED,
    ):
        a1, a2 = params.levels
        return a2 == 2 * a1
    return False


def verify(
    identity: IdentityId,
    params: IdentityParams,
    policy: TruncationPolicy | None = None,
) -> IdentityReport:
    """Accumulate the right side until tail control triggers; report.

    The threshold is tol * max(1, |lhs|). Convergence requires the last
    `stable_run` term magnitudes below threshold plus a geometric tail
    estimate below threshold, and (to survive leading runs of zero
    terms) either a nonzero term seen earlier or an exact match of the
    partial sum with the left side. Uniformly spaced three-site systems
    short-circuit to DEGENERATE_TRIVIAL without summing.
    """
    identity = IdentityId(identity)
    policy = policy or TruncationPolicy()
    params = normalize_params(identity, params)
    lhs = eval_lhs(identity, params)
    if _is_degenerate(identity, params):
        return IdentityReport(
            identity, params, -1, lhs, _ZERO, 0.0, True, Status.DEGENERATE_TRIVIAL
        )
    ensure_ground_truth(identity, params)
    threshold = policy.tol * max(1.0, abs(float(lhs)))
    S, den = 0, 1  # the partial sum is S / den
    mags: list[float] = []
    seen_nonzero = False
    converged = False
    K = -1
    terms = _term_numerators(_PLANS[identity], params)
    for k, (t, t_den) in zip(range(policy.k_max + 1), terms):
        S, den = S * (t_den // den) + t, t_den
        K = k
        # int true division rounds correctly, as float(Fraction(t, den))
        mags.append(abs(t) / den)
        if t:
            seen_nonzero = True
        if k + 1 < policy.stable_run:
            continue
        window = mags[-policy.stable_run :]
        if not all(m < threshold for m in window):
            continue
        if not (seen_nonzero or S * lhs.denominator == lhs.numerator * den):
            continue
        nonzero = [m for m in window if m > 0.0]
        if not nonzero:
            converged = True
            break
        ratios = [b / a for a, b in zip(nonzero, nonzero[1:]) if a > 0.0]
        ratio = min(max(ratios, default=0.0), 0.99)
        if nonzero[-1] * ratio / (1.0 - ratio) < threshold:
            converged = True
            break
    partial = Fraction(S, den)
    residual = abs(float(lhs - partial))
    if converged:
        status = Status.VERIFIED if residual < threshold else Status.RESIDUAL_NONZERO
    else:
        status = Status.NOT_CONVERGED
    return IdentityReport(
        identity, params, K, lhs, partial, residual, converged, status
    )


def term_magnitudes(
    identity: IdentityId, params: IdentityParams, k_lo: int, k_hi: int
) -> list[float]:
    """Float magnitudes of the terms over an index range (inclusive)."""
    terms = itertools.islice(rhs_terms(identity, params), k_lo, k_hi + 1)
    return [abs(float(t)) for t in terms]


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
    policy = policy or TruncationPolicy()
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
    # sum translated directly from the chain is the value that matches
    n2 = IdentityParams(n=2, x=_ZERO, levels=(1, 3))
    block_partial = sum(
        (three_sites_block_term(k, 2, _ZERO, (Fraction(1), Fraction(3)))
         for k in range(96)),
        _ZERO,
    )
    block_expr = UmbralExpr.build((Family.EULER, 6, 1), constant=3)
    lhs_block = eval_poly(umbral_moment(block_expr, 2), _ZERO)
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
        _PLANS[IdentityId.FOUR_GENERAL_1D],
        value=lambda p, k: _four_general_value(p, k, _printed_fg_blocks),
    )
    terms = itertools.islice(_term_numerators(printed, fg), 81)
    printed_partial = sum(itertools.starmap(Fraction, terms), _ZERO)
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
    policy = policy or TruncationPolicy()
    reports = []
    all_ok = True
    for identity, params in expected_verified_cases():
        rep = verify(identity, params, policy)
        ok = rep.status is Status.VERIFIED
        all_ok = all_ok and ok
        reports.append(rep.to_json() | {"expected": "VERIFIED", "pass": ok})
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
        all_ok = all_ok and ok
        audits.append(
            rep.to_json()
            | {
                "expected": "RESIDUAL_NONZERO",
                "expected_lhs": str(case.expected_lhs),
                "expected_rhs_limit": str(case.expected_rhs_limit),
                "pass": ok,
            }
        )
    discrepancies = []
    for identity, params in known_discrepancy_cases():
        rep = verify(identity, params, policy)
        ok = rep.status is Status.RESIDUAL_NONZERO
        all_ok = all_ok and ok
        discrepancies.append(
            rep.to_json() | {"expected": "RESIDUAL_NONZERO", "pass": ok}
        )
    degenerate = verify(
        IdentityId.THREE_SITES_1D_STATED,
        IdentityParams(n=1, x=Fraction(7), levels=(1, 2)),
        policy,
    )
    ok = degenerate.status is Status.DEGENERATE_TRIVIAL
    all_ok = all_ok and ok

    def sort_key(item: dict):
        return (item["identity"], item.get("N") or 0, item["n"], item["x"],
                tuple(item["levels"]))

    reports.sort(key=sort_key)
    audits.sort(key=sort_key)
    discrepancies.sort(key=sort_key)
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
