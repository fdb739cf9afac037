"""Moment symbols and their exact evaluation.

A symbol block stands for a sum of independent copies of one of three
moment letters: the Bernoulli letter (powers evaluate to Bernoulli
numbers), the Euler letter (powers evaluate to E_n(0)), and the uniform
letter (powers evaluate to 1/(n+1)). An expression is an affine
combination

    x + sum_j c_j * S_j^(p_j) + d

with pairwise-independent blocks, and its n-th moment is the exact
polynomial in x obtained from the product of the blocks' exponential
generating kernels:

    moment_n = n! [w^n] e^(dw) * prod_j kernel_j(c_j w)^(p_j) * e^(xw).

The exponential e^(dw) is built directly from d^j / j!; the block
kernels' powers come from the shared kernel-power memo. Independent
copies multiply generating functions, so the moments of a start
expression plus k copies of a loop expression form one running product,
EGF_0 * G^k with G the loop's series at power 1: `moment_rows` streams
them at one series product per loop count (per lattice point, for two
kinds of loop), where a one-shot `umbral_moment` per k would rebuild
every block from its order-k kernel power.

Two rewrite rules are supported, both moment-preserving:
  * a Bernoulli block of coefficient 2c splits into independent
    Bernoulli and Euler blocks of coefficient c (same order);
  * a Bernoulli block and a uniform block with equal coefficient and
    equal order cancel.

The letters also admit probability densities on a vertical line in the
complex plane; `density_moment` evaluates the corresponding integral
numerically as an independent floating-point cross-check of the exact
polynomial values. It is this module's only numpy user and imports numpy
at its first call, so the exact evaluation starts without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, gcd
from typing import Iterator

from .polynomials import Poly, appell_polynomial, poly_from_numerators
from .series import (
    Kernel, as_scalar, convolve, kernel, kernel_power_numerators
)

_ZERO = Fraction(0)


class Family(str, Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    UNIFORM = "uniform"


_FAMILY_KERNEL = {
    Family.BERNOULLI: Kernel.BERNOULLI,
    Family.EULER: Kernel.EULER,
    Family.UNIFORM: Kernel.UNIFORM,
}

_FAMILY_LETTER = {Family.BERNOULLI: "B", Family.EULER: "E", Family.UNIFORM: "U"}


@dataclass(frozen=True)
class SymbolBlock:
    """One independent block: coefficient * Family^(order), tagged copy_id."""

    family: Family
    coefficient: Fraction
    order: int
    copy_id: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", as_scalar(self.coefficient))
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"block order must be >= 1, got {self.order!r}")


@dataclass(frozen=True)
class UmbralExpr:
    """Affine expression x + sum of blocks + constant.

    Every copy_id must be distinct: a letter copy appears in at most one
    block, which is what makes the product-of-kernels evaluation valid.
    """

    blocks: tuple[SymbolBlock, ...] = ()
    constant: Fraction = _ZERO
    has_x: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", as_scalar(self.constant))
        ids = [b.copy_id for b in self.blocks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"copy_ids must be pairwise distinct, got {ids}")

    @staticmethod
    def build(
        *specs: tuple[Family, int | Fraction, int],
        constant: int | Fraction = 0,
        has_x: bool = True,
    ) -> "UmbralExpr":
        """Convenience constructor assigning sequential copy_ids.

        Each spec is (family, coefficient, order); orders of zero are
        dropped (an empty product of copies contributes nothing).
        """
        blocks = tuple(
            SymbolBlock(family, as_scalar(coef), order, copy_id)
            for copy_id, (family, coef, order) in enumerate(
                (s for s in specs if s[2] != 0), start=1
            )
        )
        return UmbralExpr(blocks, as_scalar(constant), has_x)

    def _next_copy_id(self) -> int:
        return max((b.copy_id for b in self.blocks), default=0) + 1

    def canonical(self) -> str:
        """Stable text form, blocks ordered by (family, copy_id)."""
        parts: list[str] = []
        if self.has_x:
            parts.append("x")
        for b in sorted(self.blocks, key=lambda b: (b.family.value, b.copy_id)):
            letter = _FAMILY_LETTER[b.family]
            sym = f"{letter}^({b.order})" if b.order > 1 else letter
            if b.coefficient == 1:
                parts.append(f"{sym}#{b.copy_id}")
            elif b.coefficient.denominator == 1:
                parts.append(f"{b.coefficient}*{sym}#{b.copy_id}")
            else:
                parts.append(f"({b.coefficient})*{sym}#{b.copy_id}")
        if self.constant != 0 or not parts:
            parts.append(
                str(self.constant)
                if self.constant >= 0
                else f"({self.constant})"
            )
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.canonical()


def umbral_moment(expr: UmbralExpr, n: int) -> Poly:
    """Exact n-th moment of the expression, as a polynomial in x.

    Works at series order n+1; with has_x the result has degree exactly n
    and leading coefficient 1.
    """
    if n < 0:
        raise ValueError(f"moment degree must be nonnegative, got {n}")
    return _moment(*_expr_egf(expr, n + 1), n, expr.has_x)


def _moment(nums: list[int], den: int, n: int, has_x: bool) -> Poly:
    """n! [w^n] of the series nums / den, times e^(xw) when has_x."""
    if not has_x:
        return poly_from_numerators([factorial(n) * nums[n]], den)
    return appell_polynomial(nums, den, n)


def _expr_egf(expr: UmbralExpr, order: int) -> tuple[list[int], int]:
    """Product of the constant's exponential and all block kernels.

    Integer numerators over one (unreduced) common denominator.
    """
    exp = kernel(Kernel.EXP, expr.constant, order)
    nums, den = exp.nums, exp.den
    for b in expr.blocks:
        bn, bd = kernel_power_numerators(
            _FAMILY_KERNEL[b.family], b.coefficient, b.order, order
        )
        nums = convolve(nums, bn, 0, order)
        den *= bd
    return nums, den


def moment_rows(
    start: UmbralExpr, loops: tuple[UmbralExpr, ...], n: int
) -> Iterator[list[Poly]]:
    """The n-th moments of `start` plus k loop copies, k = 0, 1, 2, ...

    A copy of a loop is an independent copy of its blocks and constant;
    x, if `start` has it, enters once. With one loop, row k holds the
    moment of start plus k copies of it. With two, row k holds, for
    l = 0..k, the moment of start plus l copies of the first loop and
    k - l of the second. Each series of row k + 1 is one of row k times
    a loop's series, reduced by one gcd, so every block kernel is taken
    at power 1 only.
    """
    if n < 0:
        raise ValueError(f"moment degree must be nonnegative, got {n}")
    if len(loops) not in (1, 2):
        raise ValueError(f"need one or two loops, got {len(loops)}")
    order = n + 1

    def times(a: tuple[list[int], int], b: tuple[list[int], int]):
        nums, den = convolve(a[0], b[0], 0, order), a[1] * b[1]
        g = gcd(den, *nums)
        return [x // g for x in nums], den // g

    egfs = [_expr_egf(loop, order) for loop in loops]
    first, last = egfs[0], egfs[-1]
    row = [_expr_egf(start, order)]
    while True:
        yield [_moment(nums, den, n, start.has_x) for nums, den in row]
        grown = [times(egf, last) for egf in row]
        if len(loops) == 2:
            grown.append(times(row[-1], first))
        row = grown


def split_bernoulli(expr: UmbralExpr, copy_id: int) -> UmbralExpr:
    """Replace a Bernoulli block 2c*B^(p) by c*B^(p) + c*E^(p).

    The two new blocks get fresh copy_ids. Moments are invariant because
    the Bernoulli kernel at scale 2c factors exactly into the Bernoulli
    and Euler kernels at scale c.
    """
    target = None
    rest = []
    for b in expr.blocks:
        if b.copy_id == copy_id:
            target = b
        else:
            rest.append(b)
    if target is None:
        raise ValueError(f"no block with copy_id {copy_id}")
    if target.family is not Family.BERNOULLI:
        raise ValueError(
            f"block {copy_id} is {target.family.value}, not bernoulli"
        )
    half = target.coefficient / 2
    nid = expr._next_copy_id()
    rest.append(SymbolBlock(Family.BERNOULLI, half, target.order, nid))
    rest.append(SymbolBlock(Family.EULER, half, target.order, nid + 1))
    return UmbralExpr(tuple(rest), expr.constant, expr.has_x)


def cancel_pairs(expr: UmbralExpr) -> UmbralExpr:
    """Drop every (Bernoulli, uniform) pair with equal coefficient and order.

    Moment-preserving: the two kernels are exact reciprocals at the same
    scale, so each matched pair multiplies to the unit series.
    """
    bern = [b for b in expr.blocks if b.family is Family.BERNOULLI]
    unif = [b for b in expr.blocks if b.family is Family.UNIFORM]
    removed: set[int] = set()
    for b, u in itertools.product(bern, unif):
        if b.copy_id in removed or u.copy_id in removed:
            continue
        if b.coefficient == u.coefficient and b.order == u.order:
            removed.add(b.copy_id)
            removed.add(u.copy_id)
    kept = tuple(b for b in expr.blocks if b.copy_id not in removed)
    return UmbralExpr(kept, expr.constant, expr.has_x)


# -- numeric density cross-check ------------------------------------------


class QuadratureError(RuntimeError):
    """Panel refinement failed to stabilize, or the imaginary part survived."""


@dataclass(frozen=True)
class QuadratureParams:
    """Composite Gauss-Legendre settings for the density integrals.

    The Bernoulli density decays like e^(-2*pi*|t|) but the Euler one
    only like e^(-pi*|t|), and the integrand carries a factor |t|^n, so
    a fixed window is not tight for both. When `half_width` is left as
    None the window is widened to 8 + n, which pushes the neglected
    tail below 1e-12 across the supported degrees. Panels double until
    two successive estimates agree to tol/2.
    """

    tol: float = 1e-10
    half_width: float | None = None
    nodes: int = 16
    initial_panels: int = 8
    max_panels: int = 4096


def density_moment(
    family: Family,
    n: int,
    x: int | Fraction | float,
    quad: QuadratureParams | None = None,
) -> float:
    """Re integral of (x + it - 1/2)^n against the letter's density.

    Bernoulli uses the squared hyperbolic secant density
    (pi/2) sech^2(pi t), Euler the hyperbolic secant density sech(pi t);
    the result approximates B_n(x) or E_n(x). The imaginary part of the
    integral must vanish (the integrand's imaginary part is odd in t)
    and is checked as a self-diagnostic.
    """
    import numpy as np

    family = Family(family)
    if family is Family.UNIFORM:
        raise ValueError("the uniform letter has no line density here")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"moment degree must be nonnegative, got {n!r}")
    if n > 12:
        raise ValueError(f"density moments are limited to n <= 12, got {n}")
    quad = quad or QuadratureParams()
    half_width = quad.half_width if quad.half_width is not None else 8.0 + n
    try:
        x0 = float(x)
    except OverflowError:
        raise ValueError("x is outside the float range of the quadrature") from None
    nodes, weights = np.polynomial.legendre.leggauss(quad.nodes)
    prev: complex | None = None
    panels = quad.initial_panels
    while panels <= quad.max_panels:
        edges = np.linspace(-half_width, half_width, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        if family is Family.BERNOULLI:
            dens = 0.5 * np.pi / np.cosh(np.pi * t) ** 2
        else:
            dens = 1.0 / np.cosh(np.pi * t)
        # a huge x overflows the sum to inf or nan, which the test below
        # reports as no convergence
        with np.errstate(over="ignore", invalid="ignore"):
            est = complex(np.sum((x0 + 1j * t - 0.5) ** n * dens * w))
        if prev is not None and abs(est - prev) < quad.tol / 2:
            if abs(est.imag) > quad.tol:
                raise QuadratureError(
                    f"imaginary residue {est.imag:.3e} exceeds tol {quad.tol}"
                )
            return est.real
        prev = est
        panels *= 2
    raise QuadratureError(
        f"no convergence within {quad.max_panels} panels (tol {quad.tol})"
    )
