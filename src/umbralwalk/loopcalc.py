"""Hitting-time generating functions and their renewal recursion, bit-exact.

Levels 0 = a_0 < a_1 < ... < a_N are sites on the half-line (reflected
Brownian motion) or concentric sphere radii (Bessel(3) process). All
generating functions are exact series in w, where w^2 = 2z for the
Laplace variable z.

Closed forms, with levels a < b < c:

  reflected walk
    a -> b (free)          cosh(a w) / cosh(b w)
    b -> a avoiding c      sinh((c-b) w) / sinh((c-a) w)
    b -> c avoiding a      sinh((b-a) w) / sinh((c-a) w)

  Bessel(3)
    a -> b (free)          (b/a) sinh(a w) / sinh(b w), limit b w / sinh(b w) at a = 0
    taboo moves            radial prefactor target/start times the sinh ratio
    b -> 0 avoiding c      the zero series (the origin is never reached)

Every sinh ratio is built from sinh(c w)/(c w) kernels, whose constant
term is 1, so no leading-power bookkeeping is needed.

The full transform from 0 to the top level is one renewal recursion, the
birth-death continued fraction (Flajolet 1980): with H_i the transform
of the first passage from a_i to a_{i+1},

    H_0 = phi(0 -> 1),   H_i = up_i / (1 - down_i H_{i-1}),

where up_i = phi(i -> i+1 avoiding i-1) and down_i = phi(i -> i-1
avoiding i+1): every excursion below a_i is a step down followed by a
first passage back up. The transform is H_0 H_1 ... H_{N-1}, for any
number of levels and both walks (the Bessel walk's down_1 is the zero
series). `decomposition_residual` certifies it against the free move
0 -> a_N, coefficient by coefficient, and must be exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .series import (
    ExactScalar,
    Kernel,
    PowerSeries,
    as_scalar,
    kernel,
    ps_div,
    ps_mul,
)

_ZERO = Fraction(0)


class InvalidSystemError(ValueError):
    """Level list violates the walk's constraints."""


class InvalidMoveError(ValueError):
    """Move is not one the closed forms cover."""


class Walk(str, Enum):
    REFLECTED_1D = "1d"
    BESSEL_3D = "bessel"


@dataclass(frozen=True)
class LevelSystem:
    walk: Walk
    levels: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "walk", Walk(self.walk))
        levels = tuple(as_scalar(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise InvalidSystemError("need at least levels (0, a_1)")
        if levels[0] != 0:
            raise InvalidSystemError(f"a_0 must be exactly 0, got {levels[0]}")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise InvalidSystemError(f"levels must strictly increase: {levels}")

    @property
    def top_index(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class PhiMove:
    """A site-to-site move, optionally avoiding the adjacent site beyond."""

    from_level: int
    to_level: int
    taboo_level: int | None = None


def _sinh_ratio(num_arg: Fraction, den_arg: Fraction, order: int) -> PowerSeries:
    """sinh(num_arg w)/sinh(den_arg w) for 0 < num_arg < den_arg."""
    ratio = ps_div(
        kernel(Kernel.SINH_OVER_ARG, num_arg, order, "w"),
        kernel(Kernel.SINH_OVER_ARG, den_arg, order, "w"),
    )
    return ratio.scale(num_arg / den_arg)


def phi(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """Exact series in w of the move's hitting-time transform."""
    levels = system.levels
    f, t, tb = move.from_level, move.to_level, move.taboo_level
    top = system.top_index
    for idx in (f, t) + (() if tb is None else (tb,)):
        if not 0 <= idx <= top:
            raise InvalidMoveError(f"level index {idx} outside 0..{top}")
    if f == t:
        raise InvalidMoveError("move must change level")
    if tb is None:
        if t < f:
            raise InvalidMoveError("downward moves require a taboo level")
        if system.walk is Walk.REFLECTED_1D:
            return ps_div(
                kernel(Kernel.COSH, levels[f], order, "w"),
                kernel(Kernel.COSH, levels[t], order, "w"),
            )
        # (b/a) sinh(a w)/sinh(b w) == shifted-sinh ratio, exact at a = 0 too
        return ps_div(
            kernel(Kernel.SINH_OVER_ARG, levels[f], order, "w"),
            kernel(Kernel.SINH_OVER_ARG, levels[t], order, "w"),
        )
    # taboo moves: the avoided site sits adjacent on the far side
    if t > f:
        if tb != f - 1:
            raise InvalidMoveError(
                f"upward move {f}->{t} must avoid level {f - 1}, got {tb}"
            )
        ratio = _sinh_ratio(
            levels[f] - levels[tb], levels[t] - levels[tb], order
        )
    else:
        if tb != f + 1:
            raise InvalidMoveError(
                f"downward move {f}->{t} must avoid level {f + 1}, got {tb}"
            )
        if system.walk is Walk.BESSEL_3D and levels[t] == 0:
            return PowerSeries.zero(order, "w")
        ratio = _sinh_ratio(
            levels[tb] - levels[f], levels[tb] - levels[t], order
        )
    if system.walk is Walk.BESSEL_3D:
        ratio = ratio.scale(levels[t] / levels[f])
    return ratio


def chain_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """0 -> a_N as the product of first passages H_i, by renewal."""
    one = PowerSeries.one(order, "w")
    passage = out = phi(system, PhiMove(0, 1), order)
    for i in range(1, system.top_index):
        up = phi(system, PhiMove(i, i + 1, i - 1), order)
        down = phi(system, PhiMove(i, i - 1, i + 1), order)
        passage = ps_div(up, one - ps_mul(down, passage))
        out = ps_mul(out, passage)
    return out


def direct_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """Closed form of the 0 -> a_N transform: the free move."""
    return phi(system, PhiMove(0, system.top_index), order)


def decomposition_residual(system: LevelSystem, order: int) -> ExactScalar:
    """Max |chain - direct| over all retained coefficients; exactly 0."""
    delta = chain_mgf(system, order) - direct_mgf(system, order)
    return max((abs(c) for c in delta.coeffs), default=_ZERO)
