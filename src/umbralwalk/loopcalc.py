"""Hitting-time generating functions and their renewal recursion, bit-exact.

Levels 0 = a_0 < a_1 < ... < a_N are sites on the half-line (reflected
Brownian motion) or concentric sphere radii (Bessel(3) process). All
generating functions are exact series in w, where w^2 = 2z for the
Laplace variable z. Each is even in w, so it is computed as a series in
u = w^2 with (order + 1) // 2 coefficients and spread back into w only
when returned: the odd coefficients, all 0, are never computed.

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
0 -> a_N, coefficient by coefficient in u, and must be exactly zero.

While the fraction is linear in its loops, `renewal_loops` gives the
same transform as S / (1 - sum L_i), a start S times any number of
loops L_i: the block-level identities expand it in the loop count.

The chain, its start and loops, and the certificate all read one set of
moves, H_0 and each (up_i, down_i), walked once by `renewal_moves`. The
u-series forms (`renewal_moves`, `start_and_loops`, `free_move`) let a
caller that keeps a system's moves build every side from them; this
module keeps none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .series import (
    ExactScalar,
    Kernel,
    PowerSeries,
    _new,
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


def _even(series: PowerSeries) -> PowerSeries:
    """An even series in w as the series in u = w^2 of its even coefficients.

    The odd numerators are 0, so the denominator stays the normal one.
    """
    return _new(series.nums[::2], series.den, "u")


def _in_w(series: PowerSeries, order: int) -> PowerSeries:
    """A series in u = w^2 spread back into w, with `order` coefficients."""
    nums = [0] * order
    nums[::2] = series.nums
    return _new(tuple(nums), series.den, "w")


def _sinh_ratio(num_arg: Fraction, den_arg: Fraction, order: int) -> PowerSeries:
    """sinh(num_arg w)/sinh(den_arg w) in u, for 0 < num_arg < den_arg."""
    ratio = ps_div(
        _even(kernel(Kernel.SINH_OVER_ARG, num_arg, order, "w")),
        _even(kernel(Kernel.SINH_OVER_ARG, den_arg, order, "w")),
    )
    return ratio.scale(num_arg / den_arg)


def phi(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """Exact series in w of the move's hitting-time transform."""
    return _in_w(_phi(system, move, order), order)


def _phi(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """`phi` in u = w^2, with (order + 1) // 2 coefficients."""
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
        # (b/a) sinh(a w)/sinh(b w) == shifted-sinh ratio, exact at a = 0 too
        if system.walk is Walk.REFLECTED_1D:
            kind = Kernel.COSH
        else:
            kind = Kernel.SINH_OVER_ARG
        return ps_div(
            _even(kernel(kind, levels[f], order, "w")),
            _even(kernel(kind, levels[t], order, "w")),
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
            return _even(PowerSeries.zero(order, "w"))
        ratio = _sinh_ratio(
            levels[tb] - levels[f], levels[tb] - levels[t], order
        )
    if system.walk is Walk.BESSEL_3D:
        ratio = ratio.scale(levels[t] / levels[f])
    return ratio


class Moves(NamedTuple):
    """The moves of a system's renewal recursion, as series in u = w^2.

    first is H_0 = phi(0 -> 1), and for i = 1..N-1 ups[i - 1] is up_i =
    phi(i -> i+1 avoiding i-1) and downs[i - 1] is down_i = phi(i -> i-1
    avoiding i+1).
    """

    first: PowerSeries
    ups: tuple[PowerSeries, ...]
    downs: tuple[PowerSeries, ...]


def renewal_moves(system: LevelSystem, order: int) -> Moves:
    """The system's moves, each derived once: the one walk over the move
    pattern that the chain, its start and loops, and the certificate
    read."""
    inner = range(1, system.top_index)
    return Moves(
        _phi(system, PhiMove(0, 1), order),
        tuple(_phi(system, PhiMove(i, i + 1, i - 1), order) for i in inner),
        tuple(_phi(system, PhiMove(i, i - 1, i + 1), order) for i in inner),
    )


def chain_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """0 -> a_N as the product of first passages H_i, by renewal."""
    return _in_w(_chain(renewal_moves(system, order)), order)


def _chain(moves: Moves) -> PowerSeries:
    """`chain_mgf` in u = w^2, from the system's moves."""
    passage = out = moves.first
    one = PowerSeries.one(out.order, "u")
    for up, down in zip(moves.ups, moves.downs):
        passage = ps_div(up, one - ps_mul(down, passage))
        out = ps_mul(out, passage)
    return out


# the most levels above 0 on which the renewal chain is linear in its loops
_LINEAR_TOP = {Walk.REFLECTED_1D: 3, Walk.BESSEL_3D: 4}


def linear_in_loops(system: LevelSystem) -> bool:
    """Whether the system is in `renewal_loops`' range."""
    return system.top_index <= _LINEAR_TOP[system.walk]


def renewal_loops(
    system: LevelSystem, order: int
) -> tuple[PowerSeries, tuple[PowerSeries, ...]]:
    """The chain's start S and loops L_i, with chain == S / (1 - sum L_i).

    S = H_0 up_1 ... up_{N-1} is the straight climb, and L_i =
    down_i up_{i-1} for i = 1..N-1, with up_0 = H_0, a step down from
    a_i and the step back up. Unwinding `_chain`'s continued fraction
    gives the denominator 1 - L_1 - ... - L_{N-1} only while no product
    of two loops survives in it: up to 3 levels above 0 on the reflected
    walk, 4 on the Bessel walk, whose L_1 is the zero series. A larger
    system raises InvalidSystemError. Both are built from the moves of
    `renewal_moves` (`start_and_loops` builds them in u from moves
    already held).
    """
    if not linear_in_loops(system):
        raise InvalidSystemError(
            f"the {system.walk.value} renewal chain is linear in its loops "
            f"up to {_LINEAR_TOP[system.walk]} levels above 0, "
            f"got {system.top_index}"
        )
    start, loops = start_and_loops(renewal_moves(system, order))
    return _in_w(start, order), tuple(_in_w(loop, order) for loop in loops)


def start_and_loops(
    moves: Moves,
) -> tuple[PowerSeries, tuple[PowerSeries, ...]]:
    """`renewal_loops` in u = w^2, from the system's moves."""
    start = functools.reduce(ps_mul, moves.ups, moves.first)
    return start, tuple(map(ps_mul, moves.downs, (moves.first, *moves.ups)))


def direct_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """Closed form of the 0 -> a_N transform: the free move."""
    return _in_w(free_move(system, order), order)


def free_move(system: LevelSystem, order: int) -> PowerSeries:
    """`direct_mgf` in u = w^2."""
    return _phi(system, PhiMove(0, system.top_index), order)


def decomposition_residual(
    system: LevelSystem,
    order: int,
    moves: Moves | None = None,
    free: PowerSeries | None = None,
) -> ExactScalar:
    """Max |chain - direct| over all retained coefficients; exactly 0.

    Compared in u = w^2, where the odd coefficients in w, all 0, are not
    held. The chain is built from the system's moves and compared with
    its free move, both at `order`; a caller that already holds them
    (`renewal_moves`, `free_move`) passes them, so the certificate checks
    exactly the series the caller keeps, and whichever is not given is
    derived here.
    """
    if moves is None:
        moves = renewal_moves(system, order)
    if free is None:
        free = free_move(system, order)
    delta = _chain(moves) - free
    return max((abs(c) for c in delta.coeffs), default=_ZERO)
