"""Hitting-time generating functions and their renewal recursion, bit-exact.

Levels 0 = a_0 < a_1 < ... < a_N are sites on the half-line (reflected
Brownian motion) or concentric sphere radii (Bessel(3) process). All
generating functions are exact series in w, where w^2 = 2z for the
Laplace variable z. Each is even in w, so it is computed as a series in
u = w^2 with (order + 1) // 2 coefficients and spread back into w only
when returned: the odd coefficients, all 0, are never computed.

Every move is stated once, as data, by `move_form`: its transform is
prefactor * K(near w) / K(far w), with (K, near, far, prefactor)

    reflected free move    (cosh, start, target, 1)
    Bessel(3) free move    (sinh(c w)/(c w), start, target, 1)
    taboo move             (sinh, start - taboo, target - taboo, p)

and p = 1 on the reflected walk, target/start on the Bessel walk (0 at
the origin, never reached). The exact pairs and the float reference
`montecarlo.eval_phi_numeric` both read it. A pair is a numerator over
a denominator of even kernels in u, each of constant term 1: a sinh
entry is held as sinh(c w)/(c w) at |c|, with near/far joining the
prefactor in the numerator. up_i = U_i / W_i and down_i = Dw_i / W_i
share the denominator W_i, the kernel at a_(i+1) - a_(i-1). `phi`
divides its move's pair.

The full transform from 0 to the top level is one renewal recursion, the
birth-death continued fraction (Flajolet 1980): with H_i the transform
of the first passage from a_i to a_{i+1},

    H_0 = phi(0 -> 1),   H_i = up_i / (1 - down_i H_{i-1}),

where up_i = phi(i -> i+1 avoiding i-1) and down_i = phi(i -> i-1
avoiding i+1): every excursion below a_i is a step down followed by a
first passage back up. The transform is H_0 H_1 ... H_{N-1}, for any
number of levels and both walks (the Bessel walk's down_1 is the zero
series). On the pairs, with H_0 = N_0 / D_0, the fraction unwinds into
its Euler-Wallis continuant: H_i = N_i / D_i with

    N_i = U_i D_{i-1},   D_i = W_i D_{i-1} - Dw_i N_{i-1},

and the product telescopes to N_0 U_1 ... U_{N-1} / D_{N-1}, products
all the way and one series division at the end. `decomposition_residual`
certifies it against the free move 0 -> a_N, itself a pair N_f / D_f,
coefficient by coefficient in u, and must be exactly zero. It divides
nothing: as a/b - c/d = (ad - bc) / (bd) with bd invertible, the chain
equals the free move through order m exactly when the cross-difference
N_0 U_1 ... U_{N-1} D_f - N_f D_{N-1} vanishes through order m, and only
a nonzero one is divided out, to report its size.

While the fraction is linear in its loops, `renewal_loops` gives the
same transform as S / (1 - sum L_i), a start S times any number of
loops L_i: the block-level identities expand it in the loop count. On
the pairs, S = N_0 U_1 ... U_{N-1} / (D_0 W_1 ... W_{N-1}), and each
loop is one quotient of two products.

The chain, its start and loops, and the certificate all read one set of
moves, the pairs of H_0 and each (up_i, down_i), walked once by
`renewal_moves`. The u-series forms (`renewal_moves`, `free_pair`,
`start_and_loops`, `free_move`) let a caller that keeps a system's pairs
certify them and form each quotient from their prefixes (`Moves.prefix`)
at the order it reads; this module keeps none.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .series import (
    ExactScalar,
    Kernel,
    PowerSeries,
    Record,
    _check_order,
    _check_unit,
    _new,
    as_scalar,
    kernel,
    ps_div,
    ps_mul,
)

class InvalidSystemError(ValueError):
    """Level list violates the walk's constraints."""


class InvalidMoveError(ValueError):
    """Move is not one the closed forms cover."""


class Walk(str, Enum):
    REFLECTED_1D = "1d"
    BESSEL_3D = "bessel"


class LevelSystem(Record):
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


class PhiMove(
    namedtuple("PhiMove", "from_level to_level taboo_level", defaults=(None,))
):
    """A site-to-site move, optionally avoiding the adjacent site beyond."""

    __slots__ = ()
    from_level: int
    to_level: int
    taboo_level: int | None


def _even(series: PowerSeries) -> PowerSeries:
    """An even series in w as the series in u = w^2 of its even coefficients.

    The odd numerators are 0, so the denominator stays the normal one.
    """
    return _new(series.nums[::2], series.den)


def _in_w(series: PowerSeries, order: int) -> PowerSeries:
    """A series in u = w^2 spread back into w, with `order` coefficients."""
    nums = [0] * order
    nums[::2] = series.nums
    return _new(tuple(nums), series.den)


def _even_kernel(kind: Kernel, scale: Fraction, order: int) -> PowerSeries:
    """kernel(kind, scale) in u = w^2, for an even kind: at scale 0 the
    constant 1 that cosh, sech and sinh(c w)/(c w) all take there.

    `order` is checked first, so an error names the w-order given."""
    _check_order(order)
    if not scale:
        return PowerSeries.one((order + 1) // 2)
    return _even(kernel(kind, scale, order))


def phi(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """Exact series in w of the move's hitting-time transform: its pair's
    quotient, taken in u = w^2."""
    pair = _numerator(system, move, order), _denominator(system, move, order)
    return _in_w(ps_div(*pair), order)


class MoveForm(namedtuple("MoveForm", "kind near far prefactor")):
    """A move's transform, prefactor * kind(near w) / kind(far w), for a
    Kernel kind, on exact or float levels."""

    __slots__ = ()


# the kernel of a free move; (b/a) sinh(a w)/sinh(b w) is the ratio of
# sinh(c w)/(c w) kernels, exact at a = 0 too
_FREE_KIND = {Walk.REFLECTED_1D: Kernel.COSH, Walk.BESSEL_3D: Kernel.SINH_OVER_ARG}


def move_form(walk: Walk, start, target, taboo=None) -> MoveForm:
    """The one statement of a move's hitting-time transform (see the
    module), on exact or float levels. It checks nothing: its readers
    check the move."""
    if taboo is None:
        return MoveForm(_FREE_KIND[walk], start, target, 1)
    prefactor = target / start if walk is Walk.BESSEL_3D else 1
    return MoveForm(Kernel.SINH, start - taboo, target - taboo, prefactor)


def _form(system: LevelSystem, move: PhiMove) -> MoveForm:
    """The statement of a move the closed forms cover, on the system's
    levels; else InvalidMoveError."""
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
    # taboo moves: the avoided site sits adjacent on the far side
    elif t > f and tb != f - 1:
        raise InvalidMoveError(
            f"upward move {f}->{t} must avoid level {f - 1}, got {tb}"
        )
    elif t < f and tb != f + 1:
        raise InvalidMoveError(
            f"downward move {f}->{t} must avoid level {f + 1}, got {tb}"
        )
    lv = system.levels
    return move_form(system.walk, lv[f], lv[t], None if tb is None else lv[tb])


# sinh(c w) = c w sinh(c w)/(c w): a pair holds the even kernel of sinh
_EVEN = {Kernel.SINH: Kernel.SINH_OVER_ARG}


def _numerator(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """The numerator of the move's pair in u (see the module): its even
    kernel at the near scale, times its prefactor, and for a sinh kernel
    times near / far."""
    kind, near, far, prefactor = _form(system, move)
    if kind is Kernel.SINH:
        prefactor = prefactor * near / far
    if not prefactor:
        # the origin is never reached
        return _even(PowerSeries.zero(order))
    numerator = _even_kernel(_EVEN.get(kind, kind), abs(near), order)
    return numerator if prefactor == 1 else numerator.scale(prefactor)


def _denominator(system: LevelSystem, move: PhiMove, order: int) -> PowerSeries:
    """The denominator of the move's pair in u: its even kernel at the far
    scale, which up_i and down_i share."""
    kind, _, far, _ = _form(system, move)
    return _even_kernel(_EVEN.get(kind, kind), abs(far), order)


class Moves(namedtuple("Moves", "first ups downs walls")):
    """The moves of a system's renewal recursion as kernel pairs in u = w^2.

    first is H_0 = phi(0 -> 1) as its pair (N_0, D_0). For i = 1..N-1,
    ups[i - 1] is U_i, downs[i - 1] is Dw_i and walls[i - 1] is W_i, so
    up_i = phi(i -> i+1 avoiding i-1) = U_i / W_i and down_i = phi(i ->
    i-1 avoiding i+1) = Dw_i / W_i.
    """

    __slots__ = ()
    first: tuple[PowerSeries, PowerSeries]
    ups: tuple[PowerSeries, ...]
    downs: tuple[PowerSeries, ...]
    walls: tuple[PowerSeries, ...]

    def prefix(self, order: int) -> "Moves":
        """The moves with the first `order` coefficients of each series."""
        first, *parts = (
            tuple(series.prefix(order) for series in part) for part in self
        )
        return Moves(first, *parts)


def renewal_moves(system: LevelSystem, order: int) -> Moves:
    """The system's moves, each numerator and denominator derived once:
    the one walk over the move pattern that the chain, its start and
    loops, and the certificate read."""
    inner = range(1, system.top_index)
    h0 = PhiMove(0, 1)
    up_moves = [PhiMove(i, i + 1, i - 1) for i in inner]
    return Moves(
        (_numerator(system, h0, order), _denominator(system, h0, order)),
        tuple(_numerator(system, move, order) for move in up_moves),
        tuple(_numerator(system, PhiMove(i, i - 1, i + 1), order) for i in inner),
        tuple(_denominator(system, move, order) for move in up_moves),
    )


def chain_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """0 -> a_N as the product of first passages H_i, by renewal."""
    return _in_w(_chain(renewal_moves(system, order)), order)


def _chain(moves: Moves) -> PowerSeries:
    """`chain_mgf` in u = w^2, from the system's moves: the continuant
    N_0 U_1 ... U_{N-1} / D_{N-1} (see the module), at one division."""
    return ps_div(*_continuant(moves))


def _continuant(moves: Moves) -> tuple[PowerSeries, PowerSeries]:
    """The chain's numerator N_0 U_1 ... U_{N-1} and denominator D_{N-1},
    by the Euler-Wallis recursion (see the module)."""
    n0, den = moves.first
    # N_i = U_i D_(i-1) is held as its factors, multiplied out only where
    # down_(i+1) reads it (the Bessel walk's down_1 is the zero series)
    top, num = n0, (n0,)
    for up, down, wall in zip(moves.ups, moves.downs, moves.walls):
        # D_i = W_i D_(i-1) - Dw_i N_(i-1)
        next_den = ps_mul(wall, den)
        if any(down.nums):
            next_den = next_den - functools.reduce(ps_mul, num, down)
        num, den, top = (up, den), next_den, ps_mul(top, up)
    return top, den


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
    a_i and the step back up. Unwinding the renewal continued fraction
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
    """`renewal_loops` in u = w^2, from the system's moves: the start
    N_0 U_1 ... U_{N-1} / (D_0 W_1 ... W_{N-1}) and each loop down_i
    up_{i-1} as one quotient of the products of their pairs."""
    (n0, d0), ups, downs, walls = moves
    start = ps_div(
        functools.reduce(ps_mul, ups, n0), functools.reduce(ps_mul, walls, d0)
    )
    loops = tuple(
        ps_div(ps_mul(down, up), ps_mul(wall, below))
        for down, wall, up, below in zip(downs, walls, (n0, *ups), (d0, *walls))
    )
    return start, loops


def direct_mgf(system: LevelSystem, order: int) -> PowerSeries:
    """Closed form of the 0 -> a_N transform: the free move."""
    return _in_w(free_move(system, order), order)


def free_move(system: LevelSystem, order: int) -> PowerSeries:
    """`direct_mgf` in u = w^2."""
    return ps_div(*free_pair(system, order))


def free_pair(system: LevelSystem, order: int) -> tuple[PowerSeries, PowerSeries]:
    """The free move 0 -> a_N in u = w^2 as its kernel pair (N_f, D_f)."""
    move = PhiMove(0, system.top_index)
    return _numerator(system, move, order), _denominator(system, move, order)


def decomposition_residual(
    system: LevelSystem,
    order: int,
    moves: Moves | None = None,
    free: tuple[PowerSeries, PowerSeries] | None = None,
) -> ExactScalar:
    """Max |chain - direct| over all retained coefficients; exactly 0.

    Compared in u = w^2, where the odd coefficients in w, all 0, are not
    held. The chain is built from the system's moves and compared with
    its free move, both at `order`; a caller that already holds them
    (`renewal_moves`, `free_pair`) passes them, so the certificate checks
    exactly the series the caller keeps, and whichever is not given is
    derived here. Both sides stay pairs: the chain's continuant top /
    D_(N-1) equals N_f / D_f exactly when top D_f == N_f D_(N-1) (see the
    module), so an exact system costs two products and no division. A
    denominator with a zero constant term raises ConstantTermError, as
    dividing by it would; only a nonzero residual divides both sides out.
    """
    if moves is None:
        moves = renewal_moves(system, order)
    if free is None:
        free = free_pair(system, order)
    top, den = _continuant(moves)
    free_num, free_den = free
    _check_unit(den)
    _check_unit(free_den)
    if ps_mul(top, free_den) == ps_mul(free_num, den):
        return Fraction(0)
    delta = ps_div(top, den) - ps_div(free_num, free_den)
    # over delta's one positive denominator
    return Fraction(max(map(abs, delta.nums)), delta.den)
