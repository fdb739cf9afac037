"""The one statement of each hitting-time move, `loopcalc.move_form`.

Its float reader `eval_phi_numeric` is pinned bit for bit on every kind
of move, and the statement is checked against the boundary problem of
its walk's generator. The exact certificate cannot see an error that
every move shares: a wrong time scale in w^2 = 2z rescales all levels
alike, and the renewal chain still equals the free move.
"""

import math
import random

import numpy as np
import pytest
from scipy.linalg import solve_banded

from umbralwalk import Walk, eval_phi_numeric, loopcalc, montecarlo

R, B = Walk.REFLECTED_1D, Walk.BESSEL_3D

# (walk, start, target, z, taboo) and eval_phi_numeric's value as
# float.hex, as the per-walk closed forms gave it before the statement
_FLOAT_PINS = [
    ((R, 0.5, 1.0, 0.5, None), "0x1.76268b8c4909fp-1"),
    ((R, 0.0, 2.0, 0.3, None), "0x1.a040a4bc3d31fp-2"),
    ((R, 990.0, 1000.0, 0.5, None), "0x1.7cd79b5647c9bp-15"),
    ((R, 1.0, 2.0, 0.5, 0.0), "0x1.4bcdc50ed6be8p-2"),
    ((R, 2.0, 1.0, 0.7, 3.0), "0x1.1ebe10641da01p-2"),
    ((B, 0.0, 1.0, 0.5, None), "0x1.b3ab8a78b90c1p-1"),
    ((B, 0.0, 720.0, 0.5, None), "0x0.035ded958c620p-1022"),
    ((B, 1.0, 3.0, 0.5, None), "0x1.6860aca3eb636p-2"),
    ((B, 2.0, 3.0, 0.5, 1.0), "0x1.f1b4a796421dcp-2"),
    ((B, 1.5, 2.5, 0.05, 0.0), "0x1.dfd8fb6a7e282p-1"),
    ((B, 2.0, 1.0, 2.0, 3.0), "0x1.102e75a02f642p-4"),
    ((B, 1.0, 0.0, 0.5, 2.0), "0x0.0p+0"),
    ((B, 1.0, 0.0, 0.5, None), "0x0.0p+0"),
]


@pytest.mark.pins
@pytest.mark.parametrize("args, pinned", _FLOAT_PINS, ids=[
    "reflected-free", "reflected-free-from-0", "reflected-free-far",
    "reflected-up", "reflected-down", "bessel-free-from-0",
    "bessel-free-from-0-far", "bessel-free", "bessel-up",
    "bessel-up-avoiding-0", "bessel-down", "bessel-down-to-origin",
    "bessel-free-to-origin",
])
def test_float_reference_is_pinned_bit_for_bit(args, pinned):
    assert eval_phi_numeric(*args).hex() == pinned


# --- the generator's boundary problem ------------------------------------------


def _boundary_value(walk, start, target, taboo, z, cells):
    """phi(start) from the move's boundary problem, by second-order
    central differences on a grid of `cells` cells per unit.

    1/2 phi'' = z phi on the reflected walk, 1/2 phi'' + phi'/r = z phi on
    the Bessel(3) walk, between the target, where phi = 1, and the avoided
    level, where phi = 0, or 0 for a free move. An end at 0 that holds no
    value is reflecting, phi'(0) = 0, or the Bessel walk's regular origin,
    never reached, where the operator is 3/2 phi''.
    """
    bessel = walk is B
    values = {target: 1.0} if taboo is None else {target: 1.0, taboo: 0.0}
    if bessel:
        values.pop(0.0, None)
    lo, hi = sorted((target, 0.0 if taboo is None else taboo))
    n = round((hi - lo) * cells)
    h = 1.0 / cells
    r = lo + h * np.arange(n + 1)
    drift = np.zeros(n + 1)
    if bessel:
        np.divide(1.0, r, out=drift, where=r > 0)
    sub = 0.5 / h**2 - drift / (2 * h)
    sup = 0.5 / h**2 + drift / (2 * h)
    diag = np.full(n + 1, -1.0 / h**2 - z)
    rhs = np.zeros(n + 1)
    for i, level in ((0, lo), (n, hi)):
        if level in values:
            sub[i] = sup[i] = 0.0
            diag[i], rhs[i] = 1.0, values[level]
        else:
            # phi''(0) = 2 (phi_1 - phi_0) / h^2, as phi'(0) = 0
            k = 3.0 if bessel else 1.0
            sup[0], diag[0] = k / h**2, -k / h**2 - z
    bands = np.array([np.r_[0.0, sup[:-1]], diag, np.r_[sub[1:], 0.0]])
    return solve_banded((1, 1), bands, rhs)[round((start - lo) * cells)]


def _generator_value(walk, start, target, taboo, z):
    """The boundary value at 256 and 512 cells per unit, with one
    Richardson step."""
    coarse, fine = (
        _boundary_value(walk, start, target, taboo, z, cells)
        for cells in (256, 512)
    )
    return (4.0 * fine - coarse) / 3.0


def _random_moves(count, seed=31):
    """Moves of both walks, free, up and down, on levels of a 1/8 grid
    in [0, 4], at z in {0.05, 0.5, 2}."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c = (k / 8 for k in sorted(rng.sample(range(33), 3)))
        walk, z = rng.choice((R, B)), rng.choice((0.05, 0.5, 2.0))
        yield rng.choice([
            (walk, a, b, None, z), (walk, b, c, a, z), (walk, b, a, c, z),
        ])


# (walk, start, target, taboo, z): the moves each mutation below is named
# by, the origin's moves, and random ones
_MOVES = [
    (B, 2.0, 3.0, 1.0, 0.5),
    (R, 0.5, 1.0, None, 0.5),
    (R, 0.0, 1.5, None, 2.0),
    (R, 0.5, 2.0, 0.0, 0.05),
    (B, 0.0, 1.25, None, 0.5),
    (B, 0.75, 2.0, 0.0, 2.0),
    (B, 1.0, 0.0, 2.5, 0.5),
    *_random_moves(30),
]


def _mismatches(moves):
    """The moves whose statement is off the generator's value by more
    than 1e-6 relative, with both values."""
    out = []
    for walk, start, target, taboo, z in moves:
        stated = eval_phi_numeric(walk, start, target, z, taboo)
        solved = _generator_value(walk, start, target, taboo, z)
        if not abs(stated - solved) <= 1e-6 * abs(solved):
            out.append(((walk, start, target, taboo, z), stated, solved))
    return out


def test_the_statement_solves_its_generators_boundary_problem():
    assert _mismatches(_MOVES) == []


def _prefactor_dropped(form):
    def mutated(walk, start, target, taboo=None):
        stated = form(walk, start, target, taboo)
        return stated if taboo is None else stated._replace(prefactor=1)

    return mutated


def _errata_prefactor(form):
    """The Bessel taboo move's radial factor as printed, target/taboo."""

    def mutated(walk, start, target, taboo=None):
        stated = form(walk, start, target, taboo)
        if walk is not B or not taboo:
            return stated
        return stated._replace(prefactor=target / taboo)

    return mutated


def _time_scale_w2_is_z(form):
    """w^2 = z, which is every span over sqrt 2 at w^2 = 2z."""

    def mutated(walk, start, target, taboo=None):
        stated = form(walk, start, target, taboo)
        root2 = math.sqrt(2.0)
        return stated._replace(near=stated.near / root2, far=stated.far / root2)

    return mutated


@pytest.mark.parametrize("mutation, move, stated, solved", [
    (_prefactor_dropped, (B, 2.0, 3.0, 1.0, 0.5), 0.3240, 0.4860),
    (_errata_prefactor, (B, 2.0, 3.0, 1.0, 0.5), 0.9721, 0.4860),
    (_time_scale_w2_is_z, (R, 0.5, 1.0, None, 0.5), 0.8434, 0.7308),
], ids=["bessel-prefactor-dropped", "errata-target-over-taboo", "w2-is-z"])
def test_a_mutated_statement_fails_the_generator_check(
    monkeypatch, mutation, move, stated, solved
):
    # both readers look the statement up by name
    restated = mutation(loopcalc.move_form)
    for module in (loopcalc, montecarlo):
        monkeypatch.setattr(module, "move_form", restated)
    failed = {case: (got, want) for case, got, want in _mismatches(_MOVES)}
    assert move in failed
    assert failed[move] == pytest.approx((stated, solved), abs=1e-4)
