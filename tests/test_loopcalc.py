"""Hitting-time series, taboo moves, the renewal recursion."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralwalk import (
    InvalidMoveError,
    InvalidSystemError,
    Kernel,
    LevelSystem,
    PhiMove,
    PowerSeries,
    Walk,
    chain_mgf,
    chebyshev_recip_weights,
    decomposition_residual,
    direct_mgf,
    geometric_resum,
    kernel,
    phi,
    ps_div,
    ps_mul,
)
from umbralwalk.loopcalc import renewal_loops

ORDER = 30


def rbm(*levels):
    return LevelSystem(Walk.REFLECTED_1D, tuple(F(v) for v in levels))


def bessel(*levels):
    return LevelSystem(Walk.BESSEL_3D, tuple(F(v) for v in levels))


def sech_series(c, order=ORDER):
    return ps_div(PowerSeries.one(order, "w"), kernel(Kernel.COSH, c, order, "w"))


# --- single moves -----------------------------------------------------------


def test_rbm_origin_to_first_level_is_sech():
    got = phi(rbm(0, 1), PhiMove(0, 1), ORDER)
    assert got == sech_series(1)


def test_bessel_origin_move_has_unit_constant_term():
    got = phi(bessel(0, 1), PhiMove(0, 1), ORDER)
    expected = ps_div(
        PowerSeries.one(ORDER, "w"), kernel(Kernel.SINH_OVER_ARG, 1, ORDER, "w")
    )
    assert got == expected
    assert got.constant_term == 1


def test_bessel_downward_taboo_to_origin_is_zero():
    got = phi(bessel(0, 1, 2), PhiMove(1, 0, 2), ORDER)
    assert got == PowerSeries.zero(ORDER, "w")


def test_rbm_taboo_moves_match_sinh_ratios():
    system = rbm(0, F(1, 3), F(1, 2), 2)
    up = phi(system, PhiMove(2, 3, 1), ORDER)
    # sinh((a2-a1)w)/sinh((a3-a1)w)
    num = kernel(Kernel.SINH_OVER_ARG, F(1, 6), ORDER, "w")
    den = kernel(Kernel.SINH_OVER_ARG, F(5, 3), ORDER, "w")
    assert up == ps_div(num, den).scale(F(1, 6) / F(5, 3))
    down = phi(system, PhiMove(1, 0, 2), ORDER)
    num = kernel(Kernel.SINH_OVER_ARG, F(1, 6), ORDER, "w")
    den = kernel(Kernel.SINH_OVER_ARG, F(1, 2), ORDER, "w")
    assert down == ps_div(num, den).scale(F(1, 3))


def test_bessel_taboo_carries_radial_prefactor():
    system = bessel(0, 1, 2, 3)
    down = phi(system, PhiMove(2, 1, 3), ORDER)
    plain = phi(rbm(0, 1, 2, 3), PhiMove(2, 1, 3), ORDER)
    assert down == plain.scale(F(1, 2))
    up = phi(system, PhiMove(2, 3, 1), ORDER)
    plain_up = phi(rbm(0, 1, 2, 3), PhiMove(2, 3, 1), ORDER)
    assert up == plain_up.scale(F(3, 2))


def test_move_validation():
    system = rbm(0, 1, 2)
    with pytest.raises(InvalidMoveError):
        phi(system, PhiMove(1, 1), ORDER)
    with pytest.raises(InvalidMoveError):
        phi(system, PhiMove(2, 1), ORDER)  # downward needs a taboo
    with pytest.raises(InvalidMoveError):
        phi(system, PhiMove(1, 2, 2), ORDER)  # taboo on the wrong side
    with pytest.raises(InvalidMoveError):
        phi(system, PhiMove(0, 5), ORDER)


# --- chains vs closed forms -----------------------------------------------------


def test_chain_three_sites_is_sech_2w():
    assert chain_mgf(rbm(0, 1, 2), ORDER) == sech_series(2)


def test_chain_four_sites_is_sech_3w():
    assert chain_mgf(rbm(0, 1, 2, 3), ORDER) == sech_series(3)


def test_chain_four_sites_resummed_secant_powers():
    # the resummed two-loop decomposition collapses to
    # (1/4) sech^3(w) / (1 - (3/4) sech^2(w))
    sech = sech_series(1)
    sech2 = ps_mul(sech, sech)
    one = PowerSeries.one(ORDER, "w")
    closed = ps_div(
        ps_mul(sech2, sech).scale(F(1, 4)),
        one - sech2.scale(F(3, 4)),
    )
    assert closed == chain_mgf(rbm(0, 1, 2, 3), ORDER)


def test_chain_bessel_four_levels():
    got = chain_mgf(bessel(0, 1, 2, 3), ORDER)
    assert got == direct_mgf(bessel(0, 1, 2, 3), ORDER)


def test_direct_forms():
    assert direct_mgf(rbm(0, 2), ORDER) == sech_series(2)
    assert direct_mgf(bessel(0, 1, 2, 3), ORDER) == ps_div(
        PowerSeries.one(ORDER, "w"), kernel(Kernel.SINH_OVER_ARG, 3, ORDER, "w")
    )
    assert chain_mgf(rbm(0, F(5, 2)), ORDER) == direct_mgf(rbm(0, F(5, 2)), ORDER)


SYSTEMS = [
    rbm(0, 1, 2),
    rbm(0, 1, 2, 3),
    rbm(0, F(1, 3), F(1, 2), 2),
    rbm(0, 1, 3),
    bessel(0, 1, 2, 3),
    bessel(0, 1, 2, 3, 4),
    bessel(0, 1, 2, 4),
    bessel(0, 1, 3, 5),
    # beyond the two adjacent loops a single 1/(1 - sum of loops) covers
    rbm(0, F(1, 2), 1, 3, 4, 9, 10, 12),
    bessel(0, F(1, 2), 1, 3, 4, 9, 10, 12),
    rbm(*range(9)),
    bessel(*range(9)),
]


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.walk.value}{s.levels}")
def test_decomposition_residual_is_exactly_zero(system):
    assert decomposition_residual(system, ORDER) == 0


# --- invariants -------------------------------------------------------------------


def test_phi_constant_terms_bounded():
    system = rbm(0, 1, 2, 3)
    moves = [
        PhiMove(0, 1), PhiMove(0, 3), PhiMove(1, 2, 0), PhiMove(2, 3, 1),
        PhiMove(1, 0, 2), PhiMove(2, 1, 3),
    ]
    for mv in moves:
        c = phi(system, mv, 8).constant_term
        assert 0 <= c <= 1
    # hitting any level from below is certain for the reflected walk
    for target in (1, 2, 3):
        assert phi(system, PhiMove(0, target), 8).constant_term == 1


def adjacent_loops(system, order):
    """Loop i: from a_i down to a_(i-1) avoiding a_(i+1), then back up."""
    loops = []
    for i in range(1, system.top_index):
        back = PhiMove(0, 1) if i == 1 else PhiMove(i - 1, i, i - 2)
        loops.append(
            ps_mul(
                phi(system, PhiMove(i, i - 1, i + 1), order),
                phi(system, back, order),
            )
        )
    return loops


def test_loop_kernels_strictly_subcritical():
    for system in SYSTEMS:
        for loop in adjacent_loops(system, 8):
            assert 0 <= loop.constant_term < 1


def test_bessel_uniform_loop_sum_is_half_sech_squared():
    # the Bessel walk's first loop (through the origin) is the zero series
    system = bessel(0, 1, 2, 3, 4)
    zero, *kernels = adjacent_loops(system, ORDER)
    assert zero == PowerSeries.zero(ORDER, "w")
    assert len(kernels) == 2
    total = kernels[0] + kernels[1]
    sech2 = ps_mul(sech_series(1), sech_series(1))
    assert total == sech2.scale(F(1, 2))
    # two loops sharing a site: 1/(1 - I_2 - I_3) still equals the renewal
    forward = phi(system, PhiMove(0, 1), ORDER)
    for i in range(1, 4):
        forward = ps_mul(forward, phi(system, PhiMove(i, i + 1, i - 1), ORDER))
    assert ps_mul(forward, geometric_resum(total)) == chain_mgf(system, ORDER)


def test_system_validation():
    with pytest.raises(InvalidSystemError):
        LevelSystem(Walk.REFLECTED_1D, (F(1), F(2)))
    with pytest.raises(InvalidSystemError):
        LevelSystem(Walk.REFLECTED_1D, (F(0), F(2), F(1)))
    with pytest.raises(InvalidSystemError):
        LevelSystem(Walk.BESSEL_3D, (F(0),))
    # the library caps nothing; the command line bounds its input
    assert LevelSystem(Walk.BESSEL_3D, tuple(range(40))).top_index == 39


# --- uniform reflected systems: the Chebyshev weights ------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_uniform_moves_are_sech_and_half_sech(N):
    system = rbm(*range(N + 1))
    sech = sech_series(1)
    half_sech = sech.scale(F(1, 2))
    assert phi(system, PhiMove(0, 1), ORDER) == sech
    for i in range(1, N):
        assert phi(system, PhiMove(i, i + 1, i - 1), ORDER) == half_sech
        assert phi(system, PhiMove(i, i - 1, i + 1), ORDER) == half_sech


@pytest.mark.parametrize("N", range(1, 9))
def test_renewal_in_sech_gives_chebyshev_weights(N):
    # the recursion with H_0 = s and up = down = s/2, s = sech w: the
    # uniform 0 -> N transform sech(N w) = 1/T_N(1/s) = sum_l p_l s^l
    count = 60
    s = PowerSeries(tuple(F(int(j == 1)) for j in range(count)), "s")
    one = PowerSeries.one(count, "s")
    half = s.scale(F(1, 2))
    passage = total = s
    for _ in range(1, N):
        passage = ps_div(half, one - ps_mul(half, passage))
        total = ps_mul(total, passage)
    assert list(total.coeffs) == chebyshev_recip_weights(N, count)


# --- randomized ground truth --------------------------------------------------------

positive_levels = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)


@st.composite
def random_systems(draw):
    walk = draw(st.sampled_from([Walk.REFLECTED_1D, Walk.BESSEL_3D]))
    count = draw(st.integers(min_value=1, max_value=7))
    levels = draw(
        st.lists(
            positive_levels, min_size=count, max_size=count, unique=True
        )
    )
    return LevelSystem(walk, (F(0),) + tuple(sorted(levels)))


@settings(max_examples=25, deadline=None)
@given(random_systems())
def test_random_systems_decompose_exactly(system):
    assert decomposition_residual(system, ORDER) == 0


# --- even transforms: computed in u = w^2, equal to the series in w ---------------


def _w_phi(system, move, order):
    """The move's closed form restated on series in w (see the module)."""
    lv, bessel_walk = system.levels, system.walk is Walk.BESSEL_3D
    f, t, tb = move.from_level, move.to_level, move.taboo_level

    def ratio(kind, a, b):
        return ps_div(kernel(kind, a, order, "w"), kernel(kind, b, order, "w"))

    if tb is None:
        kind = Kernel.SINH_OVER_ARG if bessel_walk else Kernel.COSH
        return ratio(kind, lv[f], lv[t])
    if bessel_walk and lv[t] == 0:
        return PowerSeries.zero(order, "w")
    near, far = abs(lv[f] - lv[tb]), abs(lv[t] - lv[tb])
    out = ratio(Kernel.SINH_OVER_ARG, near, far).scale(near / far)
    return out.scale(lv[t] / lv[f]) if bessel_walk else out


def _w_chain(system, order):
    one = PowerSeries.one(order, "w")
    passage = out = _w_phi(system, PhiMove(0, 1), order)
    for i in range(1, system.top_index):
        up = _w_phi(system, PhiMove(i, i + 1, i - 1), order)
        down = _w_phi(system, PhiMove(i, i - 1, i + 1), order)
        passage = ps_div(up, one - ps_mul(down, passage))
        out = ps_mul(out, passage)
    return out


def _legal_moves(top):
    """Every free upward move and every taboo move `phi` accepts."""
    for f in range(top + 1):
        for t in range(top + 1):
            if f < t:
                yield PhiMove(f, t)
                if f >= 1:
                    yield PhiMove(f, t, f - 1)
            elif t < f < top:
                yield PhiMove(f, t, f + 1)


@st.composite
def small_systems(draw):
    walk = draw(st.sampled_from([Walk.REFLECTED_1D, Walk.BESSEL_3D]))
    count = draw(st.integers(min_value=1, max_value=4))
    levels = draw(
        st.lists(positive_levels, min_size=count, max_size=count, unique=True)
    )
    return LevelSystem(walk, (F(0),) + tuple(sorted(levels)))


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(min_value=1, max_value=40))
def test_transforms_are_even_and_equal_their_w_series(system, order):
    def check(got, want):
        assert got == want
        assert got.var == "w" and got.order == order
        assert not any(got.nums[1::2])

    for move in _legal_moves(system.top_index):
        check(phi(system, move, order), _w_phi(system, move, order))
    check(chain_mgf(system, order), _w_chain(system, order))
    free = PhiMove(0, system.top_index)
    check(direct_mgf(system, order), _w_phi(system, free, order))
    assert decomposition_residual(system, order) == 0


# --- the chain as a start and its loops ---------------------------------------


# the most levels above 0 on which the chain is linear in its loops
_LINEAR_TOP = {Walk.REFLECTED_1D: 3, Walk.BESSEL_3D: 4}


@st.composite
def linear_systems(draw):
    walk = draw(st.sampled_from([Walk.REFLECTED_1D, Walk.BESSEL_3D]))
    count = draw(st.integers(min_value=2, max_value=_LINEAR_TOP[walk]))
    levels = draw(
        st.lists(positive_levels, min_size=count, max_size=count, unique=True)
    )
    return LevelSystem(walk, (F(0),) + tuple(sorted(levels)))


def _exit_up(walk, a, r, b):
    """P(from r, hit b before a), by the walk's scale function: r on the
    reflected walk, -1/r on the Bessel(3) process."""
    if walk is Walk.REFLECTED_1D:
        return (r - a) / (b - a)
    return b * (r - a) / (r * (b - a))


@settings(max_examples=40, deadline=None)
@given(linear_systems(), st.integers(min_value=1, max_value=16))
def test_renewal_loops_resum_to_the_free_move(system, order):
    start, loops = renewal_loops(system, order)
    one = PowerSeries.one(order, "w")
    denominator = one
    for loop in loops:
        denominator = denominator - loop
    assert ps_div(start, denominator) == direct_mgf(system, order)

    # constant terms: up_0 = H_0 is certain, and from a_i the walk leaves
    # (a_(i-1), a_(i+1)) surely, so down_i = 1 - up_i
    lv, walk = system.levels, system.walk
    ups = [F(1)] + [
        _exit_up(walk, lv[i - 1], lv[i], lv[i + 1])
        for i in range(1, system.top_index)
    ]
    want_start = F(1)
    for up in ups:
        want_start *= up
    assert start.constant_term == want_start
    assert [loop.constant_term for loop in loops] == [
        (1 - ups[i]) * ups[i - 1] for i in range(1, system.top_index)
    ]

    # one level more than the linear range: the fraction keeps loop products
    top = lv[-1]
    extra = range(1, _LINEAR_TOP[walk] + 2 - system.top_index)
    wider = LevelSystem(walk, lv + tuple(top + j for j in extra))
    assert wider.top_index == _LINEAR_TOP[walk] + 1
    with pytest.raises(InvalidSystemError, match="linear in its loops"):
        renewal_loops(wider, order)
