"""Path simulation, determinism contract, closed-form comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

from umbralwalk import (
    ComparisonReport,
    ConfigError,
    HittingEstimate,
    Walk,
    WalkConfig,
    compare_closed_form,
    eval_phi_numeric,
    simulate_hit,
    simulate_taboo,
)
from umbralwalk import montecarlo as mc
from umbralwalk.montecarlo import _simulate, _simulate_chunk

pytestmark = pytest.mark.slow

SMALL = dict(dt=1e-3, paths=4000, seed=777, t_max=30.0)


def small_cfg(**kw):
    merged = {**SMALL, **kw}
    return WalkConfig(**merged)


# --- closed forms -----------------------------------------------------------


def test_phi_numeric_reflected_walk():
    assert eval_phi_numeric(Walk.REFLECTED_1D, 0.0, 1.0, 0.5) == pytest.approx(
        1.0 / math.cosh(1.0)
    )
    assert eval_phi_numeric(
        Walk.REFLECTED_1D, 1.0, 2.0, 0.5, taboo=0.0
    ) == pytest.approx(math.sinh(1.0) / math.sinh(2.0))


def test_phi_numeric_bessel():
    assert eval_phi_numeric(Walk.BESSEL_3D, 0.0, 3.0, 0.5) == pytest.approx(
        3.0 / math.sinh(3.0)
    )
    assert eval_phi_numeric(
        Walk.BESSEL_3D, 2.0, 1.0, 0.5, taboo=3.0
    ) == pytest.approx(0.5 * math.sinh(1.0) / math.sinh(2.0))
    assert eval_phi_numeric(Walk.BESSEL_3D, 1.0, 0.0, 0.5, taboo=2.0) == 0.0
    assert eval_phi_numeric(Walk.BESSEL_3D, 1.0, 0.0, 0.5) == 0.0


def test_phi_numeric_small_z_limit():
    assert eval_phi_numeric(Walk.REFLECTED_1D, 0.0, 2.0, 1e-12) == pytest.approx(
        1.0, abs=1e-9
    )


def _hyperbolic_quotient_phi(walk, start, target, z, taboo=None):
    """The closed forms as plain cosh/sinh quotients (overflow past ~710)."""
    w = math.sqrt(2.0 * z)
    if walk is Walk.REFLECTED_1D:
        if taboo is None:
            return math.cosh(start * w) / math.cosh(target * w)
        if target > start:
            return math.sinh((start - taboo) * w) / math.sinh((target - taboo) * w)
        return math.sinh((taboo - start) * w) / math.sinh((taboo - target) * w)
    if target == 0.0:
        return 0.0
    if taboo is None:
        if start == 0.0:
            return target * w / math.sinh(target * w)
        return target * math.sinh(start * w) / (start * math.sinh(target * w))
    pref = target / start
    if target > start:
        return pref * math.sinh((start - taboo) * w) / math.sinh((target - taboo) * w)
    return pref * math.sinh((taboo - start) * w) / math.sinh((taboo - target) * w)


@pytest.mark.parametrize("args", [
    (Walk.REFLECTED_1D, 0.0, 1.0, 0.5),
    (Walk.REFLECTED_1D, 1.0, 2.0, 0.5, 0.0),
    (Walk.REFLECTED_1D, 0.0, 2.0, 1e-12),
    (Walk.REFLECTED_1D, 2.0, 1.0, 0.5, 3.0),
    (Walk.BESSEL_3D, 0.0, 1.0, 0.5),
    (Walk.BESSEL_3D, 0.0, 3.0, 0.5),
    (Walk.BESSEL_3D, 1.0, 3.0, 0.5),
    (Walk.BESSEL_3D, 2.0, 1.0, 0.5, 3.0),
    (Walk.BESSEL_3D, 1.0, 2.0, 0.5, 0.5),
    (Walk.BESSEL_3D, 1.0, 0.0, 0.5, 2.0),
    (Walk.BESSEL_3D, 1.0, 0.0, 0.5),
    # arguments of mixed sign, which no valid WalkConfig produces
    (Walk.REFLECTED_1D, -1.0, 2.0, 0.5),
    (Walk.REFLECTED_1D, 1.0, 2.0, 0.5, 1.5),
    (Walk.BESSEL_3D, 1.0, 3.0, 0.5, 2.0),
])
def test_phi_numeric_matches_hyperbolic_quotients(args):
    got, want = eval_phi_numeric(*args), _hyperbolic_quotient_phi(*args)
    assert abs(got - want) <= 1e-15 * abs(want)


# z = 1/2, so w = 1; each expected value is its closed form in the gaps
@pytest.mark.parametrize("walk,start,target,taboo,expected", [
    # cosh(990)/cosh(1000) = e^(-10) (1 + e^(-1980)) / (1 + e^(-2000))
    (Walk.REFLECTED_1D, 990.0, 1000.0, None, math.exp(-10.0)),
    (Walk.REFLECTED_1D, -995.0, 1000.0, None, math.exp(-5.0)),
    # sinh(995)/sinh(1000) = e^(-5) (1 - e^(-1990)) / (1 - e^(-2000))
    (Walk.REFLECTED_1D, 995.0, 1000.0, 0.0, math.exp(-5.0)),
    (Walk.REFLECTED_1D, 5.0, 0.0, 1000.0, math.exp(-5.0)),
    # t / sinh(t) = 2t e^(-t) / (1 - e^(-2t))
    (Walk.BESSEL_3D, 0.0, 720.0, None, 1440.0 * math.exp(-720.0)),
    (Walk.BESSEL_3D, 990.0, 1000.0, None, 1000.0 / 990.0 * math.exp(-10.0)),
    (Walk.BESSEL_3D, 995.0, 1000.0, 0.0, 1000.0 / 995.0 * math.exp(-5.0)),
    (Walk.BESSEL_3D, 10.0, 5.0, 1000.0, 0.5 * math.exp(-5.0)),
])
def test_phi_numeric_far_targets_do_not_overflow(
    walk, start, target, taboo, expected
):
    with pytest.raises(OverflowError):
        _hyperbolic_quotient_phi(walk, start, target, 0.5, taboo)
    got = eval_phi_numeric(walk, start, target, 0.5, taboo)
    assert got == pytest.approx(expected, rel=1e-12)


def test_phi_numeric_underflows_to_zero_far_from_the_start():
    # 1 / cosh(1000 sqrt 2) is about 1e-614, below the smallest double
    assert eval_phi_numeric(Walk.REFLECTED_1D, 0.0, 1000.0, 1.0) == 0.0
    assert eval_phi_numeric(Walk.BESSEL_3D, 0.0, 1000.0, 1.0) == 0.0


def test_phi_numeric_rejects_bad_input():
    with pytest.raises(ConfigError):
        eval_phi_numeric(Walk.REFLECTED_1D, 1.0, 0.5, 0.5)
    with pytest.raises(ConfigError):
        eval_phi_numeric(Walk.REFLECTED_1D, 0.0, 1.0, 0.0)


# --- comparator --------------------------------------------------------------


def test_comparator_passes_exact_match():
    est = HittingEstimate(0.5, 0.01, 100, 0, 0)
    report = compare_closed_form(est, 0.5)
    assert report.z_score == 0.0 and report.passed


def test_comparator_rejects_shifted_reference():
    est = HittingEstimate(0.5, 0.001, 100, 0, 0)
    report = compare_closed_form(est, 0.7)
    assert not report.passed


def test_comparator_without_spread_uses_only_the_allowances():
    # every contribution identical: no z-score, so it reads 0.0 and only
    # the relative (2%) and absolute (1e-9) allowances can pass
    exact = compare_closed_form(HittingEstimate(0.5, 0.0, 1, 0, 0), 0.5)
    assert exact.z_score == 0.0 and exact.rel_err == 0.0 and exact.passed
    assert compare_closed_form(HittingEstimate(0.505, 0.0, 1, 0, 0), 0.5).passed
    shifted = compare_closed_form(HittingEstimate(0.7, 0.0, 1, 0, 0), 0.5)
    assert shifted.z_score == 0.0 and not shifted.passed
    assert compare_closed_form(HittingEstimate(1e-9, 0.0, 0, 0, 1), 0.0).passed
    assert not compare_closed_form(HittingEstimate(2e-9, 0.0, 0, 0, 1), 0.0).passed


def test_comparator_absolute_floor_for_vanishing_reference():
    est = HittingEstimate(1.4e-11, 1e-14, 0, 0, 50)
    assert compare_closed_form(est, 0.0).passed


def test_unreachable_target_estimates_near_zero():
    cfg = WalkConfig(
        walk=Walk.BESSEL_3D, start=1.0, target=0.0, z=0.5, taboo=2.0,
        dt=1e-2, paths=200, seed=11, t_max=50.0,
    )
    est = simulate_taboo(cfg)
    assert est.n_hit_target == 0
    assert est.mean < 1e-9


# --- config validation -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=-1.0)
    with pytest.raises(ConfigError):
        WalkConfig(
            walk=Walk.REFLECTED_1D, start=3.0, target=2.0, z=0.5, taboo=2.5
        )
    with pytest.raises(ConfigError):
        simulate_hit(small_cfg(walk=Walk.REFLECTED_1D, start=1.0, target=2.0,
                               z=0.5, taboo=0.0))
    with pytest.raises(ConfigError):
        simulate_taboo(small_cfg(walk=Walk.REFLECTED_1D, start=0.0, target=1.0,
                                 z=0.5))


@pytest.mark.parametrize("dt,t_max", [(10.0, 1.0), (1e-3, 5e-4)])
def test_config_rejects_a_horizon_shorter_than_one_step(dt, t_max):
    # zero steps would censor every path and compare nothing
    with pytest.raises(ConfigError, match="shorter than one step"):
        WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5,
                   dt=dt, t_max=t_max)
    # a horizon of exactly one step is a run of one step
    WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5,
               dt=dt, t_max=dt)


def test_config_rejects_a_step_count_beyond_the_float_range():
    # 50 / 5e-324 is inf, whose floor the stepper cannot take
    with pytest.raises(ConfigError, match="t_max / dt overflows"):
        WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5,
                   dt=5e-324, t_max=50.0)


@pytest.mark.parametrize("walk", list(Walk))
@pytest.mark.parametrize("level", [0.0, 1.5])
def test_config_rejects_zero_length_moves(walk, level):
    with pytest.raises(ConfigError, match="target must differ from start"):
        WalkConfig(walk=walk, start=level, target=level, z=0.5)


@pytest.mark.parametrize("field", ["start", "target", "taboo", "z", "dt", "t_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_inputs(field, bad):
    kw = dict(walk=Walk.REFLECTED_1D, start=1.0, target=2.0, z=0.5, taboo=0.0)
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        WalkConfig(**{**kw, field: bad})


# --- the estimate's fold ------------------------------------------------------------


@pytest.mark.parametrize("paths", [1, 64, 20_000])
def test_sample_without_spread_reports_its_value_and_no_error(paths):
    # every path censored at a horizon of 10 steps: one value, no spread,
    # where the summed fold left rounding noise as a stderr
    cfg = WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=5.0, z=0.5,
                     dt=1e-3, paths=paths, seed=3, t_max=0.01)
    est = simulate_hit(cfg)
    assert est.n_censored == paths
    assert est.mean == math.exp(-0.5 * 0.01)
    assert est.stderr == 0.0


def test_sample_with_spread_keeps_the_summed_fold():
    cfg = small_cfg(walk=Walk.REFLECTED_1D, start=1.0, target=2.0, z=0.5,
                    taboo=0.0, paths=1500)
    contrib, _, _ = _simulate_chunk(cfg, 0, cfg.paths)
    est = _simulate(cfg)
    assert est.mean == float(contrib.sum() / cfg.paths)
    assert est.stderr == float(contrib.std(ddof=1) / math.sqrt(cfg.paths))


# --- determinism contract ----------------------------------------------------------


def test_repeat_run_is_bit_identical():
    cfg = small_cfg(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5)
    assert simulate_hit(cfg) == simulate_hit(cfg)
    cfgb = small_cfg(walk=Walk.BESSEL_3D, start=2.0, target=1.0, z=0.5,
                     taboo=3.0, paths=2000)
    assert simulate_taboo(cfgb) == simulate_taboo(cfgb)


def test_chunking_does_not_change_results():
    cfg = small_cfg(walk=Walk.BESSEL_3D, start=0.0, target=1.0, z=0.5,
                    paths=3001)
    whole = _simulate(cfg)
    chunked = _simulate(cfg, chunk_size=257)
    assert whole == chunked


def test_fold_is_a_pure_concatenation_of_path_slices():
    cfg = small_cfg(walk=Walk.REFLECTED_1D, start=1.0, target=2.0, z=0.5,
                    taboo=0.0, paths=1200)
    full, hits, taboos = _simulate_chunk(cfg, 0, 1200)
    left, lh, lt = _simulate_chunk(cfg, 0, 700)
    right, rh, rt = _simulate_chunk(cfg, 700, 1200)
    assert np.array_equal(full, np.concatenate([left, right]))
    assert (hits, taboos) == (lh + rh, lt + rt)


def test_contributions_bounded_and_counts_consistent():
    cfg = small_cfg(walk=Walk.REFLECTED_1D, start=1.0, target=2.0, z=0.5,
                    taboo=0.0, paths=2500)
    contrib, hits, taboos = _simulate_chunk(cfg, 0, cfg.paths)
    assert np.all(contrib >= 0.0) and np.all(contrib <= 1.0)
    est = simulate_taboo(cfg)
    assert est.n_hit_target + est.n_hit_taboo + est.n_censored == cfg.paths
    assert est.n_hit_target == hits and est.n_hit_taboo == taboos
    assert 0.0 <= est.mean <= 1.0 and est.stderr >= 0.0


def test_bessel_never_reaches_the_origin():
    cfg = WalkConfig(
        walk=Walk.BESSEL_3D, start=1.0, target=0.0, z=0.5,
        dt=1e-2, paths=50, seed=7, t_max=20.0,
    )
    est = simulate_hit(cfg)
    assert est.n_hit_target == 0
    assert est.n_censored == 50
    assert est.mean == pytest.approx(math.exp(-0.5 * 20.0))


def test_mean_strictly_decreasing_in_z_on_fixed_seed():
    means = []
    for z in (0.5, 1.0, 2.0):
        cfg = small_cfg(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=z,
                        paths=2000)
        means.append(simulate_hit(cfg).mean)
    assert means[0] > means[1] > means[2]


def test_uniforms_lie_strictly_inside_the_unit_interval():
    words = np.array([0, 2**64 - 2**11 - 1, 2**64 - 1], dtype=np.uint64)
    u = mc._uniforms(words)
    assert u[0] == 2.0**-54
    # the next-to-top h keeps its value; the top h + 1/2 rounds to 2^53,
    # and the double below 1 takes its place
    assert u[1] == 1.0 - 2.0**-52
    assert u[2] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(mc.ndtri(u)))


# --- blocked chunk against the per-step loop ---------------------------------------


def _normals(keys, counter):
    c = np.uint64((counter * mc._P2) & mc._U64)
    return mc.ndtri(mc._uniforms(mc._mix64(keys ^ c)))


def _normals3(keys, step):
    c = np.array(
        [((3 * step + comp) * mc._P2) & mc._U64 for comp in range(3)],
        dtype=np.uint64,
    )
    return mc.ndtri(mc._uniforms(mc._mix64(keys[:, None] ^ c[None, :])))


def _reference_chunk(cfg, lo, hi):
    """One step per iteration: what block stepping must reproduce bit for bit."""
    n = hi - lo
    sqdt = math.sqrt(cfg.dt)
    n_steps = int(math.floor(cfg.t_max / cfg.dt + 1e-9))
    contrib = np.zeros(n)
    alive = np.arange(n)
    akeys = mc._path_keys(cfg.seed, lo, hi)
    hit_count = 0
    taboo_count = 0
    bessel = cfg.walk is Walk.BESSEL_3D
    reflect = cfg.taboo is None and not bessel
    upward = cfg.target >= cfg.start
    if bessel:
        xyz = np.zeros((n, 3))
        xyz[:, 0] = cfg.start
    else:
        pos = np.full(n, float(cfg.start))

    for step in range(n_steps):
        if alive.size == 0:
            break
        if bessel:
            xyz += sqdt * _normals3(akeys, step)
            radial = np.sqrt(np.einsum("ij,ij->i", xyz, xyz))
        else:
            pos += sqdt * _normals(akeys, step)
            if reflect:
                np.abs(pos, out=pos)
            radial = pos
        if upward:
            hit = radial >= cfg.target
        else:
            hit = radial <= cfg.target
        if cfg.taboo is not None:
            if upward:
                taboo_hit = ~hit & (radial <= cfg.taboo)
            else:
                taboo_hit = ~hit & (radial >= cfg.taboo)
            absorbed = hit | taboo_hit
        else:
            taboo_hit = None
            absorbed = hit
        if absorbed.any():
            contrib[alive[hit]] = math.exp(-cfg.z * (step + 1) * cfg.dt)
            hit_count += int(hit.sum())
            if taboo_hit is not None:
                taboo_count += int(taboo_hit.sum())
            keep = ~absorbed
            alive = alive[keep]
            akeys = akeys[keep]
            if bessel:
                xyz = xyz[keep]
            else:
                pos = pos[keep]
    contrib[alive] = math.exp(-cfg.z * cfg.t_max)
    return contrib, hit_count, taboo_count


BLOCK_CASES = {
    "rbm_free": dict(walk=Walk.REFLECTED_1D, start=0.0, target=1.0),
    "rbm_taboo_up": dict(walk=Walk.REFLECTED_1D, start=1.0, target=2.0,
                         taboo=0.0),
    "rbm_taboo_down": dict(walk=Walk.REFLECTED_1D, start=1.0, target=0.0,
                           taboo=2.0),
    "bessel_free": dict(walk=Walk.BESSEL_3D, start=0.0, target=1.0),
    "bessel_taboo_up": dict(walk=Walk.BESSEL_3D, start=2.0, target=3.0,
                            taboo=1.0),
    "bessel_taboo_down": dict(walk=Walk.BESSEL_3D, start=2.0, target=1.0,
                              taboo=3.0),
    "bessel_unreachable_origin": dict(walk=Walk.BESSEL_3D, start=1.0,
                                      target=0.0, taboo=2.0, dt=1e-2),
    # horizons that end inside a block, with paths still alive
    "rbm_horizon": dict(walk=Walk.REFLECTED_1D, start=0.0, target=3.0,
                        t_max=2.05),
    "bessel_horizon": dict(walk=Walk.BESSEL_3D, start=0.0, target=2.0,
                           t_max=1.337),
}

# (seed, paths, normals per block): odd path counts, two seeds, and block
# budgets that are and are not a multiple of the live path count
BLOCK_RUNS = [(777, 301, mc._BLOCK_NORMALS), (31, 1001, 1 << 9), (31, 301, 1000)]


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocked_chunk_is_bit_identical_to_per_step_loop(name, monkeypatch):
    for seed, paths, budget in BLOCK_RUNS:
        cfg = WalkConfig(**{**SMALL, "z": 0.5, "seed": seed, "paths": paths,
                            **BLOCK_CASES[name]})
        want, want_hits, want_taboos = _reference_chunk(cfg, 0, paths)
        monkeypatch.setattr(mc, "_BLOCK_NORMALS", budget)
        got, hits, taboos = _simulate_chunk(cfg, 0, paths)
        assert np.array_equal(got, want), (name, seed, paths, budget)
        assert (hits, taboos) == (want_hits, want_taboos)
        if "horizon" in name:
            assert hits + taboos < paths  # censored inside the last block


def test_block_stepping_calls_ndtri_per_block_not_per_step(monkeypatch):
    """Far fewer ndtri calls than steps; at most 1% more variates.

    The surplus is the rest of a block after each absorption, in all about
    half a block budget times log(paths), so the run is long enough (about
    2e7 path-steps, 64k steps) for 1% to be a real bound.
    """
    calls = []
    real = mc.ndtri

    def counting(u):
        calls.append(u.size)
        return real(u)

    monkeypatch.setattr(mc, "ndtri", counting)
    cfg = WalkConfig(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5,
                     dt=1e-4, paths=2001, seed=5, t_max=50.0)
    _reference_chunk(cfg, 0, cfg.paths)
    steps, path_steps = len(calls), sum(calls)
    calls.clear()
    _simulate_chunk(cfg, 0, cfg.paths)
    assert len(calls) * 10 < steps
    assert path_steps <= sum(calls) <= 1.01 * path_steps


# --- accuracy against closed forms ---------------------------------------------------


def test_small_runs_agree_with_closed_forms():
    cases = [
        (small_cfg(walk=Walk.REFLECTED_1D, start=0.0, target=1.0, z=0.5),
         simulate_hit, eval_phi_numeric(Walk.REFLECTED_1D, 0.0, 1.0, 0.5)),
        (small_cfg(walk=Walk.BESSEL_3D, start=0.0, target=1.0, z=0.5),
         simulate_hit, eval_phi_numeric(Walk.BESSEL_3D, 0.0, 1.0, 0.5)),
        (small_cfg(walk=Walk.REFLECTED_1D, start=1.0, target=2.0, z=0.5,
                   taboo=0.0),
         simulate_taboo,
         eval_phi_numeric(Walk.REFLECTED_1D, 1.0, 2.0, 0.5, taboo=0.0)),
    ]
    for cfg, runner, reference in cases:
        est = runner(cfg)
        report = compare_closed_form(est, reference)
        assert report.passed, (cfg, est, reference, report)


def test_halving_dt_improves_or_stays_within_noise(canonical_mc):
    """Smaller steps shrink the overshoot bias toward the closed form."""
    for name, (cfg, _, reference, _) in canonical_mc.items():
        base_cfg = replace(cfg, paths=10_000)
        fine_cfg = replace(base_cfg, dt=base_cfg.dt / 2)
        runner = simulate_taboo if cfg.taboo is not None else simulate_hit
        base = runner(base_cfg)
        fine = runner(fine_cfg)
        improved = abs(fine.mean - reference) <= abs(base.mean - reference)
        within_noise = abs(fine.mean - reference) <= max(
            fine.stderr, base.stderr
        )
        assert improved or within_noise, (name, base, fine, reference)


def test_censoring_is_rare_for_canonical_configs(canonical_mc):
    for name, (cfg, est, _, _) in canonical_mc.items():
        assert est.n_censored / cfg.paths < 0.001, (name, est)
        assert est.n_hit_target + est.n_hit_taboo + est.n_censored == cfg.paths
