"""Stochastic cross-validation of the hitting-time transforms.

Estimates E[e^(-z tau) ; target reached first] by Euler-scheme path
simulation and compares against the closed forms evaluated in double
precision by `eval_phi_numeric`, which reads each move's one statement,
`loopcalc.move_form`. The reflected walk updates X <- |X + sqrt(dt) G|;
the Bessel(3) walk advances a 3-component Brownian state and watches its
norm. Taboo runs evolve without reflection (absorption happens before
the origin can matter) and paths that reach the forbidden level
contribute zero; paths still alive at the horizon contribute the upper
bound e^(-z t_max) and are counted as censored, never dropped.

Randomness is counter-based and keyed by (seed, path index, counter):

    u(i, c) = mix64( mix64(seed ^ (i * P1)) ^ (c * P2) )

with mix64 the SplitMix64 finalizer, mapped to a uniform in (0, 1) and
then to a normal variate by the inverse-CDF method (scipy's ndtri). The
counter is the step for the reflected walk and 3 * step + component for
the Bessel walk. Every path's contribution therefore depends only on
(seed, path index), so any chunking, ordering, or worker count
reproduces bit-identical results; the final mean is a fixed-order fold
over the per-path contribution array.

Because a variate is a pure function of its key and counter, the
simulator draws ahead. Each iteration hashes and inverts, in one call,
the normals of a block of steps for every live path: about 2^15
variates, or a single step while one step needs more than that. It then
advances the component-major state row by row and tests absorption once
for the whole block. A path absorbed inside a block is credited at its
own step and the variates drawn for it after that step are discarded, so
the results are those of a one-step-at-a-time loop, bit for bit. Late in
a run few paths are alive, and a per-step loop would spend its time on
per-call overhead rather than arithmetic.

Discretization overshoot bias is acknowledged, not corrected; the
comparator's 2% relative allowance absorbs it and the dt-halving
property test tracks it.

numpy and scipy load at the first simulation, not with this module, so
a process that only runs the exact engine never imports them. The
simulator imports both before its pool forks, and the workers inherit
them.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from typing import TYPE_CHECKING

from .loopcalc import Kernel, Record, Walk, move_form

if TYPE_CHECKING:
    import numpy as np

_P1 = 0x9E3779B97F4A7C15
_P2 = 0xD1B54A32D192ED03
_M2 = 0xBF58476D1CE4E5B9
_M3 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

_CHUNK = 1 << 14
# normals hashed and inverted at once by one block of _simulate_chunk
_BLOCK_NORMALS = 1 << 15


class ConfigError(ValueError):
    """Simulation configuration violates its invariants."""


def _check_move(
    start: float, target: float, z: float, taboo: float | None
) -> None:
    """Raise ConfigError unless the move is one the simulator runs: finite
    levels on the nonnegative half-line, a target other than the start, a
    finite positive z and, for a taboo move, the start strictly between
    the target and the taboo level."""
    for name, value in (
        ("start", start), ("target", target), ("taboo", taboo), ("z", z)
    ):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if start < 0 or target < 0:
        raise ConfigError("levels live on the nonnegative half-line")
    if target == start:
        # the stepper would credit every path with a hit at step 1,
        # where the closed form is 1, or 0 for the Bessel origin
        raise ConfigError(f"target must differ from start, both are {start}")
    if z <= 0:
        raise ConfigError(f"z must be positive, got {z}")
    if taboo is not None:
        lo, hi = sorted((target, taboo))
        if not lo < start < hi:
            raise ConfigError(
                "taboo runs need start strictly between target and taboo"
            )


class WalkConfig(Record):
    walk: Walk
    start: float
    target: float
    z: float
    taboo: float | None = None
    dt: float = 1e-4
    paths: int = 100_000
    seed: int = 0
    t_max: float = 50.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "walk", Walk(self.walk))
        _check_move(self.start, self.target, self.z, self.taboo)
        for name in ("dt", "t_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.dt <= 0 or self.t_max <= 0:
            raise ConfigError("dt and t_max must be positive")
        # _simulate_chunk runs floor(t_max / dt + 1e-9) steps
        steps = self.t_max / self.dt
        if steps + 1e-9 < 1:
            raise ConfigError(
                f"t_max = {self.t_max} is shorter than one step dt = {self.dt}"
            )
        if steps == math.inf:
            raise ConfigError(f"t_max / dt overflows at dt = {self.dt}")
        if self.paths < 1:
            raise ConfigError(f"need at least one path, got {self.paths}")


class HittingEstimate(
    namedtuple(
        "HittingEstimate", "mean stderr n_hit_target n_hit_taboo n_censored"
    )
):
    __slots__ = ()
    mean: float
    stderr: float
    n_hit_target: int
    n_hit_taboo: int
    n_censored: int

    @property
    def paths(self) -> int:
        return self.n_hit_target + self.n_hit_taboo + self.n_censored


class ComparisonReport(
    namedtuple("ComparisonReport", "z_score rel_err passed")
):
    __slots__ = ()
    z_score: float
    rel_err: float
    passed: bool


def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile, elementwise (scipy's ndtri).

    scipy loads at the first call, not with this module.
    `_block_normals` calls through this module-level name, so it can be
    replaced to observe the inversions.
    """
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(p)


def _mix64(z: np.ndarray) -> np.ndarray:
    # finalizer rounds applied in place; callers pass a fresh array
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M3)
    z ^= z >> np.uint64(31)
    return z


def _path_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    import numpy as np

    idx = np.arange(lo, hi, dtype=np.uint64)
    offsets = (idx * np.uint64(_P1 & _U64))  # wraps mod 2^64
    return _mix64(np.uint64(seed & _U64) ^ offsets)


def _uniforms(z: np.ndarray) -> np.ndarray:
    import numpy as np

    u = (z >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    # 2^53 - 1 + 0.5 rounds to 2^53, which would make u = 1 and its normal
    # infinite; the largest double below 1 takes its place
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return u


def _block_normals(keys: np.ndarray, first_counter: int, count: int) -> np.ndarray:
    """Normals for counters first..first+count-1, shape (count, len(keys))."""
    import numpy as np

    counters = np.arange(first_counter, first_counter + count, dtype=np.uint64)
    counters *= np.uint64(_P2)  # wraps mod 2^64
    return ndtri(_uniforms(_mix64(keys[None, :] ^ counters[:, None])))


def _simulate_chunk(cfg: WalkConfig, lo: int, hi: int) -> tuple[np.ndarray, int, int]:
    """Per-path contributions for path indices [lo, hi); pure in (cfg, lo, hi)."""
    import numpy as np

    n = hi - lo
    sqdt = math.sqrt(cfg.dt)
    n_steps = int(math.floor(cfg.t_max / cfg.dt + 1e-9))
    contrib = np.zeros(n)
    alive = np.arange(n)
    akeys = _path_keys(cfg.seed, lo, hi)
    hit_count = 0
    taboo_count = 0
    bessel = cfg.walk is Walk.BESSEL_3D
    dim = 3 if bessel else 1
    reflect = cfg.taboo is None and not bessel
    upward = cfg.target >= cfg.start
    state = np.zeros((dim, n))
    state[0] = cfg.start

    step = 0
    while step < n_steps and alive.size:
        m = alive.size
        block = max(1, min(n_steps - step, _BLOCK_NORMALS // (m * dim)))
        # row b holds the increments of step + b, counters dim * (step + b)
        # + component, and after the row loop the state after that step
        traj = _block_normals(akeys, dim * step, dim * block)
        traj *= sqdt
        traj = traj.reshape(block, dim, m)
        prev = state
        for row in traj:
            row += prev
            if reflect:
                np.abs(row, out=row)
            prev = row
        if bessel:
            # rounded as np.einsum("ij,ij->i") rounds an (m, 3) state:
            # (x^2 + z^2) + y^2
            x, y, z = traj[:, 0], traj[:, 1], traj[:, 2]
            radial = x * x
            radial += z * z
            radial += y * y
            np.sqrt(radial, out=radial)
        else:
            radial = traj[:, 0, :]
        if upward:
            hit = radial >= cfg.target
        else:
            hit = radial <= cfg.target
        absorbed = hit
        if cfg.taboo is not None:
            if upward:
                absorbed = hit | (radial <= cfg.taboo)
            else:
                absorbed = hit | (radial >= cfg.taboo)
        state = traj[-1]
        done = absorbed.any(axis=0)
        cols = np.flatnonzero(done)
        if cols.size:
            # each absorbed path stops at its first absorbing row
            first = absorbed[:, cols].argmax(axis=0)
            won = hit[first, cols]
            contrib[alive[cols[won]]] = [
                math.exp(-cfg.z * (s + 1) * cfg.dt)
                for s in (step + first[won]).tolist()
            ]
            n_won = int(won.sum())
            hit_count += n_won
            taboo_count += cols.size - n_won
            keep = ~done
            alive = alive[keep]
            akeys = akeys[keep]
            state = state.compress(keep, axis=1)
        step += block
    contrib[alive] = math.exp(-cfg.z * cfg.t_max)
    return contrib, hit_count, taboo_count


def _chunk_task(args: tuple[WalkConfig, int, int]):
    return _simulate_chunk(*args)


def _run_chunks(
    cfg: WalkConfig, spans: list[tuple[int, int]]
) -> list[tuple[np.ndarray, int, int]]:
    """Evaluate chunks, in parallel when the workload justifies it.

    Each chunk is a pure function of (config, index range), so the
    execution strategy cannot change a single bit of the result; the
    parallel path exists only for speed and falls back to sequential
    execution wherever fork-based pools are unavailable.
    """
    workers = min(len(spans), os.cpu_count() or 1)
    if workers > 1 and cfg.paths >= _CHUNK:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
                return list(
                    pool.map(_chunk_task, [(cfg, lo, hi) for lo, hi in spans])
                )
        except (ImportError, OSError, ValueError):
            pass
    return [_simulate_chunk(cfg, lo, hi) for lo, hi in spans]


def _simulate(cfg: WalkConfig, chunk_size: int = _CHUNK) -> HittingEstimate:
    # loaded before _run_chunks forks, so no worker imports them again
    import numpy as np
    import scipy.special  # noqa: F401

    spans = [
        (lo, min(lo + chunk_size, cfg.paths))
        for lo in range(0, cfg.paths, chunk_size)
    ]
    contribs = np.empty(cfg.paths)
    hit_count = 0
    taboo_count = 0
    for (lo, hi), (part, hits, taboos) in zip(spans, _run_chunks(cfg, spans)):
        contribs[lo:hi] = part
        hit_count += hits
        taboo_count += taboos
    censored = cfg.paths - hit_count - taboo_count
    if (contribs == contribs[0]).all():
        # no spread: the value itself, not its sum's rounding, and no error
        mean, stderr = float(contribs[0]), 0.0
    else:
        mean = float(contribs.sum() / cfg.paths)
        stderr = float(contribs.std(ddof=1) / math.sqrt(cfg.paths))
    return HittingEstimate(mean, stderr, hit_count, taboo_count, censored)


def simulate_hit(cfg: WalkConfig) -> HittingEstimate:
    """Estimate the free hitting transform E[e^(-z tau_target)]."""
    if cfg.taboo is not None:
        raise ConfigError("simulate_hit expects no taboo level")
    return _simulate(cfg)


def simulate_taboo(cfg: WalkConfig) -> HittingEstimate:
    """Estimate the taboo-restricted transform (defective distribution)."""
    if cfg.taboo is None:
        raise ConfigError("simulate_taboo needs a taboo level")
    return _simulate(cfg)


def _cosh_ratio(a: float, b: float) -> float:
    """cosh(a) / cosh(b) as e^(|a|-|b|) (1 + e^(-2|a|)) / (1 + e^(-2|b|)).

    Only exponentials of nonpositive or difference arguments appear, so
    the ratio neither overflows nor loses precision for large |a|, |b|.
    """
    a, b = abs(a), abs(b)
    growth = (1.0 + math.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * b))
    return math.exp(a - b) * growth


def _sinh_ratio(a: float, b: float) -> float:
    """sinh(a) / sinh(b) as e^(|a|-|b|) expm1(-2|a|) / expm1(-2|b|), signed."""
    sign = math.copysign(1.0, a) * math.copysign(1.0, b)
    a, b = abs(a), abs(b)
    return sign * math.exp(a - b) * math.expm1(-2.0 * a) / math.expm1(-2.0 * b)


def eval_phi_numeric(
    walk: Walk | str,
    start: float,
    target: float,
    z: float,
    taboo: float | None = None,
) -> float:
    """Double-precision value at w = sqrt(2z) of the move's statement,
    `loopcalc.move_form`: the exact formula, not a truncated series, with
    each hyperbolic ratio written through exponentials of differences so
    that far targets give a tiny value instead of an overflow.

    A move `WalkConfig` rejects raises the same ConfigError here, and so
    does a free move downward, except to the Bessel origin (0.0)."""
    walk = Walk(walk)
    _check_move(start, target, z, taboo)
    if walk is Walk.BESSEL_3D and target == 0.0:
        return 0.0  # the origin is never reached
    if taboo is None and target < start:
        name = "Bessel" if walk is Walk.BESSEL_3D else "reflected"
        raise ConfigError(f"free {name} moves go upward")
    kind, near, far, prefactor = move_form(walk, start, target, taboo)
    w = math.sqrt(2.0 * z)
    if kind is Kernel.COSH:
        return prefactor * _cosh_ratio(near * w, far * w)
    if kind is Kernel.SINH_OVER_ARG:
        if not near:
            # K(0) / K(t) = t / sinh(t) = -2t e^(-t) / expm1(-2t), t = far w
            t = far * w
            return prefactor * (-2.0 * t * math.exp(-t) / math.expm1(-2.0 * t))
        prefactor *= far / near
    return prefactor * _sinh_ratio(near * w, far * w)


def compare_closed_form(
    est: HittingEstimate, reference: float
) -> ComparisonReport:
    """Sampling z-score plus a relative allowance for discretization bias.

    A vanishing reference (an unreachable target) defeats any relative
    test, because censored paths contribute a deliberately conservative
    upper bound; an absolute floor of 1e-9 covers that case. A sample
    with no spread has no z-score (it reads 0.0), so only those two pass it.
    """
    diff = abs(est.mean - reference)
    rel_err = diff / max(abs(reference), 1e-300)
    z_score = (est.mean - reference) / est.stderr if est.stderr > 0 else 0.0
    passed = (est.stderr > 0 and abs(z_score) <= 4.0) or rel_err <= 0.02 or diff <= 1e-9
    return ComparisonReport(z_score, rel_err, passed)
