"""Per-layer probes for the traced benchmark run.

Installed from outside the package: every public function listed in
PROBED is replaced, in each loaded umbralwalk module that bound it
(``from .series import ps_mul``) and in its defining module, by a wrapper
that counts calls and accumulates total and self time. Self time is a
call's duration minus the time its probed callees took, so the nested
calls of the exact engine (verify -> rhs_term -> umbral_moment ->
kernel_power -> ps_mul) are split between layers without double
counting. A name or memo that a later version of the package no longer
has is reported absent instead of failing the run.

Monte Carlo chunks run in forked workers, so the ndtri probe keeps its
numbers in shared memory created before any pool starts, one slot per
process.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import time

# module -> public functions wrapped in that module's namespace
PROBED = {
    "series": (
        "ps_mul", "ps_div", "ps_pow", "kernel", "kernel_power",
        "geometric_resum",
    ),
    "polynomials": (
        "hop_euler", "hop_bernoulli", "eval_poly", "chebyshev_recip_weights",
        "bernoulli_number", "euler_number",
    ),
    "umbral": ("umbral_moment",),
    "loopcalc": (
        "phi", "loop_kernels", "chain_mgf", "direct_mgf",
        "decomposition_residual",
    ),
    "identities": (
        "verify", "rhs_term", "eval_lhs", "ensure_ground_truth",
        "errata_report", "verify_all_payload",
    ),
    "montecarlo": ("simulate_hit", "simulate_taboo"),
    "cli": ("main",),
}

_SLOTS = 64  # processes that may report ndtri use: the job plus its workers


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class SharedLeaf:
    """Calls, seconds and array elements of a leaf, summed over processes."""

    def __init__(self) -> None:
        self._data = multiprocessing.RawArray("d", 3 * _SLOTS)
        self._next = multiprocessing.RawValue("i", 0)
        self._lock = multiprocessing.Lock()
        self._pid = -1
        self._base = 0

    def add(self, seconds: float, elements: int) -> None:
        if self._pid != os.getpid():
            with self._lock:
                slot = self._next.value
                self._next.value = slot + 1
            if slot >= _SLOTS:
                raise RuntimeError("more processes than shared probe slots")
            self._pid = os.getpid()
            self._base = 3 * slot
        d, b = self._data, self._base
        d[b] += 1
        d[b + 1] += seconds
        d[b + 2] += elements

    def totals(self) -> tuple[float, float, float]:
        d = self._data
        return tuple(sum(d[i::3]) for i in range(3))


class Probes:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        # counters filled by per-function hooks
        self.mul_ops = 0
        self.coeff_bits = 0
        self.coeffs = 0
        self.kernel_power_hits = 0
        self.blocks = 0
        self.terms = 0
        self.ndtri = SharedLeaf()
        self._stack = [[0.0, 0]]  # per open call: [callee seconds, callee calls]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "umbralwalk" or name.startswith("umbralwalk.")
        ]
        for mod_name, names in PROBED.items():
            module = importlib.import_module(f"umbralwalk.{mod_name}")
            for fn_name in names:
                key = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(key)
                    continue
                self.originals[key] = original
                _rebind(modules, original, self._wrap(key, original))
        mc = importlib.import_module("umbralwalk.montecarlo")
        ndtri = getattr(mc, "ndtri", None)
        if ndtri is None:
            self.absent.append("montecarlo.ndtri")
        else:
            _rebind(modules, ndtri, self._wrap_shared_leaf(ndtri))

    def _wrap(self, key: str, fn):
        stat = self.stats[key] = Stat()
        hook = _HOOKS.get(key)
        stack = self._stack
        clock = time.perf_counter

        def probe(*args, **kwargs):
            outer = clock()
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - frame[0]
            if hook is not None:
                hook(self, args, result, frame[1])
            # the caller's self time excludes this call and its bookkeeping
            parent = stack[-1]
            parent[1] += 1
            parent[0] += clock() - outer
            return result

        probe.__wrapped__ = fn
        return probe

    def _wrap_shared_leaf(self, fn):
        shared = self.ndtri
        stack = self._stack
        clock = time.perf_counter

        def probe(x, *args, **kwargs):
            outer = clock()
            result = fn(x, *args, **kwargs)
            shared.add(clock() - outer, getattr(x, "size", 1))
            parent = stack[-1]
            parent[1] += 1
            parent[0] += clock() - outer
            return result

        probe.__wrapped__ = fn
        return probe

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, list]:
        """Per-layer metrics as name -> [value, unit]."""

        def calls(key):
            stat = self.stats.get(key)
            return stat.calls if stat else 0

        def self_s(key):
            stat = self.stats.get(key)
            return stat.self_s if stat else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, list] = {}
        for key in (
            "series.ps_mul", "series.ps_div", "series.kernel",
            "series.kernel_power", "polynomials.hop_euler",
            "polynomials.hop_bernoulli", "polynomials.eval_poly",
            "umbral.umbral_moment", "loopcalc.decomposition_residual",
            "loopcalc.phi", "identities.verify", "identities.rhs_term",
        ):
            out[f"{key}.calls"] = [calls(key), "count"]
            out[f"{key}.self_s"] = [self_s(key), "s"]
        for key in (
            "polynomials.chebyshev_recip_weights", "loopcalc.chain_mgf",
            "loopcalc.direct_mgf", "identities.eval_lhs",
            "identities.ensure_ground_truth", "identities.errata_report",
            "cli.main",
        ):
            out[f"{key}.self_s"] = [self_s(key), "s"]
        out["series.kernel_power.hit_ratio"] = [
            ratio(self.kernel_power_hits, calls("series.kernel_power")), "ratio"
        ]
        out["series.mul_ops"] = [self.mul_ops, "count"]
        out["series.coeff_bits"] = [ratio(self.coeff_bits, self.coeffs), "bits"]
        out["series.memo_series"] = [self._memo_series(), "count"]
        out["polynomials.hop.cache_hit_ratio"] = [
            self._hop_cache_hit_ratio(), "ratio"
        ]
        out["umbral.blocks_per_moment"] = [
            ratio(self.blocks, calls("umbral.umbral_moment")), "count"
        ]
        out["identities.terms"] = [self.terms, "count"]
        _, ndtri_s, variates = self.ndtri.totals()
        simulate_s = [
            (s.self_s, s.total_s) for k, s in self.stats.items()
            if k in ("montecarlo.simulate_hit", "montecarlo.simulate_taboo")
        ]
        out["montecarlo.simulate.self_s"] = [sum(s for s, _ in simulate_s), "s"]
        out["montecarlo.path_steps"] = [int(variates), "count"]
        # wall time of the simulations per normal variate, workers in parallel
        out["montecarlo.ns_per_path_step"] = [
            ratio(1e9 * sum(t for _, t in simulate_s), variates), "ns"
        ]
        out["montecarlo.ndtri.self_s"] = [ndtri_s, "s"]
        return out

    def call_table(self) -> dict[str, list[float]]:
        return {
            key: [s.calls, round(s.total_s, 6), round(s.self_s, 6)]
            for key, s in self.stats.items()
            if s.calls
        }

    def _memo_series(self) -> int:
        series = importlib.import_module("umbralwalk.series")
        memo = getattr(series, "_POWER_CACHE", None)
        if memo is None:
            self.absent.append("series._POWER_CACHE")
            return 0
        return sum(len(powers) for powers in memo.values())

    def _hop_cache_hit_ratio(self) -> float:
        hits = lookups = 0
        for key in ("polynomials.hop_euler", "polynomials.hop_bernoulli"):
            info = getattr(self.originals.get(key), "cache_info", None)
            if info is None:
                self.absent.append(f"{key}.cache_info")
                continue
            stats = info()
            hits += stats.hits
            lookups += stats.hits + stats.misses
        return hits / lookups if lookups else 0.0


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# -- hooks: counts measured where the work happens ---------------------------


def _series_op(probes: Probes, args, result, callee_calls) -> None:
    # products of an order-n Cauchy product or division, from the orders
    coeffs = getattr(result, "coeffs", ())
    n = len(coeffs)
    probes.mul_ops += n * (n + 1) // 2
    probes.coeffs += n
    probes.coeff_bits += sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs
    )


def _kernel_power(probes: Probes, args, result, callee_calls) -> None:
    if callee_calls == 0:
        probes.kernel_power_hits += 1


def _umbral_moment(probes: Probes, args, result, callee_calls) -> None:
    probes.blocks += len(args[0].blocks)


def _verify(probes: Probes, args, result, callee_calls) -> None:
    probes.terms += result.K_used + 1


_HOOKS = {
    "series.ps_mul": _series_op,
    "series.ps_div": _series_op,
    "series.kernel_power": _kernel_power,
    "umbral.umbral_moment": _umbral_moment,
    "identities.verify": _verify,
}
