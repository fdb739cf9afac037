"""One benchmark job: a fresh process that runs one workload with cold memos.

    python3 perfbench/job.py <workload> <seed> <setup|run|trace>

Run from the repository root with ``src`` on PYTHONPATH. The process
imports the package and builds the workload's inputs from the seed, then
prints ``ready``; that is where set-up ends. In ``setup`` mode it exits
there. Otherwise it runs the workload (with per-layer probes in ``trace``
mode) and prints one JSON line: the time of each unit of work and of a
reference computation run next to it, the records the caller checks,
and the process's peak memory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction

import umbralwalk
from umbralwalk import cli, identities, montecarlo
from umbralwalk.identities import IdentityId, IdentityParams
from umbralwalk.loopcalc import Walk

_X_HOP = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 3))

# the level pairs and signed points of the verify-all matrix
_THREE_SITE_PAIRS = ((1, 3), (1, 4), (2, 5))
_X_SIGNED = (0, 1, Fraction(-1, 3))

# two 16,384-path chunks per config, so the package's own pool forks
_MC_PATHS = 32_768
# simulation seed of the canonical configurations (the tier-1 fixture's);
# a path runs until it hits, so the slowest of 32,768 paths sets a
# simulation's step count, and another seed would change the work done
_MC_SEED = 20240


def build_hop_sums(seed: int) -> list:
    cases = []
    for N in (1, 2, 3):
        cases += [
            (IdentityId.EULER_CHEB, IdentityParams(n=n, x=x, cheb_index=N))
            for n in range(21) for x in _X_HOP
        ]
    for identity in (
        IdentityId.FOUR_UNIFORM_1D,
        IdentityId.N3_UNIFORM,
        IdentityId.N4_UNIFORM_CORRECTED,
    ):
        cases += [
            (identity, IdentityParams(n=n, x=x))
            for n in range(21) for x in _X_HOP
        ]
    cases += [
        (IdentityId.EVEN_BERNOULLI, IdentityParams(m=m)) for m in range(1, 11)
    ]
    random.Random(seed).shuffle(cases)
    return cases


def _cli_verify(identity: str, n: int, x, levels: tuple, expect: str) -> tuple:
    levels_arg = ",".join(str(v) for v in levels)
    argv = ["verify", "--id", identity, "--n", str(n), f"--x={x}",
            f"--levels={levels_arg}"]
    return ("verify", argv, expect)


def build_multi_level(seed: int) -> list:
    """The multi-level (umbral) instances of the verify-all matrix, its
    stated audits, known discrepancies and degenerate check, each as one
    ``umbralwalk verify`` call, plus the errata report."""
    units = []
    for pair in _THREE_SITE_PAIRS:
        units += [
            _cli_verify("THREE_SITES_1D_CORRECTED", n, x, pair, "VERIFIED")
            for n in (0, 1) for x in _X_SIGNED
        ]
        units += [
            _cli_verify("THREE_SITES_1D_CORRECTED", n, 0, pair, "RESIDUAL_NONZERO")
            for n in (2, 5, 8)
        ]
    for levels in ((1, 2, 4), (1, 3, 5)):
        units += [
            _cli_verify("N3_GENERAL", n, x, levels, "VERIFIED")
            for n in range(7) for x in (0, 1)
        ]
    units += [
        _cli_verify("FOUR_GENERAL_1D", 1, x, (1, 2, 4), "VERIFIED")
        for x in (0, 1)
    ]
    units += [
        _cli_verify("THREE_SITES_1D_STATED", 1, 0, (1, 3), "RESIDUAL_NONZERO"),
        ("verify", ["verify", "--id", "N4_UNIFORM_STATED", "--n", "1"],
         "RESIDUAL_NONZERO"),
        _cli_verify("THREE_SITES_1D_STATED", 1, 7, (1, 2), "DEGENERATE_TRIVIAL"),
        ("errata", None, None),
    ]
    random.Random(seed).shuffle(units)
    return units


def build_monte_carlo(seed: int) -> list:
    # the canonical rbm_hit, bessel_hit and rbm_taboo configurations,
    # in an order permuted by the seed
    def cfg(walk, start, target, taboo=None):
        return montecarlo.WalkConfig(
            walk=walk, start=start, target=target, z=0.5, taboo=taboo,
            dt=1e-4, paths=_MC_PATHS, seed=_MC_SEED, t_max=50.0,
        )

    units = [
        ("rbm_hit", cfg(Walk.REFLECTED_1D, 0.0, 1.0)),
        ("bessel_hit", cfg(Walk.BESSEL_3D, 0.0, 1.0)),
        ("rbm_taboo", cfg(Walk.REFLECTED_1D, 1.0, 2.0, taboo=0.0)),
    ]
    random.Random(seed).shuffle(units)
    return units


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def instance_record(report: dict) -> dict:
    """The checked fields of one identity report: identity, params,
    status, K_used and the exact lhs and partial sum (as digests)."""
    return {
        "identity": report["identity"],
        "params": [
            report["n"], report["x"], report["levels"],
            report.get("N"), report.get("m"),
        ],
        "status": report["status"],
        "K_used": report["K_used"],
        "lhs": _digest(report["lhs"]),
        "rhs_partial": _digest(report["rhs_partial"]),
    }


def payload_records(payload, path: str = "") -> dict:
    """Records of every identity report nested in a payload (the errata
    report), keyed by their path in it."""
    out = {}
    if isinstance(payload, dict):
        if "identity" in payload:
            out[path] = instance_record(payload)
        for key, value in payload.items():
            out |= payload_records(value, f"{path}/{key}")
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            out |= payload_records(value, f"{path}/{i}")
    return out


# -- host speed ----------------------------------------------------------------
# A shared host's speed swings by up to 2x within seconds, so each unit's time
# is paired with the time of a fixed reference computation run next to it,
# and the job's time is also reported rescaled to the reference's nominal
# time: the job's time on a host of constant speed.

REF_NOMINAL_S = 1e-3


def reference_s() -> float:
    """Time of one run of the reference computation: an exact rational
    sum, the kind of work the exact engine does."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 200):
            total += Fraction(1, k * k)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Times units of work and the host's speed during them.

    The job's thread runs the reference before the first unit and after
    each. A sampler thread per CPU the job may use, pinned to that CPU,
    also runs it every 100 ms; a unit's reference time is the mean over
    CPUs of the samples taken during it, or, for a unit too short to hold
    a sample, the mean of the two runs around it. The samplers measure
    the CPUs that long units and worker processes run on."""

    def __init__(self) -> None:
        self.unit_s: list[float] = []
        self.unit_ref_s: list[float] = []
        self._samples: list[tuple[float, int, float]] = []  # start, cpu, s
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.wait(0.1):
            start = time.perf_counter()
            self._samples.append((start, cpu, reference_s()))

    def __enter__(self):
        self._before = reference_s()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    @contextlib.contextmanager
    def unit(self):
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.unit_s.append(end - start)
        after = reference_s()
        per_cpu: dict[int, list[float]] = {}
        for t, cpu, ref in list(self._samples):
            if start <= t < end:
                per_cpu.setdefault(cpu, []).append(ref)
        if per_cpu:
            ref = statistics.fmean(statistics.fmean(v) for v in per_cpu.values())
        else:
            ref = (self._before + after) / 2
        self.unit_ref_s.append(ref)
        self._before = after


def _times(clock) -> dict:
    return {"unit_s": clock.unit_s, "unit_ref_s": clock.unit_ref_s}


def run_hop_sums(units: list) -> dict:
    records = {}
    with Clock() as clock:
        for identity, params in units:
            with clock.unit():
                report = identities.verify(identity, params)
            rec = instance_record(report.to_json())
            records[f"{rec['identity']}:{json.dumps(rec['params'])}"] = rec
    return _times(clock) | {"records": records}


def run_multi_level(units: list) -> dict:
    records, expected, stdout_bytes = {}, {}, 0
    with Clock() as clock:
        for kind, argv, expect in units:
            buf = io.StringIO()
            with clock.unit(), contextlib.redirect_stdout(buf):
                if kind == "verify":
                    code = cli.main(argv)
                else:
                    errata = identities.errata_report()
            if kind == "verify":
                text = buf.getvalue()
                stdout_bytes += len(text.encode())
                rec = instance_record(json.loads(text)) | {"exit_code": code}
                key = f"{rec['identity']}:{json.dumps(rec['params'])}"
                records[key] = rec
                expected[key] = expect
            else:
                records |= payload_records(errata, "errata")
    return _times(clock) | {
        "records": records, "expected": expected, "stdout_bytes": stdout_bytes,
    }


def run_monte_carlo(units: list) -> dict:
    comparisons = {}
    with Clock() as clock:
        for name, cfg in units:
            simulate = (
                montecarlo.simulate_hit if cfg.taboo is None
                else montecarlo.simulate_taboo
            )
            with clock.unit():
                est = simulate(cfg)
            reference = montecarlo.eval_phi_numeric(
                cfg.walk, cfg.start, cfg.target, cfg.z, cfg.taboo
            )
            cmp = montecarlo.compare_closed_form(est, reference)
            comparisons[name] = {
                "mean": est.mean, "reference": reference,
                "rel_err": cmp.rel_err, "z_score": cmp.z_score,
                "passed": cmp.passed,
            }
    return _times(clock) | {"comparisons": comparisons}


WORKLOADS = {
    "hop_sums": (build_hop_sums, run_hop_sums),
    "multi_level": (build_multi_level, run_multi_level),
    "monte_carlo": (build_monte_carlo, run_monte_carlo),
}


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "umbralwalk": getattr(umbralwalk, "__version__", None),
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if workload != "monte_carlo":
        # a single-process job stays on one CPU, the one its sampler
        # thread measures
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build, run = WORKLOADS[workload]
    units = build(seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    probes = None
    if mode == "trace":
        from probes import Probes

        probes = Probes()
        probes.install()
    result = run(units)
    result["wall_s"] = sum(result["unit_s"])
    result["norm_wall_s"] = sum(
        t * REF_NOMINAL_S / ref
        for t, ref in zip(result["unit_s"], result["unit_ref_s"])
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024
    result["versions"] = _versions()
    if probes is not None:
        result["layers"] = probes.layer_metrics()
        result["call_table"] = probes.call_table()
        result["absent"] = probes.absent
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
