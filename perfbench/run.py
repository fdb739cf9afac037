"""The umbralwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every job is a fresh process with cold
memos, as each ``umbralwalk`` command is; one client waits for each job
before starting the next (a closed loop), and jobs repeat until S seconds
of jobs have run. The host is a few shared vCPUs whose speed swings by
up to 2x within seconds, so a job times each unit of work together with
a fixed reference computation run next to it (see ``job.py``):
``norm_wall_s`` is the job's wall time with each unit rescaled to the
reference's nominal speed, the median over the run's jobs; the raw wall
time is in the details and the traced run's ``job.wall_s``. Set-up
(interpreter start, package import, inputs built from the seed) is
measured in every job and in set-up-only processes before and after the
jobs. Each job's output is checked field by field: identity reports
against the reference recorded in ``perfbench/reference``, Monte Carlo
estimates by the package's comparator.

Workloads:
  hop_sums     ``verify`` on the 514 single-index identity instances,
               in an order permuted by the seed
  multi_level  ``umbralwalk verify`` (through ``cli.main``) on the
               multi-level instances of the verify-all matrix, audits,
               discrepancies and degenerate check, plus the errata
               report, in an order permuted by the seed
  monte_carlo  the three canonical simulations, 32,768 paths each, at
               the canonical simulation seed, in an order permuted by
               the seed

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` untraced jobs alternate with traced ones (per-layer
probes from ``perfbench/probes.py``), and the last line holds the
per-layer metrics, the untraced raw wall time, the traced normalised
wall time and the tracing overhead (traced minus untraced). The line before it holds the
details: machine, versions, samples, mismatches and per-function calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hop_sums", "multi_level", "monte_carlo")
TIME_LIMIT_S = 170.0
# set-up-only processes before the jobs, and after them
SETUP_BEFORE, SETUP_AFTER = 3, 2


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float):
    """Run one job process; return (set-up seconds, job result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, str(seed), mode]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} {mode} job exceeded the time limit")
    if proc.returncode != 0 or ready_line.strip() != "ready":
        raise BenchError(f"{workload} {mode} job failed (exit {proc.returncode})")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_jobs(workload, seed, modes, seconds, deadline) -> dict[str, list]:
    """Closed loop: one job after another, a round of `modes` at a time,
    until `seconds` have passed.
    Alternating traced and untraced jobs exposes both to the same machine
    load. No round starts that would likely end past `deadline`."""
    jobs = {mode: [] for mode in modes}
    start = time.perf_counter()
    while not jobs[modes[0]] or time.perf_counter() - start < seconds:
        if jobs[modes[0]]:
            round_s = (time.perf_counter() - start) / len(jobs[modes[0]])
            if time.perf_counter() + 2 * round_s > deadline:
                break
        for mode in modes:
            setup_s, job = spawn(workload, seed, mode, deadline)
            jobs[mode].append(job | {"setup_s": setup_s})
    return jobs


def load_reference(workload: str) -> dict | None:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def check(workload: str, job: dict, reference: dict | None):
    """Return (attempted, failed, mismatches) for one job's outputs.

    A field that differs from the reference is a mismatch and a failure;
    an exact match whose status is not the one the instance should reach
    (VERIFIED, unless multi_level names another) is a failure only: the
    verifier's result, reproduced faithfully.
    """
    if workload == "monte_carlo":
        failing = [
            f"{name}: {cmp}" for name, cmp in job["comparisons"].items()
            if not cmp["passed"]
        ]
        return len(job["comparisons"]), len(failing), failing
    mismatches: list[str] = []
    records = job["records"]
    expected = job.get("expected", {})
    keys = sorted(set(records) | set(reference))
    failed = 0
    for key in keys:
        got, want = records.get(key), reference.get(key)
        if got != want:
            mismatches.append(f"{key}: got {got}, want {want}")
            failed += 1
        elif workload == "hop_sums" and got["status"] != "VERIFIED":
            failed += 1
        elif key in expected and got["status"] != expected[key]:
            failed += 1
    return len(keys), failed, mismatches


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine() -> dict:
    sha = None
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True
            )
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join("src", "umbralwalk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def unit_ms(jobs: list[dict]) -> list[float]:
    return [1000 * s for job in jobs for s in job["unit_s"]]


def median_of(jobs: list[dict], key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def end_to_end(setup: list[float], jobs: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "norm_wall_s": (median_of(jobs, "norm_wall_s"), "s"),
        "peak_rss_mb": (max(j["peak_rss_mb"] for j in jobs), "MB"),
    }


def median_job(jobs: list[dict]) -> dict:
    return sorted(jobs, key=lambda j: j["norm_wall_s"])[(len(jobs) - 1) // 2]


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    # one traced job's numbers, so that self times and counts stay consistent
    job = median_job(traced)
    out = {name: tuple(pair) for name, pair in job["layers"].items()}
    out["montecarlo.rel_err_max"] = (
        max((c["rel_err"] for c in job.get("comparisons", {}).values()), default=0.0),
        "ratio",
    )
    out["cli.stdout_bytes"] = (job.get("stdout_bytes", 0), "bytes")
    # latency of one unit of work (one verify call on hop_sums), untraced;
    # the tail moves with the seed's memo-fill order, so it has no bound
    units = unit_ms(untraced)
    out["unit_ms.p50"] = (percentile(units, 0.50), "ms")
    out["unit_ms.p95"] = (percentile(units, 0.95), "ms")
    out["job.wall_s"] = (median_of(untraced, "wall_s"), "s")
    traced_s = median_of(traced, "norm_wall_s")
    out["trace.norm_wall_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - median_of(untraced, "norm_wall_s"), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "umbralwalk", "__init__.py")):
        print("error: run from the repository root (src/umbralwalk missing)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    reference = None
    if args.workload != "monte_carlo":
        reference = load_reference(args.workload)
        if reference is None:
            print(f"error: no reference for {args.workload}", file=sys.stderr)
            return 2
    try:
        # set-up-only processes before and after the jobs, plus each job's
        # own set-up, so that the median spans the run's machine load
        setup = [
            spawn(args.workload, args.seed, "setup", deadline)[0]
            for _ in range(SETUP_BEFORE)
        ]
        modes = ("run", "trace") if args.trace else ("run",)
        jobs = run_jobs(args.workload, args.seed, modes, args.seconds, deadline)
        setup += [
            spawn(args.workload, args.seed, "setup", deadline)[0]
            for _ in range(SETUP_AFTER)
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced, traced = jobs["run"], jobs.get("trace", [])
    setup += [job["setup_s"] for job in untraced + traced]

    attempted = failed = 0
    mismatches: list[str] = []
    for job in untraced + traced:
        a, f, m = check(args.workload, job, reference)
        attempted += a
        failed += f
        mismatches += m
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(setup, untraced)
    units = unit_ms(untraced)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine() | untraced[0]["versions"],
        "setup_s": setup,
        "job_wall_s": [j["wall_s"] for j in untraced],
        "job_norm_wall_s": [j["norm_wall_s"] for j in untraced],
        "ref_ms": [
            1000 * statistics.median(j["unit_ref_s"]) for j in untraced
        ],
        "traced_job_norm_wall_s": [j["norm_wall_s"] for j in traced],
        "unit_ms": {
            "samples": len(units),
            **{f"p{q}": percentile(units, q / 100) for q in (50, 90, 95, 99)},
        },
        "mismatches": mismatches[:20],
        "comparisons": untraced[0].get("comparisons"),
    }
    if traced:
        job = median_job(traced)
        details["absent"] = job["absent"]
        details["calls"] = job["call_table"]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
