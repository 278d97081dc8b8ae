#!/usr/bin/env python3
"""dcinv benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload dip_full --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, metrics and units are declared in ``BENCHMARK.json``.

A run sets the workload up several times (``setup_s`` is the median), then
solves the workload's problems, one at a time, and repeats the whole list
while the next pass still fits in ``--seconds`` (it always makes one).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced solves of the first problem and reports
the per-layer metrics, whose spans it also writes to ``perfbench/results``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = usable_cores()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        if git.returncode == 0:
            commit = git.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": usable_cores(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": blas_threads, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    if p < 1:
        return None
    import numpy
    return p, float(numpy.percentile(samples, p))


def solve_all(problems, seconds: float, workloads) -> list:
    """Solve every problem once, then whole passes again while one still fits."""
    solved = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        solved += [(p, workloads.solve(p, nullcontext())) for p in problems]
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_pass) > seconds:
            return solved


def solve_traced(problem, seconds: float, workloads, tracer):
    """Alternate untraced and traced solves of one problem while time remains."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        untraced.append((problem, workloads.solve(problem, nullcontext())))
        tracer.run = len(traced)
        traced.append((problem, workloads.solve(problem, tracer.traced(problem.root_span))))
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_pair) > seconds:
            return untraced, traced


def check_values(workload: str, solved: list) -> tuple[int, int]:
    """Compare each problem's output values with the ones recorded for it.

    A repeated solve must also reproduce its first solve.  Mismatches are
    appended to the solve's failures.  Returns (problems checked against a
    record, problems without one).
    """
    from workloads import REFERENCE_RTOL

    rtol = REFERENCE_RTOL[workload]
    recorded = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as f:
            recorded = json.load(f).get(workload, {})
    first = {}
    checked = missing = 0
    for problem, s in solved:
        if s.failures and not s.values:
            continue
        expected = {}
        if problem.key in first:
            expected = {"first solve": first[problem.key]}
        else:
            first[problem.key] = s.values
            if problem.key in recorded:
                expected = {"recorded": recorded[problem.key]}
                checked += 1
            else:
                missing += 1
        for source, values in expected.items():
            for name, want in values.items():
                got = s.values.get(name)
                if got is None or not math.isclose(got, want, rel_tol=rtol[name]):
                    s.failures.append(f"{name} {got!r} differs from the {source} {want!r}")
    return checked, missing


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(setup_times: list[float], solved: list) -> tuple[dict, list[str]]:
    """Medians over the solves whose checks passed."""
    ok = [s for _, s in solved if not s.failures]
    iter_s = [t for s in ok for t in s.iter_s]
    metrics = {
        "setup_s": _median(setup_times),
        "run_s": _median(s.seconds for s in ok),
        # per call first, so a call with many iterations does not outvote the rest
        "iter_s_p50": _median(_median(s.iter_s) for s in ok if s.iter_s),
        "iterations": _median(s.iterations for s in ok),
        "model_rmse": _median(s.values["model_rmse"] for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = []
    tail = tail_percentile(iter_s)
    if tail is None:
        notes.append(f"iter_s_pNN       n/a: {len(iter_s)} iteration samples, "
                     "a tail percentile needs at least 11")
    else:
        notes.append(f"iter_s_p{tail[0]:<13d} {tail[1]:.6g} s "
                     f"({len(iter_s)} samples, 10 or more above it)")
    chis = [s.values["chi_final"] for s in ok if "chi_final" in s.values]
    if chis:
        notes.append(f"chi_final        {_median(chis):.6g} ratio "
                     f"(median of {len(chis)})")
    failed = sum(1 for _, s in solved if s.failures)
    notes.append(f"fail_ratio       {failed / len(solved):.6g} ratio "
                 f"({failed} of {len(solved)})")
    return metrics, notes


def print_problems(solved: list, label: str = "") -> None:
    for problem, s in solved:
        values = " ".join(f"{k} {v:.6g}" for k, v in s.values.items())
        status = "ok" if not s.failures else "FAILED: " + "; ".join(s.failures)
        print(f"{label}problem {problem.key}: {s.seconds:.4f} s, {s.iterations} "
              f"iterations, {values} [{status}]")


def run_workload(args, spec: dict) -> int:
    if not (SRC / "dcinv" / "__init__.py").is_file():
        print(f"error: no dcinv package under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import dcinv
    if not Path(dcinv.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dcinv from {dcinv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hooks
    import workloads

    env = environment(blas_threads)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup = workloads.SETUPS[args.workload]
    setup_times = []
    for _ in range(1 if args.trace else workloads.SETUP_REPEATS[args.workload]):
        t0 = time.perf_counter()
        problems = setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = hooks.Tracer()
    if args.trace:
        untraced, solved = solve_traced(problems[0], args.seconds, workloads, tracer)
        checked, missing = check_values(args.workload, untraced + solved)
        print_problems(untraced, "untraced ")
        print_problems(solved, "traced   ")
        runs = {i: s.seconds for i, (_, s) in enumerate(solved) if not s.failures}
        ok_untraced = [s.seconds for _, s in untraced if not s.failures]
        metrics = tracer.layer_metrics(runs) if runs else {}
        metrics["trace.overhead_s"] = (
            statistics.median(runs.values()) - statistics.median(ok_untraced)
            if runs and ok_untraced else 0.0)
        notes = [f"absent hook targets: {', '.join(tracer.absent) or 'none'}",
                 f"forward.* share of traced run_s: {metrics.pop('forward.share', 0):.3f}"]
        declared = spec["per_layer"]
        solved = untraced + solved
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "env": env})
    else:
        solved = solve_all(problems, args.seconds, workloads)
        checked, missing = check_values(args.workload, solved)
        print_problems(solved)
        metrics, notes = end_to_end(setup_times, solved)
        declared = spec["end_to_end"]

    if missing:
        notes.append(f"reference: no recorded output for {missing} problem(s) of "
                     f"seed {args.seed}; checked {checked}")
    else:
        notes.append(f"reference: {checked} problem(s) match the recorded output")
    failed = sum(1 for _, s in solved if s.failures)
    result = {"correct": failed == 0, "attempted": len(solved), "failed": failed,
              "metrics": {}}
    for m in declared:
        value = float(metrics.get(m["name"], math.nan))
        # Nothing measured it (every solve failed): the run is incorrect anyway.
        value = value if math.isfinite(value) else 0.0
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<16s} {value:.6g} {m['unit']}")
    for note in notes:
        print(note)

    firsts = {}
    for problem, s in solved:
        firsts.setdefault(problem.key, {"values": s.values, "failures": s.failures})
    with open(RESULTS / f"{stem}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "problems": firsts, **result}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    summary = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    for name, result in summary.items():
        state = ("no result" if result is None else
                 f"correct={result['correct']} failed {result['failed']} "
                 f"of {result['attempted']}")
        print(f"{name}: {state}")
    return worst if worst else (0 if all(summary.values()) else 1)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time to keep solving after the first pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
