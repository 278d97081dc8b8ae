"""Ablation harness: upsampling operator, hidden-block count, dropout.

Each suite runs the reparameterized inversion over one variant axis on a
shared data realization and tabulates the chi-factor, model RMS error
against the truth, and the mean absolute spatial gradient of the
recovered model (the smoothness the upsampler is supposed to buy).
A run that fails numerically is recorded and the suite continues; any
other error propagates.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .dip import DipConfig
from .errors import NumericalFailure
from .metrics import mean_abs_gradient, rmse
from .runs import ArchChoice, DipRun, SimulateRun, execute
from .scenarios import ScenarioSpec
from .trace import load_grid, load_trace

SUITES = ("upsampler", "blocks", "dropout")


def suite_variants(suite: str, cfg: DipConfig):
    """(label, architecture choice, config) per run of a suite.

    The block-count suite disables dropout so the block count is the only
    thing changing; the other suites inherit the base dropout setting.
    """
    if suite == "upsampler":
        return [(f"upsampler-{u}", ArchChoice(3, u), cfg)
                for u in ("bilinear", "nearest", "transposed")]
    if suite == "blocks":
        no_drop = replace(cfg, dropout_rate=0.0)
        return [(f"blocks-{n}", ArchChoice(n, "bilinear"), no_drop) for n in (1, 3, 5)]
    if suite == "dropout":
        return [(f"dropout-{rate:g}", ArchChoice(3, "bilinear"),
                 replace(cfg, dropout_rate=rate))
                for rate in (0.0, 0.1)]
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")


def run_ablation(suites, spec: ScenarioSpec, cfg: DipConfig, out_dir: str,
                 workers: int = 1):
    """Execute a sequence of suites on one data realization; returns a row
    per (suite, label).
    A variant that recurs across suites (``blocks-3`` is ``dropout-0``) runs
    once, into the subdirectory of its first label under ``out_dir``;
    ``summary.txt`` holds one table per suite.  The runs go to a pool of
    ``min(workers, number of runs)`` processes when that is above 1."""
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    sim_paths = execute(SimulateRun(spec, os.path.join(out_dir, "data")))
    truth, nx, nz = load_grid(sim_paths["model_true"])

    runs, plan = {}, []  # runs: the run by what it runs; plan: (suite, label, key)
    for suite in suites:
        for label, arch, run_cfg in suite_variants(suite, cfg):
            run = DipRun(spec, run_cfg, arch, sim_paths["data"], None,
                         os.path.join(out_dir, label))
            key = replace(run, out_dir="")  # a run is determined up to where it writes
            runs.setdefault(key, run)
            plan.append((suite, label, key))

    workers = min(workers, len(runs))  # a fork pool starts all its processes at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_guarded, runs.values()))
    else:
        outcomes = [_run_guarded(run) for run in runs.values()]
    by_run = dict(zip(runs, outcomes))

    rows = []
    for suite, label, key in plan:
        (ok, err), run_dir = by_run[key], runs[key].out_dir
        if not ok:
            rows.append({"suite": suite, "run": label, "status": f"failed: {err}",
                         "chi": float("nan"), "rmse": float("nan"),
                         "smoothness": float("nan")})
            continue
        model, _, _ = load_grid(os.path.join(run_dir, "model.txt"))
        trace = load_trace(os.path.join(run_dir, "trace.txt"))
        rows.append({"suite": suite, "run": label, "status": "ok",
                     "chi": trace.records[-1].chi if trace.records else float("nan"),
                     "rmse": rmse(model, truth),
                     "smoothness": mean_abs_gradient(model.reshape(nz, nx))})

    _write_summary(os.path.join(out_dir, "summary.txt"), suites, rows)
    return rows


def _run_guarded(run: DipRun):
    try:
        execute(run)
        return True, ""
    except NumericalFailure as e:  # a SolverFailure too; the row records it, the suite goes on
        return False, f"{type(e).__name__}: {e}"


def _write_summary(path, suites, rows) -> None:
    with open(path, "w") as f:
        for suite in suites:
            f.write(f"# dcinv ablation v1 suite={suite}\n")
            f.write(f"{'run':24s} {'chi':>10s} {'rmse':>10s} {'smoothness':>12s}  status\n")
            for r in rows:
                if r["suite"] == suite:
                    f.write(f"{r['run']:24s} {r['chi']:10.4f} {r['rmse']:10.4f} "
                            f"{r['smoothness']:12.6f}  {r['status']}\n")
