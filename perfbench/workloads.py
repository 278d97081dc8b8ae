"""The benchmark's workloads: inputs made from the seed, the timed library
call, and the checks on its output.

Every workload is case 1 (dike dipping at 45 degrees) with 5 % noise, run
through the public API only.  A workload is a fixed list of problems; each
problem is one call to ``pretrain_stage1``, ``invert_stage2`` or
``gauss_newton_invert`` whose inputs depend only on the seed.  Where the
outcome depends on the seed (the stage-1 epoch count, the Gauss-Newton data
fit), a run solves several problems with sub-seeds and the benchmark
reports medians, so one seed's luck does not move the figures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import dcinv
import dcinv.dip
import dcinv.tikhonov
from dcinv.errors import NumericalFailure, SolverFailure
from dcinv.metrics import rmse

DIP_DEGREES = 45.0
NOISE_REL = 0.05
DIP_EPOCHS = 4          # stage-2 epochs per dip_full problem
# Beta cooling of dip_full.  An epoch costs the same whatever tau is.  With
# the default tau = 1000, beta stays near 1 for these few epochs: the L1
# pull toward m_ref outweighs the data term, and chi of the dropout-perturbed
# epoch models scatters by about 10 % with no trend (over seeds 21-48 the
# fifth epoch ended above the first for seed 32).  With tau = 10 the data
# term takes over within the run and chi falls by 30 % or more in 4
# epochs, so "chi at the last epoch below chi at the first" checks the
# physics.
DIP_TAU = 10.0
PRETRAIN_PROBLEMS = 6   # networks pretrained per pretrain_full run
GN_PROBLEMS = 3         # noise draws inverted per gn_desk run
# Inner CG steps per Gauss-Newton iteration, a fixed budget (cg_tol 0).  With
# the default cg_tol the count ran from 7 to 30 depending on the draw, and an
# iteration costs about 0.15 s per step, so iter_s measured the draw rather
# than the solves; a few draws also needed 12 iterations instead of 3, and
# the adaptive stop turned a 1e-8 change in the solves into a change of up
# to 8 % in chi_final.
GN_CG_STEPS = 12

# Relative tolerance of each output value against its record.  It must
# admit a solver swap that moves the data by about 1e-8 relative: swapping
# the PCG solves for a sparse LU moved dip_full's values by about 1e-9 and
# gn_desk's by up to 2.0e-4 (chi_final) and 1.1e-5 (model_rmse) over 18
# noise draws.  pretrain_full makes no solves.
REFERENCE_RTOL = {
    "dip_full": {"chi_final": 1e-4, "model_rmse": 1e-4},
    "pretrain_full": {"iterations": 1e-4, "model_rmse": 1e-4},
    "gn_desk": {"chi_final": 1e-3, "model_rmse": 1e-4},
}

FAILURES = (SolverFailure, NumericalFailure)


@dataclass
class Problem:
    """One timed call: ``run(root)`` performs it inside the context ``root``
    (a trace span named ``root_span``, or nothing), ``check(out)`` judges
    its output."""

    key: str
    root_span: str
    run: object
    check: object


@dataclass
class Solved:
    """What a timed call produced, as the checks and metrics need it."""

    seconds: float
    iterations: int
    iter_s: list[float]
    values: dict = field(default_factory=dict)   # compared with the reference
    failures: list[str] = field(default_factory=list)


def sub_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


@contextmanager
def ticks(module, attr: str):
    """Timestamps of every call to ``module.attr`` (one call per outer iteration)."""
    original = getattr(module, attr)
    stamps: list[float] = []

    def tick(*args, **kwargs):
        stamps.append(time.perf_counter())
        return original(*args, **kwargs)

    setattr(module, attr, tick)
    try:
        yield stamps
    finally:
        setattr(module, attr, original)


def _timed(call, root, module, attr):
    """Run ``call()`` inside ``root``; return (result, seconds, tick stamps)."""
    # The trace hooks go in first: the tick wraps whatever they bound.
    with root, ticks(module, attr) as stamps:
        t0 = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - t0
    return out, seconds, stamps


def _scenario(scale: str):
    spec, truth = dcinv.build_case1(DIP_DEGREES, scale)
    mesh = spec.mesh()
    survey = spec.survey()
    return mesh, survey, truth


def _observed(d_clean, noise_seed: int):
    d_obs, std = dcinv.add_noise(d_clean, NOISE_REL, noise_seed)
    floor = 1e-4 * float(np.median(np.abs(d_obs)))
    return d_obs, dcinv.weights_from_std(std, floor=floor)


def _chi(mesh, survey, m, d_obs, weights) -> float:
    d_pred = dcinv.DCSimulation(mesh, survey).predict(m)
    return dcinv.chi_factor(d_pred, d_obs, weights)


def _finite(name, *arrays) -> list[str]:
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else [f"{name} not finite"]


# -- dip_full ---------------------------------------------------------------

def setup_dip_full(seed: int) -> list[Problem]:
    """Full scale: data, then the stage-1 checkpoint stage 2 starts from."""
    mesh, survey, truth = _scenario("full")
    d_clean = dcinv.DCSimulation(mesh, survey).predict(truth)
    d_obs, weights = _observed(d_clean, seed)
    cfg = dcinv.DipConfig(dropout_rate=0.1, rng_seed=seed, epochs_stage2=DIP_EPOCHS,
                          tau=DIP_TAU)
    arch = dcinv.arch_for_mesh(mesh.nz, mesh.nx, dropout_rate=cfg.dropout_rate)
    z = dcinv.sample_latent(seed, arch.latent_dim)
    checkpoint = dcinv.init_params(seed, arch)
    dcinv.pretrain_stage1(checkpoint, z, mesh, cfg)

    def run(root):
        params = checkpoint.copy()
        trace, seconds, stamps = _timed(
            lambda: dcinv.invert_stage2(params, z, mesh, survey, d_obs, weights, cfg),
            root, dcinv.dip, "net_forward")
        # one generator pass per epoch, plus the final evaluation
        return trace, Solved(seconds, len(trace.records), list(np.diff(stamps)))

    def check(out) -> Solved:
        trace, solved = out
        m = trace.final_model
        chis = [r.chi for r in trace.records]
        solved.failures += _finite("final model", m, chis)
        if len(chis) != DIP_EPOCHS:
            solved.failures.append(f"ran {len(chis)} epochs, expected {DIP_EPOCHS}")
        elif not chis[-1] < chis[0]:
            solved.failures.append(f"chi rose from {chis[0]:.6g} to {chis[-1]:.6g}")
        solved.values = {"chi_final": _chi(mesh, survey, m, d_obs, weights),
                         "model_rmse": rmse(m, truth)}
        return solved

    return [Problem(str(seed), "dip.loop", run, check)]


# -- pretrain_full ----------------------------------------------------------

def setup_pretrain_full(seed: int) -> list[Problem]:
    """Full scale, fresh generators: stage 1 never touches the physics."""
    mesh, _, truth = _scenario("full")
    problems = []
    for i in range(PRETRAIN_PROBLEMS):
        s = sub_seed(seed, i)
        cfg = dcinv.DipConfig(dropout_rate=0.1, rng_seed=s)
        arch = dcinv.arch_for_mesh(mesh.nz, mesh.nx, dropout_rate=cfg.dropout_rate)
        z = dcinv.sample_latent(s, arch.latent_dim)
        problems.append(_pretrain_problem(f"{seed}.{i}", mesh, truth, cfg,
                                          dcinv.init_params(s, arch), z))
    return problems


def _pretrain_problem(key, mesh, truth, cfg, init, z) -> Problem:
    def run(root):
        params = init.copy()
        _, seconds, stamps = _timed(
            lambda: dcinv.pretrain_stage1(params, z, mesh, cfg),
            root, dcinv.dip, "net_forward")
        # one generator pass per epoch; the last finds the loss under tolerance
        return params, Solved(seconds, len(stamps), list(np.diff(stamps)))

    def check(out) -> Solved:
        params, solved = out
        m, _ = dcinv.net_forward(params, z, mesh.shape, mode="eval")
        loss = float(np.abs(m - cfg.m_ref).mean())
        solved.failures += _finite("stage-1 model", m)
        if solved.iterations >= cfg.epochs_stage1 or not loss <= cfg.stage1_tol:
            solved.failures.append(f"stopped after {solved.iterations} epochs with "
                                   f"loss {loss:.4g}, not at stage1_tol")
        solved.values = {"iterations": solved.iterations,
                         "model_rmse": rmse(m, truth)}
        return solved

    return Problem(key, "dip.loop", run, check)


# -- gn_desk ----------------------------------------------------------------

REG = dict(p_s=0, p_x=1, p_z=1, alpha_s=0.005, alpha_x=0.5, alpha_z=0.5,
           use_sensitivity_weights=True)


def setup_gn_desk(seed: int) -> list[Problem]:
    """Desk scale, the README's sparse-norm setup, one noise draw per problem."""
    mesh, survey, truth = _scenario("desk")
    d_clean = dcinv.DCSimulation(mesh, survey).predict(truth)
    reg = dcinv.RegularizationConfig(**REG)
    gn = dcinv.GNConfig(target_chi=1.0, cg_tol=0.0, cg_maxiter=GN_CG_STEPS)
    problems = []
    for i in range(GN_PROBLEMS):
        d_obs, weights = _observed(d_clean, sub_seed(seed, i))
        problems.append(_gn_problem(f"{seed}.{i}", mesh, survey, truth,
                                    d_obs, weights, reg, gn))
    return problems


def _gn_problem(key, mesh, survey, truth, d_obs, weights, reg, gn) -> Problem:
    def run(root):
        trace, seconds, stamps = _timed(
            lambda: dcinv.gauss_newton_invert(mesh, survey, d_obs, weights, reg, gn),
            root, dcinv.tikhonov, "EpochRecord")
        # one record per Gauss-Newton iteration
        return trace, Solved(seconds, len(trace.records), list(np.diff(stamps)))

    def check(out) -> Solved:
        trace, solved = out
        m = trace.final_model
        solved.failures += _finite("final model", m)
        chi = _chi(mesh, survey, m, d_obs, weights)
        if not (trace.converged and chi <= gn.target_chi):
            solved.failures.append(f"did not reach target chi: {chi:.4g}")
        solved.values = {"chi_final": chi, "model_rmse": rmse(m, truth)}
        return solved

    return Problem(key, "tikhonov.invert", run, check)


SETUPS = {
    "dip_full": setup_dip_full,
    "pretrain_full": setup_pretrain_full,
    "gn_desk": setup_gn_desk,
}

# Set-ups per untraced run; setup_s is their median.  dip_full's pretrains
# a network (about 11 s), so it sets up twice to keep a run short; the
# others take milliseconds, and more repeats steady their median for free.
SETUP_REPEATS = {"dip_full": 2, "pretrain_full": 5, "gn_desk": 5}


def solve(problem: Problem, root) -> Solved:
    """Run and check one problem; a solver or numerical failure is a failed check."""
    try:
        return problem.check(problem.run(root))
    except FAILURES as e:
        return Solved(float("nan"), 0, [], failures=[f"{type(e).__name__}: {e}"])
