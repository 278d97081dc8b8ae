"""Test-time-learning inversion driver.

The model is reparameterized as the output of the convolutional generator
and the generator weights are fitted to the observed data.  Stage 1 fits
the generator output to a uniform reference model (so the start model
matches a conventional inversion's); stage 2 minimizes

    (1 - beta) * phi_d(F(m)) + beta * ||m - m_ref||_1,   m = net(w),

with beta = exp(-t / tau) cooling over epochs.  The data-misfit gradient
is bridged into weight space through a surrogate loss: with Jv =
grad_m phi_d held fixed, the scalar (1 - beta) * <Jv, m> + beta *
||m - m_ref||_1 has exactly the same weight gradient as the true
objective, so one J^T v per epoch (no solve beyond the model's own, see
:class:`~dcinv.forward.DCSimulation`) is all the physics the optimizer
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import adam_step, init_adam
from .errors import NumericalFailure, SolverFailure
from .fileio import check_ranges, ranged
from .forward import DataWeights, DCSimulation, chi_factor, phi_d
from .mesh import TensorMesh2D
from .net import NetParams, net_backward, net_forward
from .survey import Survey
from .trace import EpochRecord, InversionTrace


@dataclass(frozen=True)
class DipConfig:
    tau: float = ranged(1000.0, "(0, inf)")
    lr: float = ranged(1e-4, "(0, inf)")
    adam_beta1: float = ranged(0.9, "[0, 1)")
    adam_beta2: float = ranged(0.999, "[0, 1)")
    adam_eps: float = ranged(1e-8, "(0, inf)")
    epochs_stage1: int = ranged(5000, "[0, inf)")
    epochs_stage2: int = ranged(2000, "[0, inf)")
    dropout_rate: float = ranged(0.0, "[0, 1)")
    m_ref: float = ranged(float(np.log(0.01)), "(-inf, inf)")  # uniform half-space log-conductivity
    rng_seed: int = ranged(0, "[0, inf)")
    stage1_lr: float = ranged(1e-3, "(0, inf)")
    stage1_tol: float = ranged(0.05, "[0, inf)")  # stop when mean |m - m_ref| drops below this
    chi_stop: float = ranged(1.0, "[0, inf)")
    chi_patience: int = ranged(50, "[1, inf)")

    __post_init__ = check_ranges


def beta(t: float, tau: float) -> float:
    """Trade-off weight exp(-t / tau); 1 at t = 0, e^-1 at t = tau (> 0, as
    :class:`DipConfig` holds it)."""
    return float(np.exp(-t / tau))


def surrogate_loss(m: np.ndarray, jv: np.ndarray, beta_val: float,
                   m_ref: np.ndarray):
    """(value, gradient wrt m) of (1-beta) <Jv, m> + beta ||m - m_ref||_1.

    ``jv`` is treated as a constant: no gradient flows through it.  The
    gradient (1-beta) Jv + beta sign(m - m_ref) equals the gradient of the
    true objective with respect to m when Jv = grad_m phi_d.
    """
    m = np.asarray(m, dtype=float)
    jv = np.asarray(jv, dtype=float)
    m_ref = np.asarray(m_ref, dtype=float)
    if m.shape != jv.shape or m.shape != m_ref.shape:
        raise ValueError("m, Jv and m_ref must have equal length")
    diff = m - m_ref
    value = (1.0 - beta_val) * float(jv @ m) + beta_val * float(np.abs(diff).sum())
    grad = (1.0 - beta_val) * jv + beta_val * np.sign(diff)
    return value, grad


# A diverging generator overflows; its finite checks report that, not numpy.
@np.errstate(over="ignore", invalid="ignore")
def pretrain_stage1(params: NetParams, z: np.ndarray, mesh: TensorMesh2D,
                    config: DipConfig) -> None:
    """Fit the generator output to the reference model (mean absolute error).

    Runs Adam until ``mean |m - m_ref| <= config.stage1_tol`` or the epoch
    cap; dropout stays off so the loss curve is deterministic for a given
    seed.  Trains ``params`` in place, ready for checkpointing and reuse.
    """
    n = mesh.n_cells
    m_ref = np.full(n, float(config.m_ref))
    state = init_adam(params.arrays)
    for _ in range(config.epochs_stage1):
        m, tr = net_forward(params, z, mesh.shape, mode="eval")
        diff = m - m_ref
        loss = float(np.abs(diff).mean())
        if not np.isfinite(loss):
            raise NumericalFailure("stage-1 loss is not finite")
        if loss <= config.stage1_tol:
            break
        grads = net_backward(tr, np.sign(diff) / n)
        adam_step(params.arrays, grads, state, config.stage1_lr,
                  config.adam_beta1, config.adam_beta2, config.adam_eps)


@np.errstate(over="ignore", invalid="ignore")  # as pretrain_stage1
def invert_stage2(params: NetParams, z: np.ndarray, mesh: TensorMesh2D,
                  survey: Survey, d_obs: np.ndarray, weights: DataWeights,
                  config: DipConfig) -> InversionTrace:
    """Full stage-2 inversion on a mesh + survey pair; trains the pretrained
    ``params`` in place, whose dropout rate must be ``config.dropout_rate``."""
    if params.arch.dropout_rate != config.dropout_rate:
        raise ValueError(f"dropout rate {config.dropout_rate} is not the architecture's")
    sim = DCSimulation(mesh, survey)
    m_ref = np.full(mesh.n_cells, float(config.m_ref))
    d_obs = np.asarray(d_obs, dtype=float)
    w2 = weights.values ** 2

    mode = "train" if config.dropout_rate > 0 else "eval"
    rng = np.random.default_rng(config.rng_seed)

    state = init_adam(params.arrays)
    trace = InversionTrace()
    hits = 0
    for t in range(1, config.epochs_stage2 + 1):
        b = beta(t, config.tau)
        m, tr = net_forward(params, z, mesh.shape, mode=mode, rng=rng)
        if not np.all(np.isfinite(m)):
            raise NumericalFailure(f"epoch {t}: model is not finite")
        try:
            d_pred = sim.predict(m)
            jv = sim.jt_vec(m, w2 * (d_pred - d_obs))
        except SolverFailure as e:
            raise SolverFailure(f"epoch {t}: {e}") from e
        pd = phi_d(d_pred, d_obs, weights)
        chi = chi_factor(d_pred, d_obs, weights)
        loss, g_m = surrogate_loss(m, jv, b, m_ref)
        pm = float(np.abs(m - m_ref).sum())
        if not np.isfinite(loss) or not np.isfinite(pd):
            raise NumericalFailure(f"epoch {t}: loss is not finite")
        grads = net_backward(tr, g_m)
        adam_step(params.arrays, grads, state, config.lr,
                  config.adam_beta1, config.adam_beta2, config.adam_eps)
        trace.records.append(EpochRecord(epoch=t, beta=b, phi_d=pd, phi_m=pm,
                                         chi=chi, loss=loss))
        hits = hits + 1 if chi <= config.chi_stop else 0
        if hits >= config.chi_patience:
            break

    final_m, _ = net_forward(params, z, mesh.shape, mode="eval")
    if not np.all(np.isfinite(final_m)):
        raise NumericalFailure("final model is not finite")
    trace.final_model = final_m
    trace.converged = bool(trace.records) and trace.records[-1].chi <= config.chi_stop
    return trace

