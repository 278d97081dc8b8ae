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

from dataclasses import dataclass, replace

import numpy as np

from .adam import adam_step, init_adam
from .errors import NumericalFailure, SolverFailure
from .forward import DataWeights, DCSimulation, _reference_vector, chi_factor, phi_d
from .mesh import TensorMesh2D
from .net import NetParams, net_backward, net_forward
from .survey import Survey
from .trace import EpochRecord, InversionTrace


@dataclass
class DipConfig:
    tau: float = 1000.0
    lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs_stage1: int = 5000
    epochs_stage2: int = 2000
    dropout_rate: float = 0.0
    m_ref: float = float(np.log(0.01))  # uniform half-space log-conductivity
    rng_seed: int = 0
    stage1_lr: float = 1e-3
    stage1_tol: float = 0.05  # stop when mean |m - m_ref| drops below this
    chi_stop: float = 1.0
    chi_patience: int = 50
    store_models: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lr <= 0 or self.stage1_lr <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")


def beta(t: float, tau: float) -> float:
    """Trade-off weight exp(-t / tau); 1 at t = 0, e^-1 at t = tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t < 0:
        raise ValueError("epoch index must be >= 0")
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


def pretrain_stage1(params: NetParams, z: np.ndarray, mesh: TensorMesh2D,
                    config: DipConfig) -> NetParams:
    """Fit the generator output to the reference model (mean absolute error).

    Runs Adam until ``mean |m - m_ref| <= config.stage1_tol`` or the epoch
    cap; dropout stays off so the loss curve is deterministic for a given
    seed.  Returns the updated params (also updated in place), ready for
    checkpointing and reuse.
    """
    n = mesh.n_cells
    m_ref = _reference_vector(config.m_ref, n)
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
    return params


def run_stage2(params: NetParams, z: np.ndarray, sim, d_obs: np.ndarray,
               weights: DataWeights, config: DipConfig,
               mesh_shape: tuple[int, int]) -> InversionTrace:
    """Stage-2 loop against any simulator exposing predict/jt_vec/n_data."""
    n = mesh_shape[0] * mesh_shape[1]
    m_ref = _reference_vector(config.m_ref, n)
    d_obs = np.asarray(d_obs, dtype=float)
    w2 = weights.values ** 2

    if config.dropout_rate > 0 and params.arch.dropout_rate != config.dropout_rate:
        params = NetParams(replace(params.arch, dropout_rate=config.dropout_rate),
                           params.arrays)
    mode = "train" if config.dropout_rate > 0 else "eval"
    rng = np.random.default_rng(config.rng_seed)

    state = init_adam(params.arrays)
    trace = InversionTrace(models=[] if config.store_models else None)
    hits = 0
    for t in range(1, config.epochs_stage2 + 1):
        b = beta(t, config.tau)
        m, tr = net_forward(params, z, mesh_shape, mode=mode, rng=rng)
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
        if trace.models is not None:
            trace.models.append(m)
        hits = hits + 1 if chi <= config.chi_stop else 0
        if hits >= config.chi_patience:
            trace.converged = True
            break

    final_m, _ = net_forward(params, z, mesh_shape, mode="eval")
    trace.final_model = final_m
    trace.final_params = params
    if not trace.converged and trace.records:
        trace.converged = trace.records[-1].chi <= config.chi_stop
    return trace


def invert_stage2(pretrained: NetParams, z: np.ndarray, mesh: TensorMesh2D,
                  survey: Survey, d_obs: np.ndarray, weights: DataWeights,
                  config: DipConfig) -> InversionTrace:
    """Full stage-2 inversion on a mesh + survey pair."""
    sim = DCSimulation(mesh, survey)
    return run_stage2(pretrained, z, sim, d_obs, weights, config, mesh.shape)
