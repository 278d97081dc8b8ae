"""Conventional Tikhonov inversion: smallness + first-order smoothness with
configurable norms p <= 2 via iteratively reweighted least squares, solved
by inexact Gauss-Newton with matrix-free conjugate-gradient inner solves.

The regularizer is

    phi_m = alpha_s ||W_s (m - m_ref)||_p_s
          + alpha_x ||W_x D_x m||_p_x + alpha_z ||W_z D_z m||_p_z

where D_x / D_z are first differences scaled by inverse center spacing and
the W matrices optionally carry sensitivity weights.  Norms below 2 are
handled by freezing IRLS weights (r^2 + eps^2)^(p/2 - 1) for each outer
(beta) step, so every inner problem is weighted least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forward import DataWeights, DCSimulation, _reference_vector, chi_factor, phi_d
from .mesh import TensorMesh2D, cell_centers
from .survey import Survey
from .trace import EpochRecord, InversionTrace


@dataclass
class RegularizationConfig:
    alpha_s: float = 1.0
    alpha_x: float = 1.0
    alpha_z: float = 1.0
    p_s: float = 2.0
    p_x: float = 2.0
    p_z: float = 2.0
    m_ref: float | np.ndarray = float(np.log(0.01))
    irls_epsilon: float = 1e-2  # fraction of the running residual scale
    use_sensitivity_weights: bool = False

    def __post_init__(self):
        if min(self.alpha_s, self.alpha_x, self.alpha_z) < 0:
            raise ValueError("alpha weights must be nonnegative")
        for p in (self.p_s, self.p_x, self.p_z):
            if not 0.0 <= p <= 2.0:
                raise ValueError("norms must lie in [0, 2]")
        if self.irls_epsilon <= 0:
            raise ValueError("irls_epsilon must be positive")


@dataclass
class GNConfig:
    beta0: float | None = None  # None: estimate from curvature ratio
    beta0_ratio: float = 1.0
    cooling_factor: float = 0.5
    iterations_per_beta: int = 2
    max_beta_steps: int = 15
    cg_tol: float = 1e-2
    cg_maxiter: int = 30
    target_chi: float = 1.0
    line_search_max: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.beta0 is not None and self.beta0 <= 0:
            raise ValueError("beta0 must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")


@dataclass(frozen=True)
class DifferenceOperators:
    """Sparse first differences, cell values to face differences / spacing."""

    d_x: sp.csr_matrix
    d_z: sp.csr_matrix


def build_difference_operators(mesh: TensorMesh2D) -> DifferenceOperators:
    nx, nz = mesh.nx, mesh.nz
    xc, zc = cell_centers(mesh)

    rows_x = nz * (nx - 1)
    a = (np.arange(nz)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel()
    inv_dx = np.broadcast_to(1.0 / np.diff(xc)[None, :], (nz, nx - 1)).ravel()
    dx = sp.coo_matrix(
        (np.concatenate([-inv_dx, inv_dx]),
         (np.concatenate([np.arange(rows_x), np.arange(rows_x)]),
          np.concatenate([a, a + 1]))),
        shape=(rows_x, nx * nz)).tocsr()

    rows_z = (nz - 1) * nx
    a = (np.arange(nz - 1)[:, None] * nx + np.arange(nx)[None, :]).ravel()
    inv_dz = np.broadcast_to(1.0 / np.diff(zc)[:, None], (nz - 1, nx)).ravel()
    dz = sp.coo_matrix(
        (np.concatenate([-inv_dz, inv_dz]),
         (np.concatenate([np.arange(rows_z), np.arange(rows_z)]),
          np.concatenate([a, a + nx]))),
        shape=(rows_z, nx * nz)).tocsr()
    return DifferenceOperators(d_x=dx, d_z=dz)


def irls_weights(r: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Diagonal weights (r^2 + eps^2)^(p/2 - 1) so weighted L2 mimics the p-norm."""
    if not 0.0 <= p <= 2.0:
        raise ValueError("p must lie in [0, 2]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    r = np.asarray(r, dtype=float)
    return (r * r + eps * eps) ** (p / 2.0 - 1.0)


def sensitivity_weights(mesh: TensorMesh2D, survey: Survey, m: np.ndarray,
                        n_probes: int = 32, rng_seed: int = 0,
                        floor: float = 1e-4) -> np.ndarray:
    """Estimated root diagonal of J^T J, normalized to max 1 and floored.

    Column norms are probed stochastically: for random +-1 data vectors v,
    E[(J^T v)_j^2] = sum_i J_ij^2.
    """
    sim = DCSimulation(mesh, survey)
    return _sensitivity_weights(sim, np.asarray(m, dtype=float), n_probes,
                                rng_seed, floor)


def _sensitivity_weights(sim, m: np.ndarray, n_probes: int, rng_seed: int,
                         floor: float) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    acc = np.zeros(m.size)
    for _ in range(n_probes):
        v = rng.choice([-1.0, 1.0], size=sim.n_data)
        jt = sim.jt_vec(m, v)
        acc += jt * jt
    w = np.sqrt(acc / n_probes)
    top = w.max()
    if top == 0:
        raise ValueError("zero sensitivity everywhere; check the model/survey")
    w = w / top
    return np.maximum(w, floor)


@dataclass
class IRLSState:
    """Frozen reweighting diagonals for the current outer iteration."""

    w_s: np.ndarray | float = 1.0
    w_x: np.ndarray | float = 1.0
    w_z: np.ndarray | float = 1.0


def update_irls(m: np.ndarray, cfg: RegularizationConfig, ops: DifferenceOperators,
                m_ref: np.ndarray, sens: np.ndarray | None = None) -> IRLSState:
    """Recompute IRLS weights at the current model.

    The stabilizer for each term is ``irls_epsilon`` times the RMS of that
    term's current residual (with a tiny absolute floor so an exactly-zero
    residual stays finite).
    """
    ws_s, ws_x, ws_z = _term_weights_arrays(cfg, ops, sens, m.size)
    state = IRLSState()
    if cfg.p_s < 2.0:
        r = ws_s * (m - m_ref)
        state.w_s = irls_weights(r, cfg.p_s, _eps_of(r, cfg.irls_epsilon))
    if cfg.p_x < 2.0:
        r = ws_x * (ops.d_x @ m)
        state.w_x = irls_weights(r, cfg.p_x, _eps_of(r, cfg.irls_epsilon))
    if cfg.p_z < 2.0:
        r = ws_z * (ops.d_z @ m)
        state.w_z = irls_weights(r, cfg.p_z, _eps_of(r, cfg.irls_epsilon))
    return state


def _eps_of(r: np.ndarray, frac: float) -> float:
    scale = float(np.sqrt(np.mean(r * r)))
    return max(frac * scale, 1e-8)


def _face_average(d: sp.csr_matrix, cell_values: np.ndarray) -> np.ndarray:
    """Mean of the two adjacent cells' values, one entry per face row of d."""
    a = sp.csr_matrix((np.abs(d.data), d.indices, d.indptr), shape=d.shape)
    return (a @ cell_values) / (a @ np.ones(d.shape[1]))


def _term_weights_arrays(cfg: RegularizationConfig, ops: DifferenceOperators,
                         sens: np.ndarray | None, n: int):
    """W_s (cells) and W_x / W_z (faces) diagonals; sensitivity-weighted when on."""
    if sens is None:
        return 1.0, 1.0, 1.0
    return sens, _face_average(ops.d_x, sens), _face_average(ops.d_z, sens)


def phi_m(m: np.ndarray, cfg: RegularizationConfig, ops: DifferenceOperators,
          irls_state: IRLSState, m_ref: np.ndarray | None = None,
          sens: np.ndarray | None = None):
    """Weighted-L2 surrogate value and exact gradient with frozen IRLS weights."""
    m = np.asarray(m, dtype=float)
    if m_ref is None:
        m_ref = _reference_vector(cfg.m_ref, m.size)
    ws_s, ws_x, ws_z = _term_weights_arrays(cfg, ops, sens, m.size)

    value = 0.0
    grad = np.zeros_like(m)

    r = ws_s * (m - m_ref)
    wr = irls_state.w_s * r
    value += cfg.alpha_s * float(r @ wr)
    grad += cfg.alpha_s * 2.0 * (ws_s * wr)

    r = ws_x * (ops.d_x @ m)
    wr = irls_state.w_x * r
    value += cfg.alpha_x * float(r @ wr)
    grad += cfg.alpha_x * 2.0 * (ops.d_x.T @ (ws_x * wr))

    r = ws_z * (ops.d_z @ m)
    wr = irls_state.w_z * r
    value += cfg.alpha_z * float(r @ wr)
    grad += cfg.alpha_z * 2.0 * (ops.d_z.T @ (ws_z * wr))
    return value, grad


def _reg_hessian_apply(v: np.ndarray, cfg: RegularizationConfig,
                       ops: DifferenceOperators, irls_state: IRLSState,
                       ws_s, ws_x, ws_z) -> np.ndarray:
    out = cfg.alpha_s * 2.0 * (ws_s * (irls_state.w_s * (ws_s * v)))
    out += cfg.alpha_x * 2.0 * (ops.d_x.T @ (ws_x * (irls_state.w_x * (ws_x * (ops.d_x @ v)))))
    out += cfg.alpha_z * 2.0 * (ops.d_z.T @ (ws_z * (irls_state.w_z * (ws_z * (ops.d_z @ v)))))
    return out


def _cg_matfree(apply_h, rhs: np.ndarray, tol: float, maxiter: int) -> np.ndarray:
    """Plain CG on a matrix-free SPD operator; inexact by design."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    target = tol * np.sqrt(rr)
    if rr == 0.0:
        return x
    for _ in range(maxiter):
        hp = apply_h(p)
        php = float(p @ hp)
        if php <= 0:
            break  # curvature lost to rounding; return current iterate
        alpha = rr / php
        x += alpha * p
        r -= alpha * hp
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= target:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def estimate_beta0(sim, m: np.ndarray, cfg: RegularizationConfig,
                   ops: DifferenceOperators, irls_state: IRLSState,
                   weights: DataWeights, sens: np.ndarray | None,
                   rng_seed: int = 0, ratio: float = 1.0) -> float:
    """Curvature-ratio estimate of the starting trade-off parameter.

    For a random direction x, compares x^T J^T W^T W J x against
    x^T (hess phi_m) x so the two objective terms start balanced.
    """
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal(m.size)
    x /= np.linalg.norm(x)
    jx = sim.j_vec(m, x)
    num = float(jx @ (weights.values ** 2 * jx))
    ws_s, ws_x, ws_z = _term_weights_arrays(cfg, ops, sens, m.size)
    hx = _reg_hessian_apply(x, cfg, ops, irls_state, ws_s, ws_x, ws_z)
    den = float(x @ hx)
    if den <= 0:
        raise ValueError("regularization curvature vanished; check alphas")
    return ratio * num / den


def gauss_newton(sim, d_obs: np.ndarray, weights: DataWeights,
                 reg: RegularizationConfig, gn: GNConfig,
                 m0: np.ndarray, ops: DifferenceOperators,
                 sens: np.ndarray | None = None) -> InversionTrace:
    """Inexact Gauss-Newton with beta cooling against any simulator.

    Per outer beta step: ``iterations_per_beta`` Gauss-Newton iterations,
    each solving (J^T W^2 J + beta hess phi_m) dm = -grad by matrix-free CG
    followed by a backtracking (Armijo) line search on the frozen-weight
    objective.  IRLS weights are refreshed between beta steps when any
    norm is below 2.  Stops at the target chi-factor, on a line search that
    finds no decrease, or when the step budget is spent; ``stop_reason``
    says which (``target_chi``, ``line_search`` or ``budget``).
    """
    d_obs = np.asarray(d_obs, dtype=float)
    m = np.array(m0, dtype=float, copy=True)
    m_ref = _reference_vector(reg.m_ref, m.size)
    w2 = weights.values ** 2

    sparse_norms = min(reg.p_s, reg.p_x, reg.p_z) < 2.0
    irls_state = IRLSState()  # first pass is plain L2
    ws = _term_weights_arrays(reg, ops, sens, m.size)

    beta_val = gn.beta0 if gn.beta0 is not None else estimate_beta0(
        sim, m, reg, ops, irls_state, weights, sens,
        rng_seed=gn.rng_seed, ratio=gn.beta0_ratio)

    trace = InversionTrace()
    it = 0
    for _ in range(gn.max_beta_steps):
        for _ in range(gn.iterations_per_beta):
            d_pred = sim.predict(m)
            pd = phi_d(d_pred, d_obs, weights)
            chi = chi_factor(d_pred, d_obs, weights)
            pm, g_reg = phi_m(m, reg, ops, irls_state, m_ref, sens)
            it += 1
            trace.records.append(EpochRecord(epoch=it, beta=beta_val, phi_d=pd,
                                             phi_m=pm, chi=chi,
                                             loss=pd + beta_val * pm))
            if chi <= gn.target_chi:
                trace.converged = True
                trace.stop_reason = "target_chi"
                trace.final_model = m
                return trace

            grad = sim.jt_vec(m, w2 * (d_pred - d_obs)) + beta_val * g_reg

            def apply_h(v):
                jv = sim.j_vec(m, v)
                out = sim.jt_vec(m, w2 * jv)
                return out + beta_val * _reg_hessian_apply(v, reg, ops, irls_state, *ws)

            dm = _cg_matfree(apply_h, -grad, gn.cg_tol, gn.cg_maxiter)
            gd = float(grad @ dm)
            if gd >= 0:
                dm = -grad  # CG returned a non-descent direction; fall back
                gd = float(grad @ dm)

            obj0 = pd + beta_val * pm
            alpha = 1.0
            accepted = False
            for _ in range(gn.line_search_max):
                m_try = m + alpha * dm
                pd_try = phi_d(sim.predict(m_try), d_obs, weights)
                pm_try, _ = phi_m(m_try, reg, ops, irls_state, m_ref, sens)
                if pd_try + beta_val * pm_try <= obj0 + 1e-4 * alpha * gd:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                trace.converged = False
                trace.stop_reason = "line_search"
                trace.final_model = m
                return trace
            m = m_try

        beta_val *= gn.cooling_factor
        if sparse_norms:
            irls_state = update_irls(m, reg, ops, m_ref, sens)

    trace.converged = chi_factor(sim.predict(m), d_obs, weights) <= gn.target_chi
    trace.stop_reason = "target_chi" if trace.converged else "budget"
    trace.final_model = m
    return trace


def gauss_newton_invert(mesh: TensorMesh2D, survey: Survey, d_obs: np.ndarray,
                        weights: DataWeights, reg: RegularizationConfig,
                        gn: GNConfig, m0: np.ndarray | None = None) -> InversionTrace:
    """Gauss-Newton inversion on a mesh + survey pair; m0 defaults to m_ref."""
    sim = DCSimulation(mesh, survey)
    ops = build_difference_operators(mesh)
    m_ref = _reference_vector(reg.m_ref, mesh.n_cells)
    m0 = m_ref.copy() if m0 is None else np.asarray(m0, dtype=float)
    sens = None
    if reg.use_sensitivity_weights:
        sens = _sensitivity_weights(sim, m0, n_probes=32, rng_seed=gn.rng_seed,
                                    floor=1e-4)
    return gauss_newton(sim, d_obs, weights, reg, gn, m0, ops, sens)
