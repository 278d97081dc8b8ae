"""Conventional Tikhonov inversion: smallness + first-order smoothness with
configurable norms p <= 2 via iteratively reweighted least squares, solved
by inexact Gauss-Newton with conjugate-gradient inner solves.

Each model that needs sensitivities has its Jacobian formed once
(``sim.jacobian``: desk scale is 21 x 1,216), so every inner-CG product,
the gradient and the sensitivity probes are matrix products with it; the
regularization Hessian is applied matrix-free on the cell grid.

The regularizer is

    phi_m = alpha_s ||W_s (m - m_ref)||_p_s
          + alpha_x ||W_x D_x m||_p_x + alpha_z ||W_z D_z m||_p_z

where D_x / D_z are first differences scaled by inverse center spacing and
the W matrices optionally carry sensitivity weights.  Norms below 2 are
handled by freezing IRLS weights (r^2 + eps^2)^(p/2 - 1) for each outer
(beta) step, so every inner problem is weighted least squares.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, SolverFailure
from .fileio import check_ranges, ranged
from .forward import DataWeights, DCSimulation, chi_factor, phi_d
from .mesh import TensorMesh2D, cell_centers
from .survey import Survey
from .trace import EpochRecord, InversionTrace


@dataclass(frozen=True)
class RegularizationConfig:
    alpha_s: float = ranged(1.0, "[0, inf)")
    alpha_x: float = ranged(1.0, "[0, inf)")
    alpha_z: float = ranged(1.0, "[0, inf)")
    p_s: float = ranged(2.0, "[0, 2]")
    p_x: float = ranged(2.0, "[0, 2]")
    p_z: float = ranged(2.0, "[0, 2]")
    m_ref: float = ranged(float(np.log(0.01)), "(-inf, inf)")
    irls_epsilon: float = ranged(1e-2, "(0, inf)")  # fraction of the running residual scale
    use_sensitivity_weights: bool = False

    __post_init__ = check_ranges


@dataclass(frozen=True)
class GNConfig:
    beta0: float | None = ranged(None, "(0, inf)")  # None: estimate from curvature ratio
    beta0_ratio: float = ranged(1.0, "(0, inf)")
    cooling_factor: float = ranged(0.5, "(0, 1)")
    iterations_per_beta: int = ranged(2, "[1, inf)")
    max_beta_steps: int = ranged(15, "[1, inf)")
    cg_tol: float = ranged(1e-2, "[0, inf)")
    cg_maxiter: int = ranged(30, "[1, inf)")
    target_chi: float = ranged(1.0, "[0, inf)")
    line_search_max: int = ranged(20, "[0, inf)")
    rng_seed: int = ranged(0, "[0, inf)")

    __post_init__ = check_ranges


class DifferenceOperators:
    """First differences of cell values over center spacing, their exact
    transposes and face means, as slices of the ``(nz, nx)`` cell grid.

    Faces are ordered as the forward operator orders its interior faces:
    ``D_x`` has one row per x face, row by row (``nz * (nx - 1)``), and
    ``D_z`` one per z face (``(nz - 1) * nx``).
    """

    def __init__(self, mesh: TensorMesh2D):
        xc, zc = cell_centers(mesh)
        self.shape = mesh.shape
        self.inv_dx = 1.0 / np.diff(xc)
        self.inv_dz = 1.0 / np.diff(zc)[:, None]

    def d_x(self, m: np.ndarray) -> np.ndarray:
        """D_x m: per x face, the difference of its two cells over their spacing."""
        g = np.reshape(m, self.shape)
        return (g[:, 1:] * self.inv_dx - g[:, :-1] * self.inv_dx).ravel()

    def d_z(self, m: np.ndarray) -> np.ndarray:
        g = np.reshape(m, self.shape)
        return (g[1:] * self.inv_dz - g[:-1] * self.inv_dz).ravel()

    def d_x_t(self, r: np.ndarray) -> np.ndarray:
        """D_x^T r: each face value over its spacing, added to its second cell
        and subtracted from its first."""
        s = np.reshape(r, (self.shape[0], -1)) * self.inv_dx
        out = np.zeros(self.shape)
        out[:, 1:] = s
        out[:, :-1] -= s
        return out.ravel()

    def d_z_t(self, r: np.ndarray) -> np.ndarray:
        s = np.reshape(r, (-1, self.shape[1])) * self.inv_dz
        out = np.zeros(self.shape)
        out[1:] = s
        out[:-1] -= s
        return out.ravel()

    def mean_x(self, c: np.ndarray) -> np.ndarray:
        """Mean of the two cells each x face separates."""
        g = np.reshape(c, self.shape)
        return (0.5 * (g[:, :-1] + g[:, 1:])).ravel()

    def mean_z(self, c: np.ndarray) -> np.ndarray:
        g = np.reshape(c, self.shape)
        return (0.5 * (g[:-1] + g[1:])).ravel()


def irls_weights(r: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Diagonal weights (r^2 + eps^2)^(p/2 - 1) so weighted L2 mimics the p-norm;
    ``p`` in [0, 2] and ``eps > 0``, as :class:`RegularizationConfig` and
    :func:`update_irls` give them."""
    r = np.asarray(r, dtype=float)
    return (r * r + eps * eps) ** (p / 2.0 - 1.0)


def sensitivity_weights(sim, m: np.ndarray, n_probes: int = 32,
                        rng_seed: int = 0) -> np.ndarray:
    """Estimated root diagonal of J^T J, normalized to max 1 and floored at 1e-4.

    Column norms are probed stochastically: for random +-1 data vectors v,
    E[(J^T v)_j^2] = sum_i J_ij^2.  All probes are one product with J.
    """
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(rng_seed)
    probes = rng.choice([-1.0, 1.0], size=(n_probes, sim.n_data))
    jt = probes @ sim.jacobian(m)  # row i is (J^T v_i)^T
    w = np.sqrt((jt * jt).sum(axis=0) / n_probes)
    top = w.max()
    if top == 0:
        raise NumericalFailure("zero sensitivity everywhere; check the model/survey")
    w = w / top
    return np.maximum(w, 1e-4)


L2 = (1.0, 1.0, 1.0)  # IRLS weights of plain least squares, one per term


# One term ``alpha ||W D (m - ref)||_p`` of the regularizer; ``d_t`` is D^T.
Term = namedtuple("Term", "alpha p d d_t w ref")


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def regularization_terms(cfg: RegularizationConfig, ops: DifferenceOperators,
                         m_ref: np.ndarray, sens: np.ndarray | None = None):
    """Smallness, x smoothness and z smoothness, built once per inversion;
    with sensitivity weights, the smoothness terms take their face means."""
    w_s, w_x, w_z = L2 if sens is None else (sens, ops.mean_x(sens), ops.mean_z(sens))
    return (Term(cfg.alpha_s, cfg.p_s, _identity, _identity, w_s, m_ref),
            Term(cfg.alpha_x, cfg.p_x, ops.d_x, ops.d_x_t, w_x, 0.0),
            Term(cfg.alpha_z, cfg.p_z, ops.d_z, ops.d_z_t, w_z, 0.0))


def update_irls(m: np.ndarray, terms, irls_epsilon: float) -> tuple:
    """IRLS weights at the current model, one per term (1.0 where p = 2).

    The stabilizer for each term is ``irls_epsilon`` times the RMS of that
    term's current residual (with a tiny absolute floor so an exactly-zero
    residual stays finite).
    """
    weights = list(L2)
    for i, t in enumerate(terms):
        if t.p < 2.0:
            r = t.w * t.d(m - t.ref)
            if not r.size:  # a mesh one cell wide or deep has no faces across it
                continue
            eps = max(irls_epsilon * float(np.sqrt(np.mean(r * r))), 1e-8)
            weights[i] = irls_weights(r, t.p, eps)
    return tuple(weights)


def phi_m(m: np.ndarray, terms, irls=L2):
    """Weighted-L2 surrogate value and exact gradient with frozen IRLS weights."""
    m = np.asarray(m, dtype=float)
    value = 0.0
    grad = np.zeros_like(m)
    for t, w in zip(terms, irls):
        r = t.w * t.d(m - t.ref)
        wr = w * r
        value += t.alpha * float(r @ wr)
        grad += t.alpha * 2.0 * t.d_t(t.w * wr)
    return value, grad


def reg_hessian(terms, irls=L2):
    """``v -> hess phi_m v``, the sum over terms of ``D^T (h D v)``, with the
    diagonals ``h = 2 alpha W w W`` frozen at the given IRLS weights."""
    diagonals = [t.alpha * 2.0 * t.w * w * t.w for t, w in zip(terms, irls)]

    def apply(v: np.ndarray) -> np.ndarray:
        parts = (t.d_t(h * t.d(v)) for t, h in zip(terms, diagonals))
        out = next(parts)  # a new array (h * D v), so the sum runs in place
        for part in parts:
            out += part
        return out

    return apply


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


def estimate_beta0(sim, m: np.ndarray, terms, weights: DataWeights,
                   rng_seed: int = 0, ratio: float = 1.0) -> float:
    """Curvature-ratio estimate of the starting trade-off parameter.

    For a random direction x, compares x^T J^T W^T W J x against
    x^T (hess phi_m) x, at plain L2 weights, so the two objective terms
    start balanced.
    """
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal(m.size)
    x /= np.linalg.norm(x)
    jx = sim.jacobian(m) @ x
    num = float(jx @ (weights.values ** 2 * jx))
    den = float(x @ reg_hessian(terms)(x))
    if den <= 0:
        raise NumericalFailure("regularization curvature vanished; check alphas")
    beta0 = ratio * num / den
    if not 0 < beta0 < np.inf:  # e.g. a curvature that overflowed to inf
        raise NumericalFailure(f"estimated beta0 is {beta0}; check alphas")
    return beta0


# An overflow (say beta0 = 1e308) shows in the stop reason, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def gauss_newton(sim, d_obs: np.ndarray, weights: DataWeights,
                 reg: RegularizationConfig, gn: GNConfig,
                 m0: np.ndarray, ops: DifferenceOperators,
                 sens: np.ndarray | None = None) -> InversionTrace:
    """Inexact Gauss-Newton with beta cooling against any simulator.

    The simulator provides ``predict(m)``, ``jacobian(m)`` (the dense
    ``n_data x n_cells`` J) and ``n_data``.  One loop runs at most
    ``max_beta_steps * iterations_per_beta`` iterations, each solving
    (J^T W^2 J + beta hess phi_m) dm = -grad by CG on J, formed once per
    iteration, then a backtracking (Armijo) line search on the
    frozen-weight objective; a trial whose forward solve fails is rejected
    like one that fails the Armijo test.  Every ``iterations_per_beta``
    iterations beta cools and the IRLS weights are refreshed.
    ``stop_reason`` is set where the loop stops: ``target_chi`` at a model
    that reaches the target chi, ``line_search`` when no trial decreases
    the objective, and ``budget`` when the last iteration's model misses
    the target (``target_chi`` when it reaches it).  The run converged on
    ``target_chi``.
    """
    d_obs = np.asarray(d_obs, dtype=float)
    m = np.array(m0, dtype=float, copy=True)
    m_ref = np.full(m.size, float(reg.m_ref))
    w2 = weights.values ** 2

    terms = regularization_terms(reg, ops, m_ref, sens)
    irls = L2  # first pass is plain L2

    beta_val = gn.beta0 if gn.beta0 is not None else estimate_beta0(
        sim, m, terms, weights, rng_seed=gn.rng_seed, ratio=gn.beta0_ratio)

    trace = InversionTrace()
    for it in range(1, gn.max_beta_steps * gn.iterations_per_beta + 1):
        d_pred = sim.predict(m)
        pd = phi_d(d_pred, d_obs, weights)
        chi = chi_factor(d_pred, d_obs, weights)
        pm, g_reg = phi_m(m, terms, irls)
        trace.records.append(EpochRecord(epoch=it, beta=beta_val, phi_d=pd,
                                         phi_m=pm, chi=chi, loss=pd + beta_val * pm))
        if chi <= gn.target_chi:
            stop_reason = "target_chi"
            break

        jac = sim.jacobian(m)
        grad = jac.T @ (w2 * (d_pred - d_obs)) + beta_val * g_reg
        hess_reg = reg_hessian(terms, irls)

        def apply_h(v):
            out = jac.T @ (w2 * (jac @ v))
            return out + beta_val * hess_reg(v)

        dm = _cg_matfree(apply_h, -grad, gn.cg_tol, gn.cg_maxiter)
        del jac  # so that at most one J (19 MB at full scale) is ever alive
        gd = float(grad @ dm)
        if gd >= 0:
            dm = -grad  # CG returned a non-descent direction; fall back
            gd = float(grad @ dm)

        obj0 = pd + beta_val * pm
        alpha = 1.0
        for _ in range(gn.line_search_max):
            m_try = m + alpha * dm
            try:
                pd_try = phi_d(sim.predict(m_try), d_obs, weights)
            except SolverFailure:  # e.g. a conductivity underflowed
                pd_try = np.inf
            pm_try, _ = phi_m(m_try, terms, irls)
            if pd_try + beta_val * pm_try <= obj0 + 1e-4 * alpha * gd:
                break
            alpha *= 0.5
        else:
            stop_reason = "line_search"
            break
        m = m_try

        if it % gn.iterations_per_beta == 0:
            beta_val *= gn.cooling_factor
            irls = update_irls(m, terms, reg.irls_epsilon)  # stays L2 where p = 2
    else:
        reached = chi_factor(sim.predict(m), d_obs, weights) <= gn.target_chi
        stop_reason = "target_chi" if reached else "budget"

    trace.final_model = m
    trace.stop_reason = stop_reason
    trace.converged = stop_reason == "target_chi"
    return trace


def gauss_newton_invert(mesh: TensorMesh2D, survey: Survey, d_obs: np.ndarray,
                        weights: DataWeights, reg: RegularizationConfig,
                        gn: GNConfig) -> InversionTrace:
    """Gauss-Newton inversion on a mesh + survey pair, from the reference model."""
    sim = DCSimulation(mesh, survey)
    m0 = np.full(mesh.n_cells, float(reg.m_ref))
    sens = None
    if reg.use_sensitivity_weights:
        sens = sensitivity_weights(sim, m0, rng_seed=gn.rng_seed)
    return gauss_newton(sim, d_obs, weights, reg, gn, m0, DifferenceOperators(mesh), sens)
