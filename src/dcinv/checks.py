"""Built-in numerical self-tests behind the ``check`` CLI command.

Each check returns (name, passed, detail); :func:`run_all` executes the
lot.  These are fast smoke versions of the adjoint, gradient, and
surrogate-equivalence verifications the test suite runs at full strength.
"""

from __future__ import annotations

import numpy as np

from .dip import beta, surrogate_loss
from .forward import DCSimulation, weights_from_std
from .mesh import build_mesh
from .net import arch_for_mesh, init_params, net_backward, net_forward, sample_latent
from .survey import build_dipole_dipole_survey


def _tiny_problem(seed=0):
    mesh = build_mesh(12, 5, 5.0, 5.0, 2, 1.5)
    survey = build_dipole_dipole_survey(50.0, 10.0, 24, x0=-25.0)
    sim = DCSimulation(mesh, survey)
    return mesh, survey, sim


def check_adjoint(seed: int = 0, n_trials: int = 5, tol: float = 1e-8):
    """<Jw, v> == <w, J^T v> on random models and vectors."""
    mesh, survey, sim = _tiny_problem()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(survey.n_data)
        lhs = float(sim.j_vec(m, w) @ v)
        rhs = float(w @ sim.jt_vec(m, v))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return "adjoint identity", worst <= tol, f"max rel err {worst:.2e}"


def check_net_gradient(seed: int = 0, tol: float = 1e-6):
    """End-to-end parameter gradient of a tiny generator vs central differences.

    Compared norm-wise per parameter array: component-wise relative error
    is meaningless for entries whose true gradient is ~0.
    """
    arch = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,))
    params = init_params(seed, arch)
    z = sample_latent(seed, 3)
    shape = (3, 5)
    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal(15)

    m, tr = net_forward(params, z, shape)
    grads = net_backward(tr, g)

    worst = 0.0
    eps = 1e-5
    for key, arr in params.arrays.items():
        flat = arr.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            mp, _ = net_forward(params, z, shape)
            flat[i] = orig - eps
            mm, _ = net_forward(params, z, shape)
            flat[i] = orig
            fd[i] = float(g @ (mp - mm)) / (2 * eps)
        an = grads[key].reshape(-1)
        err = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, err)
    return "network gradients", worst <= tol, f"max rel err {worst:.2e}"


def check_surrogate(seed: int = 0, tol: float = 1e-6):
    """Surrogate-loss weight gradient vs finite differences of the true objective."""
    mesh, survey, sim = _tiny_problem()
    arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=1, latent_dim=3, channels=(2,))
    params = init_params(seed, arch)
    z = sample_latent(seed, 3)
    rng = np.random.default_rng(seed + 2)

    m0, _ = net_forward(params, z, mesh.shape)
    d_obs = sim.predict(m0 + 0.2 * rng.standard_normal(m0.size))
    w = weights_from_std(0.05 * np.abs(d_obs) + 1e-6)
    m_ref = np.full(mesh.n_cells, -4.6)
    b = 0.37

    def true_objective():
        m, _ = net_forward(params, z, mesh.shape)
        r = w.values * (sim.predict(m) - d_obs)
        return (1 - b) * 0.5 * float(r @ r) + b * float(np.abs(m - m_ref).sum())

    m, tr = net_forward(params, z, mesh.shape)
    r = sim.predict(m) - d_obs
    jv = sim.jt_vec(m, w.values ** 2 * r)
    _, g_m = surrogate_loss(m, jv, b, m_ref)
    grads = net_backward(tr, g_m)

    worst = 0.0
    eps = 3e-5
    for key in ("fc.w", "conv1.k", "out.b"):
        flat = params.arrays[key].reshape(-1)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        fd = np.empty(idx.size)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            fp = true_objective()
            flat[i] = orig - eps
            fm = true_objective()
            flat[i] = orig
            fd[j] = (fp - fm) / (2 * eps)
        an = grads[key].reshape(-1)[idx]
        err = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, err)
    return "surrogate gradient bridge", worst <= tol, f"max rel err {worst:.2e}"


def check_beta():
    ok = (beta(0, 1000.0) == 1.0
          and abs(beta(1000.0, 1000.0) - np.exp(-1)) < 1e-15)
    vals = [beta(t, 7.0) for t in range(100)]
    ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
    return "cooling schedule", ok, "beta(0)=1, beta(tau)=1/e, strictly decreasing"


def run_all(seed: int = 0):
    return [check_beta(),
            check_adjoint(seed),
            check_net_gradient(seed),
            check_surrogate(seed)]
