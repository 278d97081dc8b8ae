import numpy as np
import pytest

import dcinv
from dcinv.forward import weights_from_std
from dcinv.mesh import TensorMesh2D, build_mesh
from dcinv.tikhonov import (GNConfig, IRLSState, RegularizationConfig,
                            build_difference_operators, gauss_newton,
                            gauss_newton_invert, irls_weights, phi_m,
                            sensitivity_weights, update_irls)

from helpers import central_diff_scalar, rel_err, tiny_dc_problem


class LinearSim:
    """F(m) = G m, for exercising the optimizer without PDE solves."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)
        self.n_data = self.g.shape[0]

    def predict(self, m):
        return self.g @ m

    def j_vec(self, m, w):
        return self.g @ w

    def jt_vec(self, m, v):
        return self.g.T @ v


class TestDifferenceOperators:
    def test_single_pair(self):
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        ops = build_difference_operators(mesh)
        assert ops.d_x.shape == (1, 2)
        assert np.allclose(ops.d_x.toarray(), [[-1.0, 1.0]])
        assert ops.d_z.shape == (0, 2)

    def test_center_distance_scaling(self):
        """Widths 5 and 7.5: centers are 6.25 m apart, entries +-1/6.25."""
        mesh = TensorMesh2D(hx=np.array([5.0, 7.5]), hz=np.array([1.0]), origin_x=0.0)
        ops = build_difference_operators(mesh)
        row = ops.d_x.toarray()[0]
        assert np.allclose(np.abs(row[row != 0]), 1.0 / 6.25)

    def test_linear_ramp_gives_constant(self):
        mesh = build_mesh(6, 4, 2.0, 3.0, 0, 1.0)
        ops = build_difference_operators(mesh)
        xc, _ = dcinv.cell_centers(mesh)
        ramp = np.tile(3.0 * xc, 4)  # linear in x, constant in z
        dx = ops.d_x @ ramp
        assert np.allclose(dx, 3.0)
        assert np.allclose(ops.d_z @ ramp, 0.0)

    def test_annihilates_constants_random_meshes(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            mesh = build_mesh(int(rng.integers(2, 9)), int(rng.integers(2, 7)),
                              float(rng.uniform(1, 5)), float(rng.uniform(1, 5)),
                              int(rng.integers(0, 3)), 1.4)
            ops = build_difference_operators(mesh)
            c = np.full(mesh.n_cells, 3.7)
            assert np.allclose(ops.d_x @ c, 0.0)
            assert np.allclose(ops.d_z @ c, 0.0)


class TestIrlsWeights:
    def test_p2_all_ones(self):
        r = np.array([-5.0, 0.0, 3.0])
        assert np.allclose(irls_weights(r, 2.0, 1e-2), 1.0)

    def test_p0_at_zero_residual(self):
        w = irls_weights(np.array([0.0]), 0.0, 1e-2)
        assert np.isclose(w[0], 1e4)

    def test_p1_large_residual(self):
        w = irls_weights(np.array([10.0]), 1.0, 1e-2)
        assert np.isclose(w[0], 1.0 / 10.0, rtol=1e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            irls_weights(np.ones(2), 2.5, 1e-2)
        with pytest.raises(ValueError):
            irls_weights(np.ones(2), 1.0, 0.0)


class TestPhiM:
    def _setup(self):
        mesh = build_mesh(5, 4, 2.0, 2.0, 0, 1.0)
        ops = build_difference_operators(mesh)
        return mesh, ops

    def test_zero_at_reference_constant(self):
        mesh, ops = self._setup()
        cfg = RegularizationConfig(m_ref=-4.0)
        m = np.full(mesh.n_cells, -4.0)
        value, grad = phi_m(m, cfg, ops, IRLSState())
        assert value == 0.0
        assert np.allclose(grad, 0.0)

    def test_smallness_unit_vector(self):
        mesh, ops = self._setup()
        cfg = RegularizationConfig(alpha_s=1.0, alpha_x=0.0, alpha_z=0.0, m_ref=0.0)
        m = np.zeros(mesh.n_cells)
        m[0] = 1.0
        value, grad = phi_m(m, cfg, ops, IRLSState())
        assert np.isclose(value, 1.0)
        expected = np.zeros(mesh.n_cells)
        expected[0] = 2.0
        assert np.allclose(grad, expected)

    def test_gradient_vs_fd(self):
        mesh, ops = self._setup()
        rng = np.random.default_rng(1)
        cfg = RegularizationConfig(alpha_s=0.3, alpha_x=0.7, alpha_z=0.5,
                                   p_s=1.0, p_x=1.0, p_z=0.0, m_ref=-4.0)
        m = -4.0 + rng.standard_normal(mesh.n_cells)
        m_ref = np.full(mesh.n_cells, -4.0)
        state = update_irls(m, cfg, ops, m_ref)
        _, grad = phi_m(m, cfg, ops, state)
        fd = central_diff_scalar(lambda mm: phi_m(mm, cfg, ops, state)[0], m,
                                 eps=1e-7)
        assert rel_err(grad, fd) < 1e-7

    def test_nonnegative(self):
        mesh, ops = self._setup()
        rng = np.random.default_rng(2)
        cfg = RegularizationConfig(alpha_s=0.1, alpha_x=1.0, alpha_z=1.0, m_ref=0.0)
        for _ in range(10):
            value, _ = phi_m(rng.standard_normal(mesh.n_cells), cfg, ops, IRLSState())
            assert value >= 0.0


class TestSensitivityWeights:
    def test_probe_matches_explicit_columns(self):
        """Stochastic estimate vs explicit J column norms on a tiny problem."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=6, n_core_z=4, n_pad=1,
                                            line=20.0, spacing=5.0)
        m = np.full(mesh.n_cells, -4.0)
        cols = np.column_stack([sim.j_vec(m, np.eye(mesh.n_cells)[:, j])
                                for j in range(mesh.n_cells)])
        true_w = np.sqrt((cols ** 2).sum(axis=0))
        true_w /= true_w.max()
        est = sensitivity_weights(mesh, survey, m, n_probes=300, rng_seed=0)
        keep = true_w > 1e-3  # floor region is clamped by construction
        assert np.median(np.abs(est[keep] - true_w[keep]) / true_w[keep]) < 0.15

    def test_range_and_floor(self):
        mesh, survey, sim = tiny_dc_problem(n_core_x=8, n_core_z=4, n_pad=1,
                                            line=30.0, spacing=10.0)
        w = sensitivity_weights(mesh, survey, np.full(mesh.n_cells, -4.0),
                                n_probes=16, rng_seed=1)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)
        assert w.min() >= 1e-4

    def test_decays_with_depth(self):
        """Weights shrink down a vertical profile through the array center."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=6, n_pad=2,
                                            line=40.0, spacing=10.0)
        w = sensitivity_weights(mesh, survey, np.full(mesh.n_cells, -4.0),
                                n_probes=64, rng_seed=2)
        grid = w.reshape(mesh.nz, mesh.nx)
        center = mesh.nx // 2
        profile = grid[:, center]
        assert profile[0] > profile[-1]
        peak = int(np.argmax(profile))
        assert peak <= 1  # sensitivity concentrates at/near the surface
        assert np.all(np.diff(profile[peak:]) < 0.0)


class TestGaussNewton:
    def test_linear_problem_matches_dense_solution(self):
        """p=2 everywhere on F(m)=Gm: one exact Newton step lands on the
        regularized normal-equations minimizer."""
        rng = np.random.default_rng(3)
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        n = mesh.n_cells
        g = rng.standard_normal((8, n))
        d = g @ rng.standard_normal(n)
        weights = weights_from_std(np.full(8, 0.1))
        reg = RegularizationConfig(alpha_s=0.3, alpha_x=0.2, alpha_z=0.1, m_ref=0.0)
        ops = build_difference_operators(mesh)
        gn = GNConfig(beta0=2.0, iterations_per_beta=1, max_beta_steps=1,
                      cg_tol=1e-12, cg_maxiter=500, target_chi=1e-12)
        trace = gauss_newton(LinearSim(g), d, weights, reg, gn, np.zeros(n), ops)

        w2 = np.diag(weights.values ** 2)
        hreg = 2.0 * (reg.alpha_s * np.eye(n)
                      + reg.alpha_x * (ops.d_x.T @ ops.d_x).toarray()
                      + reg.alpha_z * (ops.d_z.T @ ops.d_z).toarray())
        m_star = np.linalg.solve(g.T @ w2 @ g + 2.0 * hreg, g.T @ w2 @ d)
        assert rel_err(trace.final_model, m_star) < 1e-8

    def test_start_at_answer_needs_no_iterations(self):
        """Zero-noise data from the reference model: chi is already ~0."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=5, n_pad=2,
                                            line=40.0, spacing=10.0)
        truth = np.full(mesh.n_cells, np.log(0.01))
        d = sim.predict(truth)
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(m_ref=float(np.log(0.01)))
        gn = GNConfig(target_chi=1.0, max_beta_steps=3)
        trace = gauss_newton_invert(mesh, survey, d, weights, reg, gn, m0=truth)
        assert trace.converged
        assert trace.stop_reason == "target_chi"
        assert trace.n_epochs == 1
        assert np.array_equal(trace.final_model, truth)

    def test_stop_reasons_line_search_and_budget(self):
        """No line-search trial stops at the first step; an unreachable
        target spends the budget."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=5, n_pad=1,
                                            line=40.0, spacing=10.0)
        truth = np.full(mesh.n_cells, np.log(0.02))
        d = sim.predict(truth)
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(m_ref=float(np.log(0.01)))
        m0 = np.full(mesh.n_cells, np.log(0.01))

        gn = GNConfig(beta0=1.0, line_search_max=0)
        trace = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        assert trace.stop_reason == "line_search"
        assert not trace.converged
        assert trace.n_epochs == 1
        assert np.array_equal(trace.final_model, m0)

        gn = GNConfig(beta0=1.0, max_beta_steps=2, iterations_per_beta=1,
                      target_chi=1e-12)
        trace = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        assert trace.stop_reason == "budget"
        assert not trace.converged
        assert trace.n_epochs == 2

    def test_objective_never_increases_within_beta(self):
        """Accepted steps do not increase phi_d + beta*phi_m at fixed beta
        and fixed IRLS weights (line-search contract)."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=12, n_core_z=5, n_pad=2,
                                            line=50.0, spacing=10.0)
        rng = np.random.default_rng(4)
        truth = np.full(mesh.n_cells, np.log(0.01))
        truth[30:40] = np.log(0.05)
        d = sim.predict(truth)
        d_noisy = d * (1 + 0.05 * rng.standard_normal(d.size))
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(m_ref=float(np.log(0.01)))
        gn = GNConfig(iterations_per_beta=3, max_beta_steps=4, target_chi=0.01)
        trace = gauss_newton_invert(mesh, survey, d_noisy, weights, reg, gn)
        by_beta = {}
        for r in trace.records:
            by_beta.setdefault(r.beta, []).append(r.phi_d + r.beta * r.phi_m)
        for values in by_beta.values():
            assert all(a >= b - 1e-9 * abs(a) for a, b in zip(values, values[1:]))

    def test_deterministic_pure_l2(self):
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=5, n_pad=1,
                                            line=40.0, spacing=10.0)
        truth = np.full(mesh.n_cells, np.log(0.02))
        d = sim.predict(truth)
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(m_ref=float(np.log(0.01)))
        gn = GNConfig(max_beta_steps=3, iterations_per_beta=1, target_chi=0.5)

        t1 = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        t2 = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        assert np.array_equal(t1.final_model, t2.final_model)

    def test_sparse_norm_run_reduces_chi(self):
        mesh, survey, sim = tiny_dc_problem(n_core_x=12, n_core_z=5, n_pad=2,
                                            line=50.0, spacing=10.0)
        rng = np.random.default_rng(5)
        truth = np.full(mesh.n_cells, np.log(0.01))
        truth[20:26] = np.log(0.1)
        d = sim.predict(truth)
        d_noisy = d * (1 + 0.05 * rng.standard_normal(d.size))
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(p_s=0.0, p_x=1.0, p_z=1.0, alpha_s=0.005,
                                   alpha_x=0.5, alpha_z=0.5,
                                   m_ref=float(np.log(0.01)))
        gn = GNConfig(target_chi=1.0, max_beta_steps=10)
        trace = gauss_newton_invert(mesh, survey, d_noisy, weights, reg, gn)
        assert trace.records[-1].chi < trace.records[0].chi
        assert trace.records[-1].chi <= 1.5
