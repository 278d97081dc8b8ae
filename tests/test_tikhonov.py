from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dcinv
from dcinv.checks import central_difference, reference_j_vec, rel_err
from dcinv.errors import NumericalFailure, SolverFailure
from dcinv.forward import DCSimulation, chi_factor, weights_from_std
from dcinv.mesh import TensorMesh2D, build_mesh, cell_centers
from dcinv.tikhonov import (L2, DifferenceOperators, GNConfig, RegularizationConfig,
                            _cg_matfree, estimate_beta0, gauss_newton, gauss_newton_invert,
                            irls_weights, phi_m, reg_hessian, regularization_terms,
                            sensitivity_weights, update_irls)

from helpers import Traffic, drawn_meshes, tiny_dc_problem


class LinearSim:
    """F(m) = G m, for exercising the optimizer without PDE solves."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)
        self.n_data = self.g.shape[0]

    def predict(self, m):
        return self.g @ m

    def jacobian(self, m):
        return self.g


def dense_differences(mesh):
    """D_x and D_z as dense matrices, filled face by face: -1/h at the face's
    first cell and +1/h at its second, h the distance between their centers;
    x faces row by row, then z faces."""
    xc, zc = cell_centers(mesh)
    nx, nz = mesh.nx, mesh.nz
    d_x = np.zeros((nz * (nx - 1), mesh.n_cells))
    for iz in range(nz):
        for ix in range(nx - 1):
            face, cell = iz * (nx - 1) + ix, iz * nx + ix
            d_x[face, cell] = -1.0 / (xc[ix + 1] - xc[ix])
            d_x[face, cell + 1] = 1.0 / (xc[ix + 1] - xc[ix])
    d_z = np.zeros(((nz - 1) * nx, mesh.n_cells))
    for iz in range(nz - 1):
        for ix in range(nx):
            face = cell = iz * nx + ix
            d_z[face, cell] = -1.0 / (zc[iz + 1] - zc[iz])
            d_z[face, cell + nx] = 1.0 / (zc[iz + 1] - zc[iz])
    return d_x, d_z


def reference_meshes():
    """Random padded meshes, plus a single row (no z faces) and a single column."""
    rng = np.random.default_rng(0)
    meshes = [build_mesh(int(rng.integers(2, 9)), int(rng.integers(2, 7)),
                         float(rng.uniform(1, 5)), float(rng.uniform(1, 5)),
                         int(rng.integers(0, 3)), 1.4) for _ in range(5)]
    meshes.append(TensorMesh2D(hx=np.array([1.0, 2.0, 4.0, 3.0]), hz=np.array([2.0]),
                               origin_x=0.0))
    meshes.append(TensorMesh2D(hx=np.array([3.0]), hz=np.array([1.0, 2.0, 5.0]),
                               origin_x=0.0))
    return meshes


class TestDifferenceOperators:
    def test_single_pair(self):
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        ops = DifferenceOperators(mesh)
        assert np.array_equal(ops.d_x(np.array([2.0, 5.0])), [3.0])
        assert np.array_equal(ops.d_x_t(np.array([3.0])), [-3.0, 3.0])
        assert ops.d_z(np.array([2.0, 5.0])).shape == (0,)
        assert np.array_equal(ops.d_z_t(np.zeros(0)), np.zeros(2))

    def test_center_distance_scaling(self):
        """Widths 5 and 7.5: centers are 6.25 m apart, entries +-1/6.25."""
        mesh = TensorMesh2D(hx=np.array([5.0, 7.5]), hz=np.array([1.0]), origin_x=0.0)
        ops = DifferenceOperators(mesh)
        assert np.allclose(ops.d_x(np.array([0.0, 1.0])), 1.0 / 6.25)
        assert np.allclose(ops.d_x(np.array([1.0, 0.0])), -1.0 / 6.25)

    def test_linear_ramp_gives_constant(self):
        mesh = build_mesh(6, 4, 2.0, 3.0, 0, 1.0)
        ops = DifferenceOperators(mesh)
        xc, _ = cell_centers(mesh)
        ramp = np.tile(3.0 * xc, 4)  # linear in x, constant in z
        dx = ops.d_x(ramp)
        assert np.allclose(dx, 3.0)
        assert np.allclose(ops.d_z(ramp), 0.0)

    def test_annihilates_constants_random_meshes(self):
        for mesh in reference_meshes():
            ops = DifferenceOperators(mesh)
            c = np.full(mesh.n_cells, 3.7)
            assert np.allclose(ops.d_x(c), 0.0)
            assert np.allclose(ops.d_z(c), 0.0)

    def test_matches_per_face_reference(self):
        """D m and D^T r against the face-by-face dense matrices; a one-row
        mesh has no z faces and a one-column mesh no x faces."""
        rng = np.random.default_rng(1)
        for mesh in reference_meshes():
            ops = DifferenceOperators(mesh)
            m = rng.standard_normal(mesh.n_cells)
            for apply, apply_t, dense in zip((ops.d_x, ops.d_z), (ops.d_x_t, ops.d_z_t),
                                             dense_differences(mesh)):
                r = rng.standard_normal(dense.shape[0])
                assert apply(m).shape == (dense.shape[0],)
                assert rel_err(apply(m), dense @ m) < 1e-14
                assert rel_err(apply_t(r), dense.T @ r) < 1e-14

    def test_adjoint_identity(self):
        """<D m, r> = <m, D^T r> to 1e-14 relative."""
        rng = np.random.default_rng(2)
        for mesh in reference_meshes():
            ops = DifferenceOperators(mesh)
            for apply, apply_t in ((ops.d_x, ops.d_x_t), (ops.d_z, ops.d_z_t)):
                m = rng.standard_normal(mesh.n_cells)
                dm = apply(m)
                r = rng.standard_normal(dm.size)
                lhs, rhs = float(dm @ r), float(m @ apply_t(r))
                assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs), 1e-300)

    def test_face_mean(self):
        """Each face's value is the mean of the two cells its row of D couples."""
        rng = np.random.default_rng(3)
        for mesh in reference_meshes():
            ops = DifferenceOperators(mesh)
            c = np.exp(rng.standard_normal(mesh.n_cells))
            for mean, dense in zip((ops.mean_x, ops.mean_z), dense_differences(mesh)):
                coupled = np.abs(dense) > 0
                ref = (coupled @ c) / coupled.sum(axis=1)
                assert mean(c).shape == ref.shape
                assert rel_err(mean(c), ref) < 1e-15


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


class TestPhiM:
    def _setup(self, cfg):
        mesh = build_mesh(5, 4, 2.0, 2.0, 0, 1.0)
        m_ref = np.full(mesh.n_cells, cfg.m_ref)
        return mesh, regularization_terms(cfg, DifferenceOperators(mesh), m_ref)

    def test_zero_at_reference_constant(self):
        cfg = RegularizationConfig(m_ref=-4.0)
        mesh, terms = self._setup(cfg)
        m = np.full(mesh.n_cells, -4.0)
        value, grad = phi_m(m, terms)
        assert value == 0.0
        assert np.allclose(grad, 0.0)

    def test_smallness_unit_vector(self):
        cfg = RegularizationConfig(alpha_s=1.0, alpha_x=0.0, alpha_z=0.0, m_ref=0.0)
        mesh, terms = self._setup(cfg)
        m = np.zeros(mesh.n_cells)
        m[0] = 1.0
        value, grad = phi_m(m, terms, L2)
        assert np.isclose(value, 1.0)
        expected = np.zeros(mesh.n_cells)
        expected[0] = 2.0
        assert np.allclose(grad, expected)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        cfg = RegularizationConfig(alpha_s=0.3, alpha_x=0.7, alpha_z=0.5,
                                   p_s=1.0, p_x=1.0, p_z=0.0, m_ref=-4.0)
        mesh, terms = self._setup(cfg)
        m = -4.0 + rng.standard_normal(mesh.n_cells)
        irls = update_irls(m, terms, cfg.irls_epsilon)
        _, grad = phi_m(m, terms, irls)
        fd = central_difference(lambda: phi_m(m, terms, irls)[0], m, 1e-7)
        assert rel_err(grad, fd) < 1e-7

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        cfg = RegularizationConfig(alpha_s=0.1, alpha_x=1.0, alpha_z=1.0, m_ref=0.0)
        mesh, terms = self._setup(cfg)
        for _ in range(10):
            value, _ = phi_m(rng.standard_normal(mesh.n_cells), terms)
            assert value >= 0.0


@st.composite
def _regularization_problems(draw):
    """A drawn mesh and model, alphas in [0, 10], norms in [0, 2], and no
    sensitivity weights or drawn ones in [1e-4, 1], the floor of
    ``sensitivity_weights``."""
    mesh, m = draw(drawn_meshes())
    alphas = draw(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
    norms = draw(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
    cfg = RegularizationConfig(*alphas, *norms, m_ref=-4.0)
    sens = draw(st.none() | arrays(float, mesh.n_cells, elements=st.floats(1e-4, 1.0)))
    return mesh, m, cfg, sens


class TestRegHessian:
    @staticmethod
    def nested(v, cfg, ops, irls, sens):
        """The Hessian apply with its weight products nested around v, its
        sensitivity weights taken as face means here."""
        w_s, w_x, w_z = irls
        ws_s, ws_x, ws_z = ((sens, ops.mean_x(sens), ops.mean_z(sens))
                            if sens is not None else (1.0, 1.0, 1.0))
        out = cfg.alpha_s * 2.0 * (ws_s * (w_s * (ws_s * v)))
        out += cfg.alpha_x * 2.0 * ops.d_x_t(ws_x * (w_x * (ws_x * ops.d_x(v))))
        out += cfg.alpha_z * 2.0 * ops.d_z_t(ws_z * (w_z * (ws_z * ops.d_z(v))))
        return out

    @pytest.mark.parametrize("weighted", [False, True])
    def test_frozen_diagonals_match_nested_products(self, weighted):
        """Plain L2 and sparse norms with sensitivity weights, at desk scale."""
        spec, truth = dcinv.build_case1(45.0, "desk")
        mesh = spec.mesh()
        ops = DifferenceOperators(mesh)
        rng = np.random.default_rng(31)
        cfg = RegularizationConfig(alpha_s=0.005, alpha_x=0.5, alpha_z=0.7,
                                   p_s=0.0, p_x=1.0, p_z=1.0)
        sens = rng.uniform(1e-3, 1.0, mesh.n_cells) if weighted else None
        terms = regularization_terms(cfg, ops, np.full(mesh.n_cells, cfg.m_ref), sens)
        irls = update_irls(truth, terms, cfg.irls_epsilon) if weighted else L2
        hessian = reg_hessian(terms, irls)
        for _ in range(5):
            v = rng.standard_normal(mesh.n_cells)
            assert rel_err(hessian(v), self.nested(v, cfg, ops, irls, sens)) <= 1e-14

    @given(problem=_regularization_problems())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_dense_hessian_on_drawn_meshes(self, problem):
        """On four random vectors, the apply at the IRLS weights of the drawn
        model equals the dense ``sum 2 alpha D^T diag(W w W) D`` within 1e-12,
        with ``D`` formed one unit vector at a time from the difference
        operators and ``W`` the sensitivity weights (face means on the
        smoothness terms) or 1."""
        mesh, m, cfg, sens = problem
        ops = DifferenceOperators(mesh)
        terms = regularization_terms(cfg, ops, np.full(mesh.n_cells, cfg.m_ref), sens)
        irls = update_irls(m, terms, cfg.irls_epsilon)
        eye = np.eye(mesh.n_cells)
        dense = np.zeros_like(eye)
        sens_at = ((1.0,) * 3 if sens is None
                   else (sens, ops.mean_x(sens), ops.mean_z(sens)))
        for alpha, d, w, w_irls in zip((cfg.alpha_s, cfg.alpha_x, cfg.alpha_z),
                                       (eye, *(np.column_stack([f(e) for e in eye])
                                               for f in (ops.d_x, ops.d_z))),
                                       sens_at, irls):
            dense += 2.0 * alpha * (d.T * (w * w_irls * w)) @ d
        apply = reg_hessian(terms, irls)
        v = np.random.default_rng(mesh.n_cells).standard_normal((mesh.n_cells, 4))
        assert rel_err(np.column_stack([apply(c) for c in v.T]), dense @ v) < 1e-12


class TestSensitivityWeights:
    def test_probe_matches_explicit_columns(self):
        """Stochastic estimate vs explicit J column norms on a tiny problem."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=6, n_core_z=4, n_pad=1,
                                            line=20.0, spacing=5.0)
        m = np.full(mesh.n_cells, -4.0)
        cols = np.column_stack([reference_j_vec(sim, m, np.eye(mesh.n_cells)[:, j])
                                for j in range(mesh.n_cells)])
        true_w = np.sqrt((cols ** 2).sum(axis=0))
        true_w /= true_w.max()
        est = sensitivity_weights(sim, m, n_probes=300, rng_seed=0)
        keep = true_w > 1e-3  # floor region is clamped by construction
        assert np.median(np.abs(est[keep] - true_w[keep]) / true_w[keep]) < 0.15

    def test_matches_per_probe_products(self):
        """One product with J gives the estimate of one jt_vec per probe, and
        the probes drawn in one call are the draws of one call per probe."""
        spec, _ = dcinv.build_case1(45.0, "desk")
        mesh, survey = spec.mesh(), spec.survey()
        sim = DCSimulation(mesh, survey)
        m = np.random.default_rng(7).normal(np.log(0.01), 0.3, mesh.n_cells)
        rng = np.random.default_rng(3)
        acc = np.zeros(mesh.n_cells)
        for _ in range(32):
            jt = sim.jt_vec(m, rng.choice([-1.0, 1.0], size=survey.n_data))
            acc += jt * jt
        ref = np.sqrt(acc / 32)
        ref = np.maximum(ref / ref.max(), 1e-4)
        assert rel_err(sensitivity_weights(sim, m, n_probes=32, rng_seed=3), ref) < 1e-12

    def test_range_and_floor(self):
        mesh, survey, sim = tiny_dc_problem(n_core_x=8, n_core_z=4, n_pad=1,
                                            line=30.0, spacing=10.0)
        w = sensitivity_weights(sim, np.full(mesh.n_cells, -4.0), n_probes=16,
                                rng_seed=1)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)
        assert w.min() >= 1e-4

    def test_decays_with_depth(self):
        """Weights shrink down a vertical profile through the array center."""
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=6, n_pad=2,
                                            line=40.0, spacing=10.0)
        w = sensitivity_weights(sim, np.full(mesh.n_cells, -4.0), n_probes=64,
                                rng_seed=2)
        grid = w.reshape(mesh.nz, mesh.nx)
        center = mesh.nx // 2
        profile = grid[:, center]
        assert profile[0] > profile[-1]
        peak = int(np.argmax(profile))
        assert peak <= 1  # sensitivity concentrates at/near the surface
        assert np.all(np.diff(profile[peak:]) < 0.0)

    def test_zero_sensitivity_everywhere_is_a_numerical_failure(self):
        """It was a ValueError, which the CLI reports as invalid arguments."""
        sim = LinearSim(np.zeros((3, 12)))
        with pytest.raises(NumericalFailure, match="zero sensitivity everywhere"):
            sensitivity_weights(sim, np.zeros(12))


class TestGaussNewton:
    def test_beta0_is_the_curvature_ratio(self):
        """beta0 = ratio |W_d J x|^2 / x^T (hess phi_m) x for the seeded unit
        direction x, against J x from the reference forward mode and data
        weights that differ datum by datum."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(11)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        weights = weights_from_std(rng.uniform(0.05, 2.0, survey.n_data))
        reg = RegularizationConfig(alpha_s=0.01, alpha_x=0.7, alpha_z=0.3)
        terms = regularization_terms(reg, DifferenceOperators(mesh),
                                     np.full(mesh.n_cells, reg.m_ref))
        x = np.random.default_rng(5).standard_normal(mesh.n_cells)
        x /= np.linalg.norm(x)
        wjx = weights.values * reference_j_vec(sim, m, x)
        want = 0.7 * float(wjx @ wjx) / float(x @ reg_hessian(terms)(x))
        got = estimate_beta0(sim, m, terms, weights, rng_seed=5, ratio=0.7)
        assert rel_err(got, want) < 1e-10

    def test_vanished_regularization_curvature_is_a_numerical_failure(self):
        """All alphas at 0 and no beta0: ConventionalConfig refuses it for a
        run, and Gauss-Newton called directly fails numerically (it raised
        ValueError, which the CLI reports as invalid arguments)."""
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        sim = LinearSim(np.random.default_rng(2).standard_normal((5, mesh.n_cells)))
        reg = RegularizationConfig(alpha_s=0.0, alpha_x=0.0, alpha_z=0.0)
        with pytest.raises(NumericalFailure, match="regularization curvature vanished"):
            gauss_newton(sim, np.ones(5), weights_from_std(np.ones(5)), reg, GNConfig(),
                         np.zeros(mesh.n_cells), DifferenceOperators(mesh))

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
        ops = DifferenceOperators(mesh)
        gn = GNConfig(beta0=2.0, iterations_per_beta=1, max_beta_steps=1,
                      cg_tol=1e-12, cg_maxiter=500, target_chi=1e-12)
        trace = gauss_newton(LinearSim(g), d, weights, reg, gn, np.zeros(n), ops)

        w2 = np.diag(weights.values ** 2)
        dtd_x = np.column_stack([ops.d_x_t(ops.d_x(e)) for e in np.eye(n)])
        dtd_z = np.column_stack([ops.d_z_t(ops.d_z(e)) for e in np.eye(n)])
        hreg = 2.0 * (reg.alpha_s * np.eye(n) + reg.alpha_x * dtd_x + reg.alpha_z * dtd_z)
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
        trace = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        assert trace.converged
        assert trace.stop_reason == "target_chi"
        assert len(trace.records) == 1
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
        assert len(trace.records) == 1
        assert np.array_equal(trace.final_model, m0)

        gn = GNConfig(beta0=1.0, max_beta_steps=2, iterations_per_beta=1,
                      target_chi=1e-12)
        trace = gauss_newton_invert(mesh, survey, d, weights, reg, gn)
        assert trace.stop_reason == "budget"
        assert not trace.converged
        assert len(trace.records) == 2

    def test_a_spent_budget_whose_last_model_reaches_the_target_converged(self):
        """The model the last step accepts reaches the target: the budget is
        spent, yet the run stops on target_chi, with one record per budgeted
        iteration and none for that model."""
        rng = np.random.default_rng(3)
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        n = mesh.n_cells
        g = rng.standard_normal((8, n))
        d = g @ rng.standard_normal(n)
        weights = weights_from_std(np.full(8, 0.1))
        reg, ops = RegularizationConfig(m_ref=0.0), DifferenceOperators(mesh)
        gn = GNConfig(beta0=2.0, iterations_per_beta=1, max_beta_steps=2,
                      cg_tol=1e-12, cg_maxiter=500, target_chi=1e-12)
        spent = gauss_newton(LinearSim(g), d, weights, reg, gn, np.zeros(n), ops)
        last = chi_factor(g @ spent.final_model, d, weights)
        assert spent.stop_reason == "budget" and last < spent.records[-1].chi

        trace = gauss_newton(LinearSim(g), d, weights, reg, replace(gn, target_chi=last),
                             np.zeros(n), ops)
        assert trace.stop_reason == "target_chi" and trace.converged
        assert [r.epoch for r in trace.records] == [1, 2]
        assert np.array_equal(trace.final_model, spent.final_model)

    def test_failed_trial_halves_the_step(self):
        """A line-search trial whose solve fails is rejected like one that
        fails the Armijo test: the step halves and the run goes on."""

        class FirstTrialFails(LinearSim):
            def predict(self, m):
                self.models.append(m.copy())
                if len(self.models) == 2:  # the first trial of the first step
                    raise SolverFailure("conductivity underflow")
                return super().predict(m)

        rng = np.random.default_rng(3)
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        n = mesh.n_cells
        g = rng.standard_normal((8, n))
        sim = FirstTrialFails(g)
        sim.models = []
        gn = GNConfig(beta0=2.0, iterations_per_beta=1, max_beta_steps=1,
                      cg_tol=1e-12, cg_maxiter=500, target_chi=1e-12)
        trace = gauss_newton(sim, g @ rng.standard_normal(n),
                             weights_from_std(np.full(8, 0.1)),
                             RegularizationConfig(m_ref=0.0), gn, np.zeros(n),
                             DifferenceOperators(mesh))
        first_trial, second_trial = sim.models[1], sim.models[2]
        assert np.array_equal(second_trial, 0.5 * first_trial)  # m0 = 0
        assert np.array_equal(trace.final_model, second_trial)
        assert trace.stop_reason == "budget"

    def test_a_trial_model_that_is_not_finite_is_rejected(self, monkeypatch):
        """A step that is not finite fails its solve, so the line search
        rejects each trial and the run stops on it.  The solve raised
        ValueError, which ended the run as a usage error."""
        monkeypatch.setattr(dcinv.tikhonov, "_cg_matfree",
                            lambda apply_h, rhs, tol, maxiter: np.full(rhs.shape, np.nan))
        mesh, survey, sim = tiny_dc_problem(n_core_x=10, n_core_z=5, n_pad=1,
                                            line=40.0, spacing=10.0)
        d = sim.predict(np.full(mesh.n_cells, np.log(0.02)))
        m0 = np.full(mesh.n_cells, np.log(0.01))
        trace = gauss_newton(sim, d, weights_from_std(0.05 * np.abs(d)),
                             RegularizationConfig(m_ref=float(m0[0])),
                             GNConfig(beta0=1.0, line_search_max=3), m0,
                             DifferenceOperators(mesh))
        assert trace.stop_reason == "line_search"
        assert np.array_equal(trace.final_model, m0)

    def test_an_uphill_direction_falls_back_to_steepest_descent(self, monkeypatch):
        """When CG returns a direction that does not descend, Gauss-Newton
        steps along the negative gradient instead, and the line search takes
        the step."""
        monkeypatch.setattr(dcinv.tikhonov, "_cg_matfree",
                            lambda apply_h, rhs, tol, maxiter: -rhs)  # rhs is -grad
        rng = np.random.default_rng(3)
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        n = mesh.n_cells
        g = rng.standard_normal((8, n))
        d = g @ rng.standard_normal(n)
        weights = weights_from_std(np.full(8, 0.1))
        gn = GNConfig(beta0=2.0, iterations_per_beta=1, max_beta_steps=1, target_chi=1e-12)
        trace = gauss_newton(LinearSim(g), d, weights, RegularizationConfig(m_ref=0.0), gn,
                             np.zeros(n), DifferenceOperators(mesh))
        assert trace.stop_reason == "budget"
        # from m0 = m_ref = 0 the gradient is the data term's alone
        step = trace.final_model / (g.T @ (weights.values ** 2 * d))
        assert step[0] > 0 and np.allclose(step, step[0], rtol=1e-12)

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


def test_cg_that_loses_curvature_returns_its_current_iterate():
    """On an operator with no positive curvature (v -> -v) CG stops at its
    first product and returns its start, zero, rather than stepping uphill."""
    products = []

    def negative(v):
        products.append(v.copy())
        return -v

    x = _cg_matfree(negative, np.array([1.0, -2.0, 3.0]), 1e-8, 10)
    assert np.array_equal(x, np.zeros(3)) and len(products) == 1


def test_cg_on_a_zero_right_hand_side_returns_zeros_without_a_product():
    def unused(v):
        raise AssertionError("the operator was applied")

    x = _cg_matfree(unused, np.zeros(3), 1e-8, 10)
    assert np.array_equal(x, np.zeros(3))


class TestTraffic:
    def test_gauss_newton_forms_j_once_per_model(self, monkeypatch):
        """A desk sparse-norm run with sensitivity weights solves once per
        distinct model, builds J once per model that needs products, and
        makes no matrix-free product: the probes, the gradient and every
        inner-CG step are products with J."""
        spec, truth = dcinv.build_case1(45.0, "desk")
        mesh, survey = spec.mesh(), spec.survey()
        d = DCSimulation(mesh, survey).predict(truth)
        d_obs = d * (1 + 0.05 * np.random.default_rng(6).standard_normal(d.size))
        weights = weights_from_std(0.05 * np.abs(d))
        reg = RegularizationConfig(p_s=0, p_x=1, p_z=1, alpha_s=0.005, alpha_x=0.5,
                                   alpha_z=0.5, use_sensitivity_weights=True)
        traffic = Traffic(monkeypatch)
        trace = gauss_newton_invert(mesh, survey, d_obs, weights, reg, GNConfig())
        assert trace.converged and len(trace.records) >= 2
        assert traffic.calls["jt_vec"] == 0
        assert traffic.calls["resistances"] == traffic.calls["solve"] == len(traffic.models)
        assert traffic.jacobian_builds == len(traffic.jacobian_models)
        # The previous model's J (19 MB at full scale) is gone before the
        # next one is built.
        assert traffic.most_alive == 0
        # m0 serves the probes, beta0 and the first iteration; the model that
        # reaches the target needs no J.
        assert traffic.jacobian_builds == len(trace.records) - 1


@pytest.mark.parametrize("config, field, value", [
    (RegularizationConfig, "alpha_s", np.nan), (RegularizationConfig, "alpha_z", np.inf),
    (RegularizationConfig, "irls_epsilon", np.nan), (GNConfig, "cooling_factor", 0.0),
    (GNConfig, "cooling_factor", 1.0), (GNConfig, "beta0", 0.0), (GNConfig, "beta0", np.nan),
    (GNConfig, "rng_seed", -1), (GNConfig, "target_chi", np.inf)])
def test_config_rejects_what_a_run_cannot_use(config, field, value):
    """Each bound holds at its edge, and NaN fails every check."""
    with pytest.raises(ValueError, match=field):
        config(**{field: value})
