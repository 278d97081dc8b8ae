import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcinv
from dcinv.errors import SolverFailure
from dcinv.forward import (BlockFactor, DataWeights, DCSimulation, _electrode_cells,
                           _FaceGeometry, assemble_system, build_data_weights,
                           factor_system, phi_d, predict, weights_from_std)
from dcinv.mesh import TensorMesh2D, build_mesh
from dcinv.survey import Survey, build_dipole_dipole_survey

from helpers import rel_err, tiny_dc_problem


class TestAssembly:
    def test_uniform_interior_conductance(self):
        """1x2 unit-cell mesh: the single interior face carries sigma."""
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        sigma = np.array([2.0, 2.0])
        a = assemble_system(mesh, sigma).toarray()
        assert np.isclose(a[0, 1], -2.0)
        assert np.isclose(a[1, 0], -2.0)

    def test_harmonic_mean_face(self):
        """Adjacent sigma {1, 3} on unit geometry: face conductance 1.5."""
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        a = assemble_system(mesh, np.array([1.0, 3.0])).toarray()
        assert np.isclose(a[0, 1], -1.5)
        assert np.isclose(a[0, 1], -2 * 1 * 3 / (1 + 3))

    def test_symmetric_and_positive_definite(self):
        """3x3 uniform mesh: A = A^T entrywise, smallest eigenvalue > 0."""
        mesh = build_mesh(3, 3, 1.0, 1.0, 0, 1.0)
        a = assemble_system(mesh, np.full(9, 0.7)).toarray()
        assert np.abs(a - a.T).max() == 0.0
        assert np.linalg.eigvalsh(a).min() > 0

    def test_symmetry_random_models(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mesh = build_mesh(rng.integers(2, 8), rng.integers(2, 6), 2.0, 3.0,
                              int(rng.integers(0, 3)), 1.5)
            sigma = np.exp(rng.standard_normal(mesh.n_cells))
            a = assemble_system(mesh, sigma)
            assert abs(a - a.T).max() == 0.0

    def test_nonpositive_sigma_rejected(self):
        mesh = build_mesh(2, 2, 1.0, 1.0, 0, 1.0)
        with pytest.raises(ValueError):
            assemble_system(mesh, np.array([1.0, -1.0, 1.0, 1.0]))


class TestSolve:
    def test_zero_source(self):
        mesh = build_mesh(4, 3, 1.0, 1.0, 0, 1.0)
        assert np.all(factor_system(mesh, np.ones(12)).solve(np.zeros(12)) == 0.0)

    def test_zero_rhs_column(self):
        """A zero column among non-zero ones solves to exactly zero."""
        mesh = build_mesh(4, 4, 1.0, 1.0, 0, 1.0)
        b = np.zeros((16, 2))
        b[:, 1] = 1.0
        x = factor_system(mesh, np.ones(16)).solve(b)
        assert np.all(x[:, 0] == 0.0)
        assert np.all(x[:, 1] != 0.0)

    def test_single_cell(self):
        mesh = TensorMesh2D(hx=np.array([1.0]), hz=np.array([1.0]), origin_x=0.0)
        a = assemble_system(mesh, np.array([1.0])).toarray()
        phi = factor_system(mesh, np.array([1.0])).solve(np.array([2.0]))
        assert np.isclose(phi[0], 2.0 / a[0, 0])

    def test_matches_dense_solve(self):
        """Wide, tall (nz > nx), one-column and one-cell meshes, random
        conductivities and a block of right-hand sides, vs numpy.linalg.solve."""
        rng = np.random.default_rng(7)
        meshes = [build_mesh(9, 4, 2.0, 2.0, 2, 1.5),
                  build_mesh(3, 8, 2.0, 2.0, 1, 1.5),
                  TensorMesh2D(hx=np.array([2.0]), hz=np.array([1.0, 2.0, 4.0]),
                               origin_x=0.0),
                  TensorMesh2D(hx=np.array([1.0]), hz=np.array([1.0]), origin_x=0.0)]
        assert meshes[0].nx > meshes[0].nz and meshes[1].nz > meshes[1].nx
        for mesh in meshes:
            sigma = np.exp(rng.standard_normal(mesh.n_cells))
            q = rng.standard_normal((mesh.n_cells, 3))
            ref = np.linalg.solve(assemble_system(mesh, sigma).toarray(), q)
            factor = factor_system(mesh, sigma)
            assert rel_err(factor.solve(q), ref) < 1e-12
            assert rel_err(factor.solve(q[:, 0]), ref[:, 0]) < 1e-12

    def test_no_scipy_linear_algebra(self):
        """Importing dcinv and predicting loads neither scipy.linalg nor scipy.sparse.linalg."""
        code = ("import sys, numpy as np, dcinv\n"
                "spec, truth = dcinv.build_case1(45.0, 'desk')\n"
                "dcinv.DCSimulation(spec.mesh(), spec.survey()).predict(truth)\n"
                "print(sorted(k for k in sys.modules\n"
                "             if k.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(dcinv.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestPredict:
    def test_conductivity_scaling(self):
        """Scaling sigma by c scales every datum by 1/c."""
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, np.log(0.01))
        d1 = predict(mesh, survey, m)
        d2 = predict(mesh, survey, m + np.log(3.0))
        assert rel_err(d2, d1 / 3.0) < 1e-9

    def test_log_shift_law(self):
        """predict(m + c) = e^-c predict(m) for any model."""
        mesh, survey, _ = tiny_dc_problem()
        rng = np.random.default_rng(5)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        d0 = predict(mesh, survey, m)
        d1 = predict(mesh, survey, m + 0.8)
        assert rel_err(d1, np.exp(-0.8) * d0) < 1e-9

    def test_reciprocity(self):
        """Swapping source and receiver dipoles reproduces the datum."""
        mesh, survey, _ = tiny_dc_problem()
        rng = np.random.default_rng(6)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        s1 = Survey(electrodes=survey.electrodes, sources=((0, 1),),
                    receivers=(((3, 4),),))
        s2 = Survey(electrodes=survey.electrodes, sources=((3, 4),),
                    receivers=(((0, 1),),))
        da = predict(mesh, s1, m)[0]
        db = predict(mesh, s2, m)[0]
        assert abs(da - db) / abs(da) < 1e-9

    def test_monotone_in_conductivity(self):
        """Uniformly more conductive ground gives smaller |datum|."""
        mesh, survey, _ = tiny_dc_problem()
        mags = []
        for sigma in (0.005, 0.01, 0.02, 0.04):
            d = predict(mesh, survey, np.full(mesh.n_cells, np.log(sigma)))
            mags.append(np.abs(d).mean())
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_singular_model_raises(self):
        """A conductivity that underflows to zero leaves a singular system,
        and the failed model does not reuse the previous model's factor."""
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        sim.predict(m)
        m[mesh.n_cells // 2] = -800.0
        for _ in range(2):
            with np.errstate(divide="ignore"), pytest.raises(SolverFailure):
                sim.predict(m)

    def test_half_space_matches_analytic(self):
        """Uniform half-space vs the 2D line-source solution, within 3%
        for offsets up to a fifth of the padding extent."""
        n_pad = 9
        mesh = build_mesh(50, 12, 5.0, 5.0, n_pad, 1.5)
        survey = build_dipole_dipole_survey(200.0, 25.0, 24, x0=-100.0)
        pad_extent = (5.0 * 1.5 ** np.arange(1, n_pad + 1)).sum()
        sigma0 = 0.01
        d = predict(mesh, survey, np.full(mesh.n_cells, np.log(sigma0)))
        rho = 1.0 / sigma0
        e = survey.electrodes
        k = 0
        checked = 0
        for (a, b), rx in zip(survey.sources, survey.receivers):
            for m_, n_ in rx:
                xa, xb, xm, xn = e[a], e[b], e[m_], e[n_]

                def pot(x):
                    return -(rho / np.pi) * (np.log(abs(x - xa)) - np.log(abs(x - xb)))

                ana = pot(xm) - pot(xn)
                if abs(xm - xb) <= pad_extent / 5:
                    assert abs(d[k] - ana) / abs(ana) < 0.03
                    checked += 1
                k += 1
        assert checked >= 5


class TestSensitivityProducts:
    def test_jvec_zero_direction(self):
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        assert np.all(sim.j_vec(m, np.zeros(mesh.n_cells)) == 0.0)

    def test_jtvec_zero_vector(self):
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        assert np.all(sim.jt_vec(m, np.zeros(survey.n_data)) == 0.0)

    def test_adjoint_identity_random(self):
        """<Jw, v> = <w, J^T v> over random meshes, models, and vectors."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            mesh = build_mesh(int(rng.integers(7, 11)), int(rng.integers(3, 7)),
                              5.0, 5.0, int(rng.integers(1, 3)), 1.5)
            survey = build_dipole_dipole_survey(30.0, 10.0, 24, x0=-15.0)
            sim = DCSimulation(mesh, survey)
            m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
            w = rng.standard_normal(mesh.n_cells)
            v = rng.standard_normal(survey.n_data)
            lhs = float(sim.j_vec(m, w) @ v)
            rhs = float(w @ sim.jt_vec(m, v))
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8

    def test_jvec_taylor_order(self):
        """|F(m + eps w) - F(m) - eps Jw| shrinks at second order."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(12)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        w = rng.standard_normal(mesh.n_cells)
        w /= np.linalg.norm(w)
        d0 = sim.predict(m)
        jw = sim.j_vec(m, w)
        rems = []
        eps_list = [1e-2, 1e-3, 1e-4]
        for eps in eps_list:
            dp = predict(mesh, survey, m + eps * w)
            rems.append(np.linalg.norm(dp - d0 - eps * jw))
        orders = [np.log(rems[i] / rems[i + 1]) / np.log(10) for i in range(2)]
        assert min(orders) >= 1.9

    def test_phi_d_gradient_matches_fd(self):
        """J^T W^T W r vs central differences of phi_d, 10 random directions."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(13)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        d_obs = sim.predict(m) * (1 + 0.05 * rng.standard_normal(survey.n_data))
        weights = weights_from_std(0.05 * np.abs(d_obs) + 1e-6)
        g = sim.jt_vec(m, weights.values ** 2 * (sim.predict(m) - d_obs))
        eps = 1e-5
        for _ in range(10):
            w = rng.standard_normal(mesh.n_cells)
            w /= np.linalg.norm(w)
            fp = phi_d(predict(mesh, survey, m + eps * w), d_obs, weights)
            fm = phi_d(predict(mesh, survey, m - eps * w), d_obs, weights)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - g @ w) / abs(fd) < 1e-5


def dense_products(mesh, survey, m, w, v):
    """predict, J w and J^T v from the dense operator, one numpy.linalg.solve each.

    The derivative of the operator is taken by complex step on its assembly
    (exact to rounding): along w for J w, and cell by cell for J^T v.
    """
    cells = _electrode_cells(mesh, survey.electrodes)
    faces = _FaceGeometry(mesh)
    a = assemble_system(mesh, np.exp(m)).toarray()
    q = np.zeros((mesh.n_cells, survey.n_sources))
    p = np.zeros((survey.n_data, mesh.n_cells, survey.n_sources))
    k = 0
    for s, ((ia, ib), rx) in enumerate(zip(survey.sources, survey.receivers)):
        q[cells[ia], s] += 1.0
        q[cells[ib], s] -= 1.0
        for im, in_ in rx:
            p[k, cells[im], s] += 1.0
            p[k, cells[in_], s] -= 1.0
            k += 1
    h = 1e-30

    def d_operator(direction):
        return faces.assemble(np.exp(m + 1j * h * direction)).imag / h

    phi = np.linalg.solve(a, q)
    d = np.einsum("kns,ns->k", p, phi)
    jw = np.einsum("kns,ns->k", p, np.linalg.solve(a, -d_operator(w) @ phi))
    lam = np.linalg.solve(a, -np.einsum("kns,k->ns", p, v))
    jtv = np.array([np.sum(lam * (d_operator(e_j) @ phi))
                    for e_j in np.eye(mesh.n_cells)])
    return phi, d, jw, jtv


class TestAgainstDenseReference:
    """The electrode-column products against a solve per product, at 1e-10."""

    def check(self, mesh, survey, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(survey.n_data)
        phi, d, jw, jtv = dense_products(mesh, survey, m, w, v)
        sim = DCSimulation(mesh, survey)
        assert rel_err(sim.fields(m), phi) < 1e-10
        assert rel_err(sim.predict(m), d) < 1e-10
        assert rel_err(sim.j_vec(m, w), jw) < 1e-10
        assert rel_err(sim.jt_vec(m, v), jtv) < 1e-10
        return sim

    def test_desk_case1(self):
        spec, truth = dcinv.build_case1(45.0, "desk")
        self.check(spec.mesh(), spec.survey(), truth, seed=21)

    def test_electrodes_sharing_a_cell(self):
        """20 m cells under a 10 m station spacing: electrodes pair up in
        cells, so some sources inject nothing and some data read zero."""
        mesh = build_mesh(4, 3, 20.0, 10.0, 2, 1.5)
        survey = build_dipole_dipole_survey(60.0, 10.0, 24, x0=-30.0)
        rng = np.random.default_rng(22)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        sim = self.check(mesh, survey, m, seed=23)
        cells = _electrode_cells(mesh, survey.electrodes)
        assert np.unique(cells).size < cells.size
        assert sim.cells.size == np.unique(cells).size
        zero = [s for s, (a, b) in enumerate(survey.sources) if cells[a] == cells[b]]
        assert zero and np.all(sim.fields(m)[:, zero] == 0.0)

    def test_operator_applied_on_the_grid(self):
        """A(t) u from face slices equals the assembled matrix times u."""
        rng = np.random.default_rng(24)
        for mesh in (build_mesh(6, 4, 2.0, 3.0, 1, 1.5),
                     TensorMesh2D(hx=np.array([2.0]), hz=np.array([1.0, 2.0]),
                                  origin_x=0.0)):
            sigma = np.exp(rng.standard_normal(mesh.n_cells))
            u = rng.standard_normal((mesh.n_cells, 3))
            faces = _FaceGeometry(mesh)
            au = faces.apply(*faces.conductances(sigma), u)
            assert rel_err(au, assemble_system(mesh, sigma) @ u) < 1e-12


class TestSolveCount:
    """One factor and one solve per model, however many products it serves."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"factor": 0, "solve": 0}
        init, solve = BlockFactor.__init__, BlockFactor.solve

        def counted_init(self, *args):
            counts["factor"] += 1
            init(self, *args)

        def counted_solve(self, b):
            counts["solve"] += 1
            return solve(self, b)

        monkeypatch.setattr(BlockFactor, "__init__", counted_init)
        monkeypatch.setattr(BlockFactor, "solve", counted_solve)
        return counts

    def test_one_factor_and_one_solve_per_model(self, counts):
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(25)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        sim.predict(m)
        for _ in range(5):
            sim.j_vec(m, rng.standard_normal(mesh.n_cells))
            sim.jt_vec(m, rng.standard_normal(survey.n_data))
        assert counts == {"factor": 1, "solve": 1}
        sim.jt_vec(m + 0.1, rng.standard_normal(survey.n_data))
        sim.predict(m + 0.1)
        sim.j_vec(m + 0.1, rng.standard_normal(mesh.n_cells))
        assert counts == {"factor": 2, "solve": 2}


class TestWeightsAndMisfit:
    def test_weights_relative(self):
        w = build_data_weights(np.array([2.0]), rel=0.05, floor=0.0)
        assert np.isclose(w.values[0], 10.0)

    def test_weights_floor_only(self):
        w = build_data_weights(np.array([0.0]), rel=0.05, floor=1e-6)
        assert np.isclose(w.values[0], 1e6)

    def test_weights_absolute_value(self):
        w = build_data_weights(np.array([-2.0]), rel=0.05, floor=0.0)
        assert np.isclose(w.values[0], 10.0)

    def test_weights_invalid(self):
        with pytest.raises(ValueError):
            build_data_weights(np.array([1.0]), rel=0.0, floor=0.0)
        with pytest.raises(ValueError):
            build_data_weights(np.array([0.0]), rel=0.05, floor=0.0)

    def test_phi_d_zero_at_fit(self):
        w = DataWeights(values=np.ones(3))
        d = np.array([1.0, 2.0, 3.0])
        assert phi_d(d, d, w) == 0.0

    def test_phi_d_unit_residuals(self):
        """Residual = 1/weight per datum gives N/2."""
        w = DataWeights(values=np.array([2.0, 4.0, 8.0, 16.0]))
        d_obs = np.zeros(4)
        d_pred = 1.0 / w.values
        assert np.isclose(phi_d(d_pred, d_obs, w), 2.0)

    def test_phi_d_hand_value(self):
        w = DataWeights(values=np.ones(2))
        assert np.isclose(phi_d(np.array([1.0, 2.0]), np.zeros(2), w), 2.5)

    def test_phi_d_length_mismatch(self):
        w = DataWeights(values=np.ones(2))
        with pytest.raises(ValueError):
            phi_d(np.ones(3), np.zeros(3), w)

