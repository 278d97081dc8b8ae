import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcinv
from dcinv.checks import reference_j_vec, rel_err
from dcinv.errors import SolverFailure
from dcinv.forward import (DataWeights, DCSimulation, electrode_cells, _FaceGeometry,
                           _tridiagonal_inverses, phi_d, solve_surface, weights_from_std)
from dcinv.mesh import TensorMesh2D, build_mesh
from dcinv.survey import Survey, build_dipole_dipole_survey

from helpers import Traffic, dense_operator, drawn_meshes, operator_entries, tiny_dc_problem


class TestAssembly:
    def test_uniform_interior_conductance(self):
        """1x2 unit-cell mesh: the single interior face carries sigma."""
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        sigma = np.array([2.0, 2.0])
        a = dense_operator(mesh, sigma)
        assert np.isclose(a[0, 1], -2.0)
        assert np.isclose(a[1, 0], -2.0)

    def test_harmonic_mean_face(self):
        """Adjacent sigma {1, 3} on unit geometry: face conductance 1.5."""
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        a = dense_operator(mesh, np.array([1.0, 3.0]))
        assert np.isclose(a[0, 1], -1.5)
        assert np.isclose(a[0, 1], -2 * 1 * 3 / (1 + 3))

    def test_symmetric_and_positive_definite(self):
        """3x3 uniform mesh: A = A^T entrywise, smallest eigenvalue > 0."""
        mesh = build_mesh(3, 3, 1.0, 1.0, 0, 1.0)
        a = dense_operator(mesh, np.full(9, 0.7))
        assert np.abs(a - a.T).max() == 0.0
        assert np.linalg.eigvalsh(a).min() > 0

    def test_symmetry_random_models(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mesh = build_mesh(rng.integers(2, 8), rng.integers(2, 6), 2.0, 3.0,
                              int(rng.integers(0, 3)), 1.5)
            sigma = np.exp(rng.standard_normal(mesh.n_cells))
            a = dense_operator(mesh, sigma)
            assert np.abs(a - a.T).max() == 0.0


def _unit_sources(mesh, columns):
    """E (n_cells, k): a unit source in the surface cell of each given column."""
    e = np.zeros((mesh.n_cells, len(columns)))
    e[columns, np.arange(len(columns))] = 1.0
    return e


def solved(mesh, sigma, columns):
    """A^-1 E for the operator of ``mesh`` at ``sigma`` and unit sources on the
    surface of ``columns``, solved as ``DCSimulation`` solves it."""
    faces = _FaceGeometry(mesh)
    return solve_surface(*faces.blocks(faces.resistances(sigma)), columns)


class TestSolve:
    def test_single_cell(self):
        mesh = TensorMesh2D(hx=np.array([1.0]), hz=np.array([1.0]), origin_x=0.0)
        a = dense_operator(mesh, np.array([1.0]))
        phi = solved(mesh, np.array([1.0]), [0])
        assert phi.shape == (1, 1) and np.isclose(phi[0, 0], 1.0 / a[0, 0])

    def test_an_overflowing_inverse_is_a_solver_failure(self):
        """A pivot of 1e-320 is not zero, so the factor takes it, but its
        inverse overflows: the potentials are not finite, and the solve says so."""
        with (np.errstate(over="ignore"),
              pytest.raises(SolverFailure, match="^direct solve produced non-finite potentials$")):
            solve_surface(np.array([[1e-320]]), np.zeros((1, 0)), np.zeros((0, 1)), [0])

    def test_matches_dense_solve(self):
        """Wide, tall (nz > nx), one-column and one-cell meshes, and ragged
        meshes of 1 to 9 columns and 1 to 5 rows (both parities of nx and of
        the odd-column count, so the odd columns meet at one middle column and
        at a coupled pair), random conductivities, a unit source on every
        surface column in shuffled order and on one alone, vs
        numpy.linalg.solve."""
        rng = np.random.default_rng(7)

        def ragged(nx, nz):
            return TensorMesh2D(hx=rng.uniform(1.0, 3.0, nx), hz=rng.uniform(1.0, 3.0, nz),
                                origin_x=0.0)

        meshes = [build_mesh(9, 4, 2.0, 2.0, 2, 1.5),
                  build_mesh(3, 8, 2.0, 2.0, 1, 1.5),
                  TensorMesh2D(hx=np.array([2.0]), hz=np.array([1.0, 2.0, 4.0]),
                               origin_x=0.0),
                  TensorMesh2D(hx=np.array([1.0]), hz=np.array([1.0]), origin_x=0.0),
                  ragged(7, 12)]
        meshes += [ragged(nx, nz) for nx in range(1, 10) for nz in range(1, 6)]
        assert meshes[0].nx > meshes[0].nz and meshes[1].nz > meshes[1].nx
        assert meshes[4].nz > meshes[4].nx and meshes[4].nx % 2
        for mesh in meshes:
            sigma = np.exp(rng.standard_normal(mesh.n_cells))
            columns = rng.permutation(mesh.nx)
            ref = np.linalg.solve(dense_operator(mesh, sigma), _unit_sources(mesh, columns))
            assert rel_err(solved(mesh, sigma, columns), ref) < 1e-12
            assert rel_err(solved(mesh, sigma, columns[:1]), ref[:, :1]) < 1e-12

    @pytest.mark.parametrize("nz", [1, 2, 5, 32])
    def test_tridiagonal_inverses_match_inv(self, nz):
        """The batched LDL^T inverses of the even columns' blocks against
        numpy.linalg.inv, block by block, at 1e-12."""
        rng = np.random.default_rng(nz)
        off = -rng.uniform(0.1, 1.0, (6, nz - 1))
        diag = rng.uniform(0.1, 1.0, (6, nz))
        diag[:, 1:] -= off
        diag[:, :-1] -= off
        blocks = np.zeros((6, nz, nz))
        i = np.arange(nz)
        blocks[:, i, i] = diag
        blocks[:, i[:-1], i[1:]] = off
        blocks[:, i[1:], i[:-1]] = off
        inverses = _tridiagonal_inverses(diag, off, range(0, 12, 2))
        for block, inverse in zip(blocks, inverses):
            assert rel_err(inverse, np.linalg.inv(block)) < 1e-12

    @pytest.mark.parametrize("nx, column", [(nx, j) for nx in range(1, 8) for j in range(nx)])
    def test_singular_pivot_names_its_column(self, nx, column):
        """Every cell column in turn is cut off and zeroed, so its block alone
        is singular: an even column when it is condensed, an odd one on the
        left sweep, on the right sweep, as the odd middle column or as half of
        the meeting pair."""
        nz = 3
        mesh = build_mesh(nx, nz, 1.0, 1.0, 0, 1.0)
        sigma = np.exp(np.random.default_rng(nx).standard_normal(mesh.n_cells))
        g = dense_operator(mesh, sigma).reshape(nz, nx, nz, nx)
        ix, iz = np.arange(nx)[:, None], np.arange(nz)[None, :]
        diag = g[iz, ix, iz, ix]
        z_off = g[iz[:, :-1], ix, iz[:, 1:], ix]
        x_off = g[iz, ix[:-1], iz, ix[1:]]
        diag[column] = 0.0
        z_off[column] = 0.0
        x_off[max(column - 1, 0):column + 1] = 0.0
        with pytest.raises(SolverFailure, match=rf"cell column {column} "):
            solve_surface(diag, z_off, x_off, [0])

    def test_pivots_are_inverted_in_pairs(self, monkeypatch):
        """Solving on an nx-column grid makes at most nx // 4 + 2 dense inverse
        calls: the even columns are inverted in one batched sweep, and the
        odd ones are not eliminated one column per call.  One column (a
        single tridiagonal block) makes none."""
        traffic = Traffic(monkeypatch)
        spec, truth = dcinv.build_case1(45.0, "desk")
        meshes = [build_mesh(nx, 3, 1.0, 1.0, 0, 1.0) for nx in (1, 2, 3, 5, 6)]
        for mesh in meshes + [spec.mesh()]:
            before = traffic.inverses
            solved(mesh, np.ones(mesh.n_cells), [0])
            assert (mesh.nx > 1) <= traffic.inverses - before <= mesh.nx // 4 + 2

    def test_no_scipy(self):
        """Importing dcinv, one predict and one sparse-norm Gauss-Newton
        iteration with sensitivity weights (so the IRLS update and the face
        means run) load no scipy module at all."""
        code = ("import sys, numpy as np, dcinv\n"
                "spec, truth = dcinv.build_case1(45.0, 'desk')\n"
                "mesh, survey = spec.mesh(), spec.survey()\n"
                "d = dcinv.DCSimulation(mesh, survey).predict(truth)\n"
                "reg = dcinv.RegularizationConfig(p_s=0.0, p_x=1.0, p_z=1.0,\n"
                "                                 use_sensitivity_weights=True)\n"
                "gn = dcinv.GNConfig(max_beta_steps=1, iterations_per_beta=1,\n"
                "                    target_chi=1e-12)\n"
                "trace = dcinv.gauss_newton_invert(mesh, survey, d,\n"
                "    dcinv.weights_from_std(0.05 * np.abs(d)), reg, gn)\n"
                "assert len(trace.records) == 1 and trace.stop_reason == 'budget'\n"
                "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(dcinv.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


@st.composite
def _surface_problems(draw):
    """A drawn mesh, its conductivity, and distinct surface columns in any order."""
    mesh, m = draw(drawn_meshes())
    columns = draw(st.lists(st.integers(0, mesh.nx - 1), min_size=1, max_size=mesh.nx,
                            unique=True))
    return mesh, np.exp(m), np.array(columns)


@st.composite
def _sensitivity_problems(draw):
    """A drawn mesh and model, and a dipole-dipole line of 4-7 stations that
    starts and ends inside the mesh's surface (several may share a cell)."""
    mesh, m = draw(drawn_meshes())
    stations = draw(st.integers(4, 7))
    width = mesh.x_edges[-1]
    start = draw(st.floats(0.001, 0.5))
    spacing = draw(st.floats(0.01, 0.999 - start)) * width / (stations - 1)
    survey = build_dipole_dipole_survey((stations - 1) * spacing, spacing,
                                        draw(st.integers(1, 3)), x0=start * width)
    return mesh, survey, m


class TestSurfaceSolve:
    """``solve_surface``, the forward operator's one solve, against a dense solve."""

    @given(problem=_surface_problems())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_dense_solve(self, problem):
        mesh, sigma, columns = problem
        ref = np.linalg.solve(dense_operator(mesh, sigma), _unit_sources(mesh, columns))
        assert rel_err(solved(mesh, sigma, columns), ref) < 1e-12

    @pytest.mark.parametrize("columns", [[2, 2], [0, 3, 0], [-1], [5], [0, 5], [1.0],
                                         [[0, 1]]])
    def test_columns_must_be_distinct_and_on_the_grid(self, columns):
        with pytest.raises(ValueError, match="distinct"):
            solved(build_mesh(5, 3, 1.0, 1.0, 0, 1.0), np.ones(15), columns)


class TestPredict:
    def test_conductivity_scaling(self):
        """Scaling sigma by c scales every datum by 1/c."""
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, np.log(0.01))
        d1 = sim.predict(m)
        d2 = sim.predict(m + np.log(3.0))
        assert rel_err(d2, d1 / 3.0) < 1e-9

    def test_log_shift_law(self):
        """predict(m + c) = e^-c predict(m) for any model."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(5)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        d0 = sim.predict(m)
        d1 = sim.predict(m + 0.8)
        assert rel_err(d1, np.exp(-0.8) * d0) < 1e-9

    def test_reciprocity(self):
        """Swapping source and receiver dipoles reproduces the datum."""
        mesh, survey, _ = tiny_dc_problem()
        rng = np.random.default_rng(6)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        s1 = Survey(electrodes=survey.electrodes, abmn=[[0, 1, 3, 4]])
        s2 = Survey(electrodes=survey.electrodes, abmn=[[3, 4, 0, 1]])
        da = DCSimulation(mesh, s1).predict(m)[0]
        db = DCSimulation(mesh, s2).predict(m)[0]
        assert abs(da - db) / abs(da) < 1e-9

    def test_monotone_in_conductivity(self):
        """Uniformly more conductive ground gives smaller |datum|."""
        mesh, survey, sim = tiny_dc_problem()
        mags = []
        for sigma in (0.005, 0.01, 0.02, 0.04):
            d = sim.predict(np.full(mesh.n_cells, np.log(sigma)))
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
        d = DCSimulation(mesh, survey).predict(np.full(mesh.n_cells, np.log(sigma0)))
        rho = 1.0 / sigma0
        e = survey.electrodes
        checked = 0
        for k, (xa, xb, xm, xn) in enumerate(e[survey.abmn]):
            def pot(x):
                return -(rho / np.pi) * (np.log(abs(x - xa)) - np.log(abs(x - xb)))

            ana = pot(xm) - pot(xn)
            if abs(xm - xb) <= pad_extent / 5:
                assert abs(d[k] - ana) / abs(ana) < 0.03
                checked += 1
        assert checked >= 5


class TestSensitivityProducts:
    def test_jvec_zero_direction(self):
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        assert np.all(reference_j_vec(sim, m, np.zeros(mesh.n_cells)) == 0.0)

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
            lhs = float(reference_j_vec(sim, m, w) @ v)
            rhs = float(w @ sim.jt_vec(m, v))
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8

    @given(problem=_sensitivity_problems())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_adjoint_and_matrix_on_drawn_meshes(self, problem):
        """On drawn meshes, models and lines: <J w, v> = <w, J^T v> to 1e-10
        relative, and the explicit J times w and v^T times J against J v and
        J^T v to 1e-12."""
        mesh, survey, m = problem
        sim = DCSimulation(mesh, survey)
        rng = np.random.default_rng(mesh.n_cells)
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(survey.n_data)
        jw, jtv = reference_j_vec(sim, m, w), sim.jt_vec(m, v)
        lhs, rhs = float(jw @ v), float(w @ jtv)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        jac = sim.jacobian(m)
        assert rel_err(jac @ w, jw) < 1e-12
        assert rel_err(jac.T @ v, jtv) < 1e-12

    def test_jvec_taylor_order(self):
        """|F(m + eps w) - F(m) - eps Jw| shrinks at second order."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(12)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        w = rng.standard_normal(mesh.n_cells)
        w /= np.linalg.norm(w)
        d0 = sim.predict(m)
        jw = reference_j_vec(sim, m, w)
        rems = []
        eps_list = [1e-2, 1e-3, 1e-4]
        for eps in eps_list:
            dp = sim.predict(m + eps * w)
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
            fp = phi_d(sim.predict(m + eps * w), d_obs, weights)
            fm = phi_d(sim.predict(m - eps * w), d_obs, weights)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - g @ w) / abs(fd) < 1e-5


def dense_products(mesh, survey, m, w, v):
    """predict, J w and J^T v from the dense operator, one numpy.linalg.solve each.

    The derivative of the operator is taken by complex step on its entries
    (exact to rounding): along w for J w, and cell by cell for J^T v, where
    lambda^T dA phi is summed entry by entry.
    """
    cells = electrode_cells(mesh, survey.electrodes)
    a = dense_operator(mesh, np.exp(m))
    # One source per datum, so the reference needs no grouping of the rows.
    q = np.zeros((mesh.n_cells, survey.n_data))
    p = np.zeros((survey.n_data, mesh.n_cells, survey.n_data))
    for k, (ia, ib, im, in_) in enumerate(survey.abmn):
        q[cells[ia], k] += 1.0
        q[cells[ib], k] -= 1.0
        p[k, cells[im], k] += 1.0
        p[k, cells[in_], k] -= 1.0
    h = 1e-30

    phi = np.linalg.solve(a, q)
    d = np.einsum("kns,ns->k", p, phi)
    d_a = dense_operator(mesh, np.exp(m + 1j * h * w)).imag / h
    jw = np.einsum("kns,ns->k", p, np.linalg.solve(a, -d_a @ phi))
    lam = np.linalg.solve(a, -np.einsum("kns,k->ns", p, v))
    rows, cols, _ = operator_entries(mesh, np.exp(m))
    pairs = np.einsum("es,es->e", lam[rows], phi[cols])
    jtv = np.array([pairs @ operator_entries(mesh, np.exp(m + 1j * h * e_j))[2].imag / h
                    for e_j in np.eye(mesh.n_cells)])
    return d, jw, jtv


class TestAgainstDenseReference:
    """The electrode-column products against a solve per product, at 1e-10."""

    def check(self, mesh, survey, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(survey.n_data)
        d, jw, jtv = dense_products(mesh, survey, m, w, v)
        sim = DCSimulation(mesh, survey)
        assert rel_err(sim.predict(m), d) < 1e-10
        assert rel_err(reference_j_vec(sim, m, w), jw) < 1e-10
        assert rel_err(sim.jt_vec(m, v), jtv) < 1e-10
        assert rel_err(sim.jacobian(m) @ w, jw) < 1e-10
        assert rel_err(sim.jacobian(m).T @ v, jtv) < 1e-10
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
        cells = electrode_cells(mesh, survey.electrodes)
        assert np.unique(cells).size < cells.size
        assert sim.cells.size == np.unique(cells).size
        rows = cells[survey.abmn[:, 0]] == cells[survey.abmn[:, 1]]
        assert rows.any() and np.all(sim.predict(m)[rows] == 0.0)


class TestJacobian:
    """The explicit J against the matrix-free products and finite differences."""

    @pytest.mark.parametrize("scale", ["desk", "full"])
    def test_matches_products(self, scale):
        spec, truth = dcinv.build_case1(45.0, scale)
        mesh, survey = spec.mesh(), spec.survey()
        sim = DCSimulation(mesh, survey)
        rng = np.random.default_rng(26)
        m = truth + 0.1 * rng.standard_normal(mesh.n_cells)
        jac = sim.jacobian(m)
        assert jac.shape == (survey.n_data, mesh.n_cells)
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(survey.n_data)
        assert rel_err(jac @ w, reference_j_vec(sim, m, w)) < 1e-12
        assert rel_err(jac.T @ v, sim.jt_vec(m, v)) < 1e-12

    def test_rows_match_central_differences(self):
        """Each row of J against central differences of its datum, column j
        from predict at m +- eps e_j."""
        mesh, survey, sim = tiny_dc_problem()
        m = -4.0 + 0.3 * np.random.default_rng(27).standard_normal(mesh.n_cells)
        jac = sim.jacobian(m).copy()
        fd_sim = DCSimulation(mesh, survey)
        eps = 1e-5
        fd = np.empty_like(jac)
        for j, e in enumerate(np.eye(mesh.n_cells)):
            fd[:, j] = (fd_sim.predict(m + eps * e) - fd_sim.predict(m - eps * e)) / (2 * eps)
        for row, fd_row in zip(jac, fd):
            assert rel_err(row, fd_row) < 1e-7

    def test_new_model_gives_new_matrix(self):
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        j1 = sim.jacobian(m)
        assert sim.jacobian(m) is j1
        j2 = sim.jacobian(m + 0.1 * np.arange(mesh.n_cells) / mesh.n_cells)
        assert j2 is not j1
        assert not np.allclose(j2, j1)
        assert np.array_equal(sim.jacobian(m), j1)

    def test_failed_factorization_leaves_no_stale_matrix(self):
        mesh, survey, sim = tiny_dc_problem()
        m = np.full(mesh.n_cells, -4.0)
        j1 = sim.jacobian(m).copy()
        bad = m.copy()
        bad[mesh.n_cells // 2] = -800.0
        for _ in range(2):
            with np.errstate(divide="ignore"), pytest.raises(SolverFailure):
                sim.jacobian(bad)
        assert np.array_equal(sim.jacobian(m), j1)

    def test_read_only(self):
        mesh, survey, sim = tiny_dc_problem()
        jac = sim.jacobian(np.full(mesh.n_cells, -4.0))
        assert not jac.flags.writeable
        with pytest.raises(ValueError):
            jac[0, 0] = 1.0


class TestSolveCount:
    """One pass over the face resistances and one solve per model, however
    many products it serves."""

    def test_one_factor_and_one_solve_per_model(self, monkeypatch):
        traffic = Traffic(monkeypatch)
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(25)
        m = -4.0 + 0.3 * rng.standard_normal(mesh.n_cells)
        sim.predict(m)
        for _ in range(5):
            sim.jt_vec(m, rng.standard_normal(survey.n_data))
            sim.jacobian(m)
        per_model = ("resistances", "solve")
        assert [traffic.calls[name] for name in per_model] == [1, 1]
        sim.jt_vec(m + 0.1, rng.standard_normal(survey.n_data))
        sim.predict(m + 0.1)
        sim.jacobian(m + 0.1)
        assert [traffic.calls[name] for name in per_model] == [2, 2]


def test_full_scale_predict_peak_memory():
    """predict at a new full-scale model allocates at most 6.6 MiB at its peak
    (tracemalloc): G, the even columns' inverses, the odd columns' pivots
    and couplings, and the solve's buffers; no unit sources are formed
    (5.90 MiB)."""
    spec, truth = dcinv.build_case1(45.0, "full")
    sim = DCSimulation(spec.mesh(), spec.survey())
    sim.predict(truth)
    tracemalloc.start()
    try:
        sim.predict(truth + 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6 * 2**20


class TestWeightsAndMisfit:
    def test_weights_relative(self):
        w = weights_from_std(0.05 * np.abs(np.array([2.0, -4.0])))
        assert np.allclose(w.values, [10.0, 5.0])

    def test_weights_floor_only(self):
        w = weights_from_std(np.array([0.0]), floor=1e-6)
        assert np.isclose(w.values[0], 1e6)

    def test_weights_floor_applies_below_it(self):
        w = weights_from_std(np.array([0.1, 1e-9, 2e-6]), floor=1e-6)
        assert np.allclose(w.values, [10.0, 1e6, 5e5])

    def test_weights_invalid(self):
        """A non-positive std without a floor has no weight."""
        for std in ([0.0], [1.0, -0.1]):
            with pytest.raises(ValueError):
                weights_from_std(np.array(std))

    @pytest.mark.parametrize("values", [[1.0, 0.0, 2.0], [1.0, -1.0], [1.0, np.nan],
                                        [[1.0, 2.0]]])
    def test_data_weights_must_be_finite_positive_and_1d(self, values):
        """One zero among positive weights is enough to refuse them."""
        with pytest.raises(ValueError, match="finite and strictly positive"):
            DataWeights(values=np.array(values))

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

