"""Finite-volume DC resistivity forward modelling and sensitivity products.

The steady-state current-flow equation -div(sigma grad phi) = q is
discretized cell-centered on a :class:`~dcinv.mesh.TensorMesh2D` (pure 2D
physics: sources are lines perpendicular to the section).  Face
conductances use distance-weighted harmonic averaging, the surface is
zero-flux (no current leaves through the air), and the padded lateral and
bottom boundaries are homogeneous Dirichlet.  The assembled operator is
symmetric positive definite, which the adjoint-state sensitivity products
below rely on.

The model vector ``m`` is log-conductivity on all cells (padding
included); ``sigma = exp(m)``.  Sources inject a unit current (+1 at the A
electrode cell, -1 at B); a datum is ``phi[M_cell] - phi[N_cell]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SolverFailure
from .mesh import TensorMesh2D
from .survey import Survey


@dataclass(frozen=True)
class DataWeights:
    """Diagonal of the data weighting matrix, one strictly positive entry per datum."""

    values: np.ndarray
    rel: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("data weights must be finite and strictly positive")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)


class _FaceGeometry:
    """Face index arrays for one mesh, shared by assembly, the factor and sensitivities.

    Interior face f couples cells ``a[f]`` and ``b[f]`` with conductance
    ``T = length / (da/sigma_a + db/sigma_b)`` (distance-weighted harmonic
    mean over the center-to-center distance).  Dirichlet boundary face f
    couples cell ``c[f]`` to a zero ghost value: ``T = length * sigma_c /
    dc``.  The top surface contributes nothing (natural zero-flux).
    """

    def __init__(self, mesh: TensorMesh2D):
        nx, nz = mesh.nx, mesh.nz
        hx, hz = mesh.hx, mesh.hz

        ix = np.arange(nx - 1)
        iz = np.arange(nz)
        a_x = (iz[:, None] * nx + ix[None, :]).ravel()
        self.int_a = a_x
        self.int_b = a_x + 1
        self.int_len = np.broadcast_to(hz[:, None], (nz, nx - 1)).ravel().copy()
        self.int_da = np.broadcast_to(0.5 * hx[None, :-1], (nz, nx - 1)).ravel().copy()
        self.int_db = np.broadcast_to(0.5 * hx[None, 1:], (nz, nx - 1)).ravel().copy()

        ix = np.arange(nx)
        iz = np.arange(nz - 1)
        a_z = (iz[:, None] * nx + ix[None, :]).ravel()
        self.int_a = np.concatenate([self.int_a, a_z])
        self.int_b = np.concatenate([self.int_b, a_z + nx])
        self.int_len = np.concatenate([self.int_len,
                                       np.broadcast_to(hx[None, :], (nz - 1, nx)).ravel()])
        self.int_da = np.concatenate([self.int_da,
                                      np.broadcast_to(0.5 * hz[:-1, None], (nz - 1, nx)).ravel()])
        self.int_db = np.concatenate([self.int_db,
                                      np.broadcast_to(0.5 * hz[1:, None], (nz - 1, nx)).ravel()])

        # Dirichlet faces: left/right columns and bottom row.
        left = np.arange(nz) * nx
        right = left + nx - 1
        bottom = (nz - 1) * nx + np.arange(nx)
        self.bnd_c = np.concatenate([left, right, bottom])
        self.bnd_len = np.concatenate([hz, hz, hx])
        self.bnd_d = np.concatenate([np.full(nz, 0.5 * hx[0]),
                                     np.full(nz, 0.5 * hx[-1]),
                                     0.5 * hz[-1] * np.ones(nx)])

        self.nx, self.nz = nx, nz
        self.n_cells = nx * nz
        # Fixed sparsity pattern: diagonal + one off-diagonal pair per interior face.
        rows = np.concatenate([self.int_a, self.int_b, self.int_a, self.int_b,
                               self.bnd_c])
        cols = np.concatenate([self.int_b, self.int_a, self.int_a, self.int_b,
                               self.bnd_c])
        self._pattern = (rows, cols)

    def conductances(self, sigma: np.ndarray):
        t_int = self.int_len / (self.int_da / sigma[self.int_a]
                                + self.int_db / sigma[self.int_b])
        t_bnd = self.bnd_len * sigma[self.bnd_c] / self.bnd_d
        return t_int, t_bnd

    def assemble(self, sigma: np.ndarray) -> sp.csr_matrix:
        t_int, t_bnd = self.conductances(sigma)
        rows, cols = self._pattern
        vals = np.concatenate([-t_int, -t_int, t_int, t_int, t_bnd])
        a = sp.coo_matrix((vals, (rows, cols)),
                          shape=(self.n_cells, self.n_cells)).tocsr()
        a.sum_duplicates()
        return a

    def factor(self, sigma: np.ndarray) -> BlockFactor:
        """The operator ``assemble`` builds, factored block by cell column."""
        t_int, t_bnd = self.conductances(sigma)
        n = self.n_cells
        diag = (np.bincount(self.int_a, t_int, n) + np.bincount(self.int_b, t_int, n)
                + np.bincount(self.bnd_c, t_bnd, n))
        nx, nz = self.nx, self.nz
        n_xf = nz * (nx - 1)  # x faces come first, row by row
        return BlockFactor(diag.reshape(nz, nx).T,
                           -t_int[n_xf:].reshape(nz - 1, nx).T,
                           -t_int[:n_xf].reshape(nz, nx - 1).T)

    def apply(self, t_int: np.ndarray, t_bnd: np.ndarray, u: np.ndarray) -> np.ndarray:
        """A(t) u on every column of u (n, k), for face conductances ordered as
        :meth:`conductances` returns them; slice differences on the (nz, nx, k) grid."""
        nx, nz = self.nx, self.nz
        n_xf = nz * (nx - 1)
        u = u.reshape(nz, nx, -1)
        out = np.zeros(u.shape)
        flux = t_int[:n_xf].reshape(nz, nx - 1, 1) * (u[:, :-1] - u[:, 1:])
        out[:, :-1] += flux
        out[:, 1:] -= flux
        flux = t_int[n_xf:].reshape(nz - 1, nx, 1) * (u[:-1] - u[1:])
        out[:-1] += flux
        out[1:] -= flux
        out[:, 0] += t_bnd[:nz, None] * u[:, 0]
        out[:, -1] += t_bnd[nz:2 * nz, None] * u[:, -1]
        out[-1] += t_bnd[2 * nz:, None] * u[-1]
        return out.reshape(self.n_cells, -1)

    def products(self, u: np.ndarray, v: np.ndarray):
        """sum_k (u_a - u_b)(v_a - v_b) per interior face and sum_k u_c v_c per
        boundary face, over the columns of u and v (n, k): d(v^T A u)/dt."""
        nx, nz = self.nx, self.nz
        ug = u.reshape(nz, nx, -1)
        vg = v.reshape(nz, nx, -1)
        fx = np.einsum("zxk,zxk->zx", ug[:, :-1] - ug[:, 1:], vg[:, :-1] - vg[:, 1:])
        fz = np.einsum("zxk,zxk->zx", ug[:-1] - ug[1:], vg[:-1] - vg[1:])
        bnd = np.einsum("fk,fk->f", u[self.bnd_c], v[self.bnd_c])
        return np.concatenate([fx.ravel(), fz.ravel()]), bnd

    def log_derivatives(self, sigma: np.ndarray):
        """dT/dm_a and dT/dm_b per interior face, dT/dm_c per boundary face,
        for log-conductivity m = log(sigma)."""
        ra = self.int_da / sigma[self.int_a]
        rb = self.int_db / sigma[self.int_b]
        common = self.int_len / (ra + rb) ** 2
        return common * ra, common * rb, self.bnd_len * sigma[self.bnd_c] / self.bnd_d


def _electrode_cells(mesh: TensorMesh2D, positions: np.ndarray) -> np.ndarray:
    """Flat indices of the surface cells containing the given x positions.

    A position exactly on a cell edge belongs to the cell on its right; a
    tiny nudge absorbs float noise in the edge coordinates.
    """
    edges = mesh.x_edges
    nudge = 1e-9 * mesh.hx.min()
    idx = np.searchsorted(edges, np.asarray(positions, dtype=float) + nudge) - 1
    if np.any(idx < 0) or np.any(idx >= mesh.nx):
        raise ValueError("electrode position outside the mesh")
    return idx  # surface row iz = 0, so flat index == ix


class BlockFactor:
    """Block LDL^T factor of the operator at one model; solves every right-hand side.

    Ordered column by column (cell ``(ix, iz)`` at ``ix * nz + iz``), the
    5-point operator is block tridiagonal: ``nx`` dense ``nz x nz`` diagonal
    blocks coupled by diagonal blocks of x-face conductances, so the factor
    keeps one inverted ``nz x nz`` pivot per column (``8 nx nz^2`` bytes:
    1.75 MB at full scale, 214 x 32).  The block size is always ``nz``:
    every shipped mesh is wider than it is deep.
    """

    def __init__(self, diag: np.ndarray, z_off: np.ndarray, x_off: np.ndarray):
        """``diag`` (nx, nz) operator diagonal; ``z_off`` (nx, nz - 1) in-column
        coupling of cell iz to iz + 1; ``x_off`` (nx - 1, nz) coupling of
        column ix to ix + 1."""
        nx, nz = diag.shape
        i = np.arange(nz)
        pivots = np.zeros((nx, nz, nz))
        pivots[:, i, i] = diag
        pivots[:, i[:-1], i[1:]] = z_off
        pivots[:, i[1:], i[:-1]] = z_off
        try:
            for j in range(nx):
                if j:  # Schur complement of the previous column
                    c = x_off[j - 1]
                    pivots[j] -= c[:, None] * pivots[j - 1] * c
                pivots[j] = np.linalg.inv(pivots[j])
        except np.linalg.LinAlgError as e:
            raise SolverFailure(f"singular operator in cell column {j} "
                                "(has a conductivity underflowed to zero?)") from e
        self.inv_pivots = pivots
        self.x_off = x_off

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for one vector (n,) or all columns of (n, k) in one sweep pair."""
        p, c = self.inv_pivots, self.x_off
        nx, nz, _ = p.shape
        rhs = np.asarray(b, dtype=float).reshape(nz, nx, -1).transpose(1, 0, 2)
        x = np.empty(rhs.shape)
        x[0] = p[0] @ rhs[0]
        for j in range(1, nx):
            x[j] = p[j] @ (rhs[j] - c[j - 1][:, None] * x[j - 1])
        for j in range(nx - 2, -1, -1):
            x[j] -= p[j] @ (c[j][:, None] * x[j + 1])
        if not np.all(np.isfinite(x)):
            raise SolverFailure("direct solve produced non-finite potentials")
        return x.transpose(1, 0, 2).reshape(np.shape(b))


def _checked_sigma(mesh: TensorMesh2D, sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.n_cells,):
        raise ValueError(f"sigma must have {mesh.n_cells} entries")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("conductivities must be finite and strictly positive")
    return sigma


def assemble_system(mesh: TensorMesh2D, sigma: np.ndarray) -> sp.csr_matrix:
    """Cell-centered finite-volume operator for -div(sigma grad .), in CSR form."""
    return _FaceGeometry(mesh).assemble(_checked_sigma(mesh, sigma))


def factor_system(mesh: TensorMesh2D, sigma: np.ndarray) -> BlockFactor:
    """Direct factor of the operator :func:`assemble_system` builds."""
    return _FaceGeometry(mesh).factor(_checked_sigma(mesh, sigma))


class DCSimulation:
    """F(m), J v and J^T v for one mesh + survey, from one solve per model.

    Every source and receiver sits on one of a few electrode cells, so per
    model the operator is factored once (:class:`BlockFactor`) and solved
    once for ``G = A^-1 E``, one unit source per distinct electrode cell.
    The fields are differences of its columns (superposition).  ``A`` is
    symmetric, so ``G`` also maps sources at the receivers (reciprocity):
    the adjoint fields of ``J^T v`` are ``-G R`` and the receiver readout
    of ``A^-1 b`` in ``J v`` is ``G^T b``.  ``predict``, ``j_vec``,
    ``jt_vec`` and every Gauss-Newton inner-CG product at the same model
    make no further solve.
    """

    def __init__(self, mesh: TensorMesh2D, survey: Survey):
        self.mesh = mesh
        self.survey = survey
        self.faces = _FaceGeometry(mesh)

        # One column of G per distinct electrode cell; electrodes sharing a
        # cell share a column.
        self.cells, col = np.unique(_electrode_cells(mesh, survey.electrodes),
                                    return_inverse=True)
        self.src_a = col[[a for a, _ in survey.sources]]
        self.src_b = col[[b for _, b in survey.sources]]
        # Per datum: its source and the columns of its M and N electrodes.
        self.rx_src = np.repeat(np.arange(survey.n_sources),
                                [len(rx) for rx in survey.receivers])
        self.rx_m = col[[m for rx in survey.receivers for m, _ in rx]]
        self.rx_n = col[[n for rx in survey.receivers for _, n in rx]]
        self.n_data = survey.n_data
        self.n_sources = survey.n_sources

        self._model = None
        self._green = None
        self._dt = None  # log_derivatives at the model
        self._fields = None

    # -- caching helpers -------------------------------------------------
    def _system(self, m: np.ndarray) -> np.ndarray:
        """G = A^-1 E at m: potentials of a unit source at each electrode cell."""
        m = np.asarray(m, dtype=float)
        if m.shape != (self.mesh.n_cells,):
            raise ValueError(f"model must have {self.mesh.n_cells} entries")
        if not np.all(np.isfinite(m)):
            raise ValueError("model must be finite")
        if self._model is None or not np.array_equal(m, self._model):
            self._model = None  # stays unset if the factorization fails
            self._fields = None
            sigma = np.exp(m)
            e = np.zeros((self.mesh.n_cells, self.cells.size))
            e[self.cells, np.arange(self.cells.size)] = 1.0
            self._green = self.faces.factor(sigma).solve(e)
            self._dt = self.faces.log_derivatives(sigma)
            self._model = m.copy()
        return self._green

    def fields(self, m: np.ndarray) -> np.ndarray:
        """Potentials, one column per source, at the given model."""
        g = self._system(m)
        if self._fields is None:
            self._fields = g[:, self.src_a] - g[:, self.src_b]
        return self._fields

    def _at_receivers(self, u: np.ndarray) -> np.ndarray:
        """Per datum, u[M] - u[N] of its source's column; u is (n_elec_cells, n_src)."""
        return u[self.rx_m, self.rx_src] - u[self.rx_n, self.rx_src]

    # -- forward and sensitivities ---------------------------------------
    def predict(self, m: np.ndarray) -> np.ndarray:
        g = self._system(m)[self.cells]  # only the rows of the electrode cells
        return self._at_receivers(g[:, self.src_a] - g[:, self.src_b])

    def j_vec(self, m: np.ndarray, w: np.ndarray) -> np.ndarray:
        """J w: directional derivative of the data with respect to log-conductivity."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.mesh.n_cells,):
            raise ValueError("direction must be a model-space vector")
        g = self._system(m)
        phi = self.fields(m)
        f = self.faces
        dt_a, dt_b, dt_c = self._dt
        dt_int = dt_a * w[f.int_a] + dt_b * w[f.int_b]
        # The receiver readout of A^-1 (-dA phi) is G^T (-dA phi).
        return self._at_receivers(g.T @ -f.apply(dt_int, dt_c * w[f.bnd_c], phi))

    def jt_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J^T v by the adjoint-state method, adjoint fields from G."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_data,):
            raise ValueError("v must be a data-space vector")
        g = self._system(m)
        phi = self.fields(m)

        # P^T v in electrode columns: +v at M, -v at N, per source.
        n_src = self.n_sources
        size = self.cells.size * n_src
        r = (np.bincount(self.rx_m * n_src + self.rx_src, v, size)
             - np.bincount(self.rx_n * n_src + self.rx_src, v, size))
        lam = g @ -r.reshape(self.cells.size, n_src)

        f = self.faces
        dt_a, dt_b, dt_c = self._dt
        # lambda^T (dA/dm_c phi) summed over sources, per face then per cell
        face_form, bnd_form = f.products(phi, lam)
        n = self.mesh.n_cells
        return (np.bincount(f.int_a, dt_a * face_form, n)
                + np.bincount(f.int_b, dt_b * face_form, n)
                + np.bincount(f.bnd_c, dt_c * bnd_form, n))


def predict(mesh: TensorMesh2D, survey: Survey, m: np.ndarray) -> np.ndarray:
    """F(m): predicted potential differences, in survey order."""
    return DCSimulation(mesh, survey).predict(np.asarray(m, dtype=float))


def j_vec(mesh: TensorMesh2D, survey: Survey, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    return DCSimulation(mesh, survey).j_vec(np.asarray(m, dtype=float), w)


def jt_vec(mesh: TensorMesh2D, survey: Survey, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return DCSimulation(mesh, survey).jt_vec(np.asarray(m, dtype=float), v)


def build_data_weights(d_obs: np.ndarray, rel: float, floor: float) -> DataWeights:
    """W_d diagonal: 1 / (rel * |d| + floor) per datum."""
    d_obs = np.asarray(d_obs, dtype=float)
    if rel < 0 or floor < 0 or (rel == 0 and floor == 0):
        raise ValueError("need rel >= 0, floor >= 0, not both zero")
    denom = rel * np.abs(d_obs) + floor
    if np.any(denom == 0):
        raise ValueError("zero uncertainty for a datum; use a positive floor")
    return DataWeights(values=1.0 / denom, rel=rel, floor=floor)


def weights_from_std(std: np.ndarray, floor: float = 0.0) -> DataWeights:
    """W_d from per-datum standard deviations (optionally floored)."""
    std = np.asarray(std, dtype=float)
    denom = np.maximum(std, floor)
    if np.any(denom <= 0):
        raise ValueError("standard deviations must be positive (or provide a floor)")
    return DataWeights(values=1.0 / denom, rel=0.0, floor=floor)


def phi_d(d_pred: np.ndarray, d_obs: np.ndarray, weights: DataWeights) -> float:
    """Data misfit 0.5 * || W_d (d_pred - d_obs) ||^2."""
    d_pred = np.asarray(d_pred, dtype=float)
    d_obs = np.asarray(d_obs, dtype=float)
    if d_pred.shape != d_obs.shape or d_pred.shape != weights.values.shape:
        raise ValueError("data vectors and weights must have equal length")
    r = weights.values * (d_pred - d_obs)
    return 0.5 * float(r @ r)


def chi_factor(d_pred: np.ndarray, d_obs: np.ndarray, weights: DataWeights) -> float:
    """Achieved misfit over its target N / 2: 2 phi_d / N = ||W_d r||^2 / N."""
    return 2.0 * phi_d(d_pred, d_obs, weights) / np.size(d_pred)


def _reference_vector(m_ref, n: int) -> np.ndarray:
    """The reference model as a length-n vector; a scalar means a uniform model."""
    arr = np.asarray(m_ref, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"m_ref must be scalar or length {n}")
    return arr
