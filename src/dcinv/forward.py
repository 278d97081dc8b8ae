"""Finite-volume DC resistivity forward modelling and sensitivity products.

The steady-state current-flow equation -div(sigma grad phi) = q is
discretized cell-centered on a :class:`~dcinv.mesh.TensorMesh2D` (pure 2D
physics: sources are lines perpendicular to the section).  Face
conductances use distance-weighted harmonic averaging, the surface is
zero-flux (no current leaves through the air), and the padded lateral and
bottom boundaries are homogeneous Dirichlet.  The operator is symmetric
positive definite, which the adjoint-state sensitivity products below
rely on.  It is solved directly (:func:`solve_surface`): the even cell
columns are condensed onto the odd ones, which are eliminated from both
edges of the grid at once.

The model vector ``m`` is log-conductivity on all cells (padding
included); ``sigma = exp(m)``.  Sources inject a unit current (+1 at the A
electrode cell, -1 at B); a datum is ``phi[M_cell] - phi[N_cell]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .mesh import TensorMesh2D
from .survey import Survey


@dataclass(frozen=True)
class DataWeights:
    """Diagonal of the data weighting matrix, one strictly positive entry per datum."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("data weights must be finite and strictly positive")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)


class _FaceGeometry:
    """The faces of one mesh as slices of the ``(nz, nx)`` cell grid, shared
    by the solve and the sensitivities.

    Face values come as three arrays: x faces ``(nz, nx - 1)``, each between
    a cell ``a`` and its right neighbour ``b``; z faces ``(nz - 1, nx)``,
    each between ``a`` and the cell ``b`` below it; and Dirichlet faces
    ``(n_bnd,)``: the left column, the right column, then the bottom row.
    Interior faces have conductance ``T = length / (da/sigma_a +
    db/sigma_b)`` (distance-weighted harmonic mean over the center-to-center
    distance), Dirichlet faces ``T = length * sigma_c / dc`` toward a zero
    ghost value.  The top surface contributes nothing (natural zero-flux).
    """

    def __init__(self, mesh: TensorMesh2D):
        nx, nz = mesh.nx, mesh.nz
        hx, hz = mesh.hx, mesh.hz
        # Per x face and per z face: length, and distances to the centers of a and b.
        self.x_geometry = (hz[:, None], 0.5 * hx[:-1], 0.5 * hx[1:])
        self.z_geometry = (hx, 0.5 * hz[:-1, None], 0.5 * hz[1:, None])
        self.bnd_len = np.concatenate([hz, hz, hx])
        self.bnd_d = np.concatenate([np.full(nz, 0.5 * hx[0]), np.full(nz, 0.5 * hx[-1]),
                                     0.5 * hz[-1] * np.ones(nx)])
        self.nx, self.nz = nx, nz
        self.n_cells = nx * nz

    def at_faces(self, u: np.ndarray):
        """Cell values ``u`` (..., n_cells), for any leading shape, at the
        cells of each face: ``(u_a, u_b)`` on x faces and on z faces, and
        ``u_c`` on Dirichlet faces."""
        g = u.reshape(u.shape[:-1] + (self.nz, self.nx))
        bnd = np.concatenate([g[..., :, 0], g[..., :, -1], g[..., -1, :]], axis=-1)
        return (g[..., :, :-1], g[..., :, 1:]), (g[..., :-1, :], g[..., 1:, :]), bnd

    def resistances(self, sigma: np.ndarray):
        """Per x face and per z face: ``(length, da/sigma_a, db/sigma_b)``; per
        Dirichlet face: its conductance.  :meth:`blocks` and
        :meth:`log_derivatives` both take them, so a model needs them once."""
        x, z, sigma_c = self.at_faces(sigma)
        interior = [(length, da / s_a, db / s_b) for (length, da, db), (s_a, s_b)
                    in ((self.x_geometry, x), (self.z_geometry, z))]
        return interior, self.bnd_len * sigma_c / self.bnd_d

    def blocks(self, resistances):
        """The operator by cell column at the face ``resistances``, as
        :func:`solve_surface` takes it: its diagonal, in-column and
        column-to-column couplings."""
        interior, t_bnd = resistances
        t_x, t_z = (length / (ra + rb) for length, ra, rb in interior)
        # The diagonal sums, per cell, the faces where it is a, then those
        # where it is b, then its Dirichlet faces; another order rounds
        # differently.
        sums = np.zeros((3, self.nz, self.nx))
        sums[0, :, :-1] += t_x
        sums[0, :-1] += t_z
        sums[1, :, 1:] += t_x
        sums[1, 1:] += t_z
        self._add_dirichlet(sums[2], t_bnd)
        return (sums[0] + sums[1] + sums[2]).T, -t_z.T, -t_x.T

    def quadratic(self, g: np.ndarray, mix: np.ndarray):
        """``dg M dg^T`` per face, for the face values ``dg`` (k,) of the
        columns of ``g`` (n, k) and a (k, k) matrix ``M``: d(v^T A u)/dt
        summed over the columns of ``u = g S`` and ``v = g R`` when
        ``M = S R^T``.  Shaped as :meth:`differences` gives face values."""
        gg = g.reshape(self.nz, self.nx, -1)
        faces = (gg[:, :-1] - gg[:, 1:], gg[:-1] - gg[1:],
                 np.concatenate([gg[:, 0], gg[:, -1], gg[-1]]))
        return tuple(np.einsum("...k,...k->...", d @ mix, d) for d in faces)

    def differences(self, u: np.ndarray):
        """Face values of cell values ``u`` (..., n_cells), for any leading
        shape: ``u_a - u_b`` on x faces (..., nz, nx - 1) and z faces
        (..., nz - 1, nx), and ``u_c`` on Dirichlet faces (..., n_bnd)."""
        (xa, xb), (za, zb), bnd = self.at_faces(u)
        return xa - xb, za - zb, bnd

    def to_cells(self, dt, fx: np.ndarray, fz: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """Chain rule from face conductances to log-conductivity: per cell, the
        sum over its faces of dT/dm (``dt`` as :meth:`log_derivatives` gives
        it) times the face value.  Face values are shaped as
        :meth:`differences` gives them, with any leading shape; the result is
        (..., n_cells)."""
        (dt_xa, dt_xb), (dt_za, dt_zb), dt_c = dt
        out = np.zeros(fx.shape[:-2] + (self.nz, self.nx))
        out[..., :, :-1] += dt_xa * fx
        out[..., :, 1:] += dt_xb * fx
        out[..., :-1, :] += dt_za * fz
        out[..., 1:, :] += dt_zb * fz
        self._add_dirichlet(out, dt_c * fb)
        return out.reshape(fx.shape[:-2] + (self.n_cells,))

    def _add_dirichlet(self, out: np.ndarray, fb: np.ndarray) -> None:
        """Adds Dirichlet-face values (..., n_bnd) to their cells in the grid
        ``out`` (..., nz, nx)."""
        nz = self.nz
        out[..., :, 0] += fb[..., :nz]
        out[..., :, -1] += fb[..., nz:2 * nz]
        out[..., -1, :] += fb[..., 2 * nz:]

    def log_derivatives(self, resistances):
        """dT/dm_a and dT/dm_b per x face and per z face, dT/dm_c per
        Dirichlet face, at the face ``resistances``, for log-conductivity
        m = log(sigma)."""
        interior, t_bnd = resistances
        dt = []
        for length, ra, rb in interior:
            common = length / (ra + rb) ** 2
            dt.append((common * ra, common * rb))
        return dt[0], dt[1], t_bnd  # T_c is proportional to sigma_c


def surface_columns(mesh: TensorMesh2D, positions) -> np.ndarray:
    """The column of the surface cell containing each x position, -1 or
    ``mesh.nx`` for one outside the mesh.

    A position exactly on a cell edge belongs to the cell on its right; a
    tiny nudge absorbs float noise in the edge coordinates.
    """
    edges = mesh.x_edges
    nudge = 1e-9 * mesh.hx.min()
    return np.searchsorted(edges, np.asarray(positions, dtype=float) + nudge) - 1


def electrode_cells(mesh: TensorMesh2D, positions: np.ndarray) -> np.ndarray:
    """Flat indices of the surface cells containing the given x positions."""
    idx = surface_columns(mesh, positions)
    if np.any(idx < 0) or np.any(idx >= mesh.nx):
        raise ValueError("electrode position outside the mesh")
    return idx  # surface row iz = 0, so flat index == ix


def _singular(column) -> SolverFailure:
    return SolverFailure(f"singular operator in cell column {column} "
                         "(has a conductivity underflowed to zero?)")


def _inverted(pivots: np.ndarray, columns) -> np.ndarray:
    """``np.linalg.inv`` over a stack of pivots; a singular one raises
    :class:`SolverFailure` naming its cell column."""
    try:
        return np.linalg.inv(pivots)
    except np.linalg.LinAlgError as e:
        for pivot, j in zip(pivots.reshape((-1,) + pivots.shape[-2:]), np.ravel(columns)):
            try:
                np.linalg.inv(pivot)
            except np.linalg.LinAlgError:
                break
        raise _singular(j) from e


def _tridiagonal_inverses(diag: np.ndarray, off: np.ndarray, columns) -> np.ndarray:
    """Inverses (n, nz, nz) of n symmetric tridiagonal blocks, ``diag`` (n, nz)
    and ``off`` (n, nz - 1), all at once: ``T = L D L^T`` row by row across
    the blocks, then ``T^-1 = Y^T D^-1 Y`` with ``Y = L^-1``.  A zero (or
    non-finite) pivot raises :class:`SolverFailure` naming its block's cell
    column."""
    n, nz = diag.shape
    d = np.empty((n, nz))
    y = np.zeros((n, nz, nz))
    d[:, 0] = diag[:, 0]
    y[:, 0, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, nz):
            lower = off[:, i - 1] / d[:, i - 1]
            d[:, i] = diag[:, i] - lower * off[:, i - 1]
            np.multiply(y[:, i - 1, :i], -lower[:, None], out=y[:, i, :i])
            y[:, i, i] = 1.0
    singular = ~np.all(np.isfinite(d) & (d != 0.0), axis=1)
    if np.any(singular):
        raise _singular(columns[np.argmax(singular)])
    return np.matmul(y.transpose(0, 2, 1) / d[:, None, :], y)


def _couplings(t_inv, x_pad, p, q):
    """Block (q, p) of the condensed operator, for neighbouring odd columns p
    and q (any matching shapes): ``-a T_e^-1 b``, through the even column e
    between them, with a and b the faces of q and p onto it.  One ``nz x nz``
    block per pair."""
    e = np.maximum(p, q)
    k = np.take(t_inv, e, axis=0)
    k *= x_pad[np.minimum(2 * q + 1, 2 * e)][..., :, None]
    k *= -x_pad[np.minimum(2 * p + 1, 2 * e)][..., None, :]
    return k


def solve_surface(diag: np.ndarray, z_off: np.ndarray, x_off: np.ndarray,
                  columns) -> np.ndarray:
    """A^-1 E (n, k), ``E`` a unit source in the surface cell of each of ``k``
    distinct cell ``columns``, for the operator ``diag`` (nx, nz), ``z_off``
    (nx, nz - 1), coupling cell iz to iz + 1, and ``x_off`` (nx - 1, nz),
    coupling column ix to ix + 1: one block LDL^T elimination, with nothing
    kept after the call.

    Ordered column by column (cell ``(ix, iz)`` at ``ix * nz + iz``), the
    5-point operator is block tridiagonal: ``nx`` tridiagonal ``nz x nz``
    diagonal blocks coupled by diagonal blocks ``C`` of x-face conductances.
    The even columns couple only to odd ones, so their blocks ``T`` are
    inverted as they are, all in one batched sweep (one level of odd-even
    reduction).  Eliminating them leaves a block tridiagonal operator on the
    ``nx // 2`` odd columns, with dense diagonal blocks ``D - C T^-1 C -
    C' T'^-1 C'`` and dense couplings ``-C' T'^-1 C''`` through the even
    column between two odd ones.  ``E`` is never formed: a source on an odd
    column is a 1 in the first row of its slot, one on even column e is
    ``-C T_e^-1[:, 0]`` on each odd neighbour.

    The odd columns are eliminated, and the right-hand side swept, in pairs:
    ``s`` from the left edge and ``nx // 2 - 1 - s`` from the right, toward
    the middle one, which takes the Schur complements of both neighbours.
    Each step inverts both pivots of a pair in one call: ``nx // 4 + 1``
    dense inverse calls, none for a single column.  Back substitution runs
    outward, reusing the couplings; then each even column is ``T^-1 (b - C
    x)`` over its odd neighbours, in one batched product.  Working memory is
    about ``12 nx nz^2`` bytes (2.63 MB at full scale, 214 x 32).  The block
    size is always ``nz``: every shipped mesh is wider than it is deep.
    """
    nx, nz = diag.shape
    columns = np.asarray(columns)
    if (columns.ndim != 1 or not np.issubdtype(columns.dtype, np.integer)
            or np.any((columns < 0) | (columns >= nx))
            or np.unique(columns).size != columns.size):
        raise ValueError(f"source columns must be distinct integers in [0, {nx})")
    t_inv = _tridiagonal_inverses(diag[::2], z_off[::2], range(0, nx, 2))
    m, n_src = nx // 2, columns.size  # odd columns; odd column j is cell column 2j + 1
    rows = np.arange((m + 1) // 2)
    cols = np.stack([rows, m - 1 - rows], axis=1)  # (rows, 2): left, right
    odd = 2 * cols + 1
    # Slot of each odd column in the flattened (rows * 2) pairs; the middle
    # column of an odd m is held in its row's left slot.
    slots = np.empty(m, dtype=int)
    slots[cols[:, 1]] = 2 * rows + 1
    slots[cols[:, 0]] = 2 * rows
    # x faces padded with a zero one past the last column, so the last odd
    # column of an even nx has a (vanishing) right neighbour.
    x_pad = np.concatenate([x_off, np.zeros((1, nz))])
    i = np.arange(nz)
    p = np.zeros((rows.size, 2, nz, nz))  # pivots, inverted as they are eliminated
    p[..., i, i] = diag[odd]
    p[..., i[:-1], i[1:]] = z_off[odd]
    p[..., i[1:], i[:-1]] = z_off[odd]
    # Condense: each odd column less C T^-1 C of both even neighbours.
    # "clip" stands the last even column in for the missing right one of an
    # even nx (its face is the padded zero), and lets take write into the
    # buffer without a temporary.
    term = np.empty_like(p)
    for col, c in ((cols, x_pad[odd - 1]), (cols + 1, x_pad[odd])):
        np.take(t_inv, col, axis=0, out=term, mode="clip")
        term *= c[..., :, None]
        term *= c[..., None, :]
        p -= term
    del term

    x = np.zeros(cols.shape + (nz, n_src))  # (rows, 2, nz, n_src) in paired order
    flat = x.reshape(-1, nz, n_src)
    even = np.zeros((t_inv.shape[0], nz, n_src))
    src = np.arange(n_src)
    on_odd = columns % 2 == 1
    flat[slots[columns[on_odd] // 2], 0, src[on_odd]] = 1.0
    e, src = columns[~on_odd] // 2, src[~on_odd]
    even[e, 0, src] = 1.0
    # Even column 2e has odd neighbours e (cell column 2e + 1, face 2e) and
    # e - 1 (cell column 2e - 1, face 2e - 1), where they exist.
    for nbr, face in ((e, 2 * e), (e - 1, 2 * e - 1)):
        on = (nbr >= 0) & (nbr < m)
        flat[slots[nbr[on]], :, src[on]] = -(x_pad[face[on]] * t_inv[e[on], :, 0])

    t = rows.size - 1  # the last row: the middle odd column, and its left neighbour for even m
    if m % 2:
        p[t, 1] = 0.0  # the middle column is held once, in the left slot
    k = _couplings(t_inv, x_pad, cols[:-1], cols[1:])  # row s + 1 from row s
    for s in range(t + 1):
        if s:
            p[s] -= k[s - 1] @ p[s - 1] @ k[s - 1].transpose(0, 2, 1)
            x[s] -= k[s - 1] @ x[s - 1]
        if s < t:
            p[s] = _inverted(p[s], odd[s])
            x[s] = p[s] @ x[s]
    if m % 2:  # one middle column, coupled to both sweeps
        p[t, 0] = _inverted(p[t, 0] + p[t, 1], odd[t, 0])
        x[t, 0] = p[t, 0] @ (x[t, 0] + x[t, 1])
        x[t, 1] = x[t, 0]
    elif m:  # odd columns t and t + 1 meet through the even column between them
        km = _couplings(t_inv, x_pad, cols[t, 0], cols[t, 1])
        p[t, 0] = _inverted(p[t, 0], odd[t, 0])
        p[t, 1] -= km @ p[t, 0] @ km.T
        p[t, 1] = _inverted(p[t, 1], odd[t, 1])
        x[t, 0] = p[t, 0] @ x[t, 0]
        x[t, 1] = p[t, 1] @ (x[t, 1] - km @ x[t, 0])
        x[t, 0] -= p[t, 0] @ (km.T @ x[t, 1])
    for s in range(t - 1, -1, -1):
        x[s] -= p[s] @ (k[s].transpose(0, 2, 1) @ x[s + 1])

    # The odd columns in cell order, gathered to the head of the sweep buffer.
    x_odd = flat[:m]
    x_odd[...] = flat[slots]
    ne = even.shape[0]
    even[:m] -= x_pad[0:2 * m:2, :, None] * x_odd
    even[1:] -= x_pad[1:2 * ne - 1:2, :, None] * x_odd[:ne - 1]
    out = np.empty((nz, nx, n_src))
    cells = out.transpose(1, 0, 2)
    cells[1::2] = x_odd
    np.matmul(t_inv, even, out=cells[::2])
    if not np.all(np.isfinite(out)):
        raise SolverFailure("direct solve produced non-finite potentials")
    return out.reshape(-1, n_src)


class DCSimulation:
    """F(m), J^T v and J itself for one mesh + survey, from one solve per model.

    Every source and receiver sits on one of a few electrode cells, so per
    model the operator is solved once, by :func:`solve_surface`, for
    ``G = A^-1 E``, one unit source per distinct electrode cell: the
    sources start on the condensed columns, and ``E`` is never formed.
    Only ``G`` and the face derivatives outlive the solve.  The fields are differences of its
    columns (superposition): each ``abmn`` row of the survey, read through
    the cell columns, names its datum's source columns A, B and receiver
    columns M, N.  ``A`` is symmetric, so ``G`` also maps sources
    at the receivers (reciprocity): the adjoint fields of ``J^T v`` are
    ``-G R``, so that ``J^T v`` is a quadratic form in the face differences
    of ``G`` alone.  ``predict``, ``jt_vec`` and ``jacobian`` at the same
    model make no further solve.

    ``jt_vec`` suits callers that need one product per model (the stage-2
    loop); ``jacobian`` forms the dense ``n_data x n_cells`` matrix, which
    pays off when a model serves many products (Gauss-Newton's inner CG and
    sensitivity probes).  ``J v`` is :func:`dcinv.checks.reference_j_vec`,
    the adjoint checks' independent reference.
    """

    def __init__(self, mesh: TensorMesh2D, survey: Survey):
        self.mesh = mesh
        self.faces = _FaceGeometry(mesh)

        # One column of G per distinct electrode cell; electrodes sharing a
        # cell share a column.
        self.cells, col = np.unique(electrode_cells(mesh, survey.electrodes),
                                    return_inverse=True)
        # Per datum: the columns of its A, B, M and N electrodes.  The data
        # of source s are rows src_rows[s]:src_rows[s + 1].
        a, b, self.rx_m, self.rx_n = col[survey.abmn.T]
        self.src_rows = survey.source_rows()
        self.n_data = survey.n_data
        self.n_sources = self.src_rows.size - 1
        self.src_a, self.src_b = a[self.src_rows[:-1]], b[self.src_rows[:-1]]
        self.rx_src = np.repeat(np.arange(self.n_sources), np.diff(self.src_rows))
        # S: the fields are G S, one column per source (+1 at A, -1 at B).
        self.sources = np.zeros((self.cells.size, self.n_sources))
        np.add.at(self.sources, (self.src_a, np.arange(self.n_sources)), 1.0)
        np.add.at(self.sources, (self.src_b, np.arange(self.n_sources)), -1.0)

        self._model = None
        self._green = None
        self._dt = None  # log_derivatives at the model
        self._jacobian = None

    # -- caching helpers -------------------------------------------------
    def _system(self, m: np.ndarray) -> np.ndarray:
        """G = A^-1 E at m: potentials of a unit source at each electrode cell.
        A model that is not finite cannot be solved: :class:`SolverFailure`."""
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise SolverFailure("model is not finite")
        if self._model is None or not np.array_equal(m, self._model):
            self._model = None  # stays unset if the solve fails
            self._jacobian = None
            resistances = self.faces.resistances(np.exp(m))
            self._green = solve_surface(*self.faces.blocks(resistances), self.cells)
            self._dt = self.faces.log_derivatives(resistances)
            self._model = m.copy()
        return self._green

    # -- forward and sensitivities ---------------------------------------
    def predict(self, m: np.ndarray) -> np.ndarray:
        """F(m): per datum, u[M] - u[N] of its source's potentials u."""
        g = self._system(m)[self.cells]  # only the rows of the electrode cells
        u = g[:, self.src_a] - g[:, self.src_b]
        return u[self.rx_m, self.rx_src] - u[self.rx_n, self.rx_src]

    def jt_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J^T v by the adjoint-state method, adjoint fields from G."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_data,):
            raise ValueError("v must be a data-space vector")
        g = self._system(m)

        # P^T v in electrode columns: +v at M, -v at N, per source.
        r_m, r_n = np.zeros((2, self.cells.size, self.n_sources))
        np.add.at(r_m, (self.rx_m, self.rx_src), v)
        np.add.at(r_n, (self.rx_n, self.rx_src), v)

        # lambda^T (dA/dm_c phi) summed over sources, per face then per cell:
        # with phi = G S and lambda = -G (r_m - r_n), a quadratic form in G.
        f = self.faces
        return f.to_cells(self._dt, *f.quadratic(g, self.sources @ (r_n - r_m).T))

    def jacobian(self, m: np.ndarray) -> np.ndarray:
        """J (n_data, n_cells) at m, read-only, cached with G until the model changes.

        Row k is ``J^T e_k``, built as :meth:`jt_vec` builds it: the adjoint
        field of datum k is ``G_N - G_M``, paired with its source's field.
        Source by source, so no temporary exceeds one source's receivers.
        """
        g = self._system(m)
        if self._jacobian is None:
            f = self.faces
            gt = np.ascontiguousarray(g.T)  # one row per electrode cell
            jac = np.empty((self.n_data, self.mesh.n_cells))
            for s in range(self.n_sources):
                rows = slice(self.src_rows[s], self.src_rows[s + 1])
                phi = f.differences(gt[self.src_a[s]] - gt[self.src_b[s]])
                lam = f.differences(gt[self.rx_n[rows]] - gt[self.rx_m[rows]])
                for face_phi, face_lam in zip(phi, lam):
                    face_lam *= face_phi  # d(lam^T A phi)/dt per face
                jac[rows] = f.to_cells(self._dt, *lam)
            jac.setflags(write=False)
            self._jacobian = jac
        return self._jacobian


def weights_from_std(std: np.ndarray, floor: float = 0.0) -> DataWeights:
    """W_d from per-datum standard deviations (optionally floored)."""
    std = np.asarray(std, dtype=float)
    denom = np.maximum(std, floor)
    if np.any(denom <= 0):
        raise ValueError("standard deviations must be positive (or provide a floor)")
    return DataWeights(values=1.0 / denom)


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
