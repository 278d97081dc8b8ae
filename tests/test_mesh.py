import numpy as np
import pytest

from dcinv.mesh import TensorMesh2D, build_mesh, cell_centers


class TestBuildMesh:
    def test_survey_scale_counts(self):
        """200x25 core at 5 m with 7 pads: 214 x 32 cells, 6848 total."""
        mesh = build_mesh(200, 25, 5.0, 5.0, 7, 1.5)
        assert mesh.nx == 214
        assert mesh.nz == 32
        assert mesh.n_cells == 6848

    def test_no_padding_uniform(self):
        mesh = build_mesh(2, 2, 1.0, 1.0, 0, 1.0)
        assert np.array_equal(mesh.hx, [1.0, 1.0])
        assert np.array_equal(mesh.hz, [1.0, 1.0])
        assert mesh.n_cells == 4
        assert mesh.hx.sum() == 2.0

    def test_padding_widths_geometric(self):
        """One-side lateral padding totals the geometric series 5*1.5*(1.5^7-1)/0.5."""
        mesh = build_mesh(200, 25, 5.0, 5.0, 7, 1.5)
        pad = mesh.hx[:7]
        expected_total = 5.0 * 1.5 * (1.5 ** 7 - 1.0) / 0.5
        assert np.isclose(pad.sum(), expected_total, rtol=1e-12)
        # widths expand outward by exactly the factor (left side is reversed)
        assert np.allclose(pad[:-1] / pad[1:], 1.5, rtol=1e-12)
        assert np.allclose(mesh.hx[-7:][1:] / mesh.hx[-7:][:-1], 1.5, rtol=1e-12)

    def test_bottom_padding_only(self):
        mesh = build_mesh(10, 4, 2.0, 3.0, 3, 2.0)
        assert mesh.nz == 7
        assert np.array_equal(mesh.hz[:4], np.full(4, 3.0))
        assert np.array_equal(mesh.hz[4:], [6.0, 12.0, 24.0])

    def test_factor_one_total_width(self):
        mesh = build_mesh(6, 3, 2.5, 2.5, 4, 1.0)
        assert mesh.hx.sum() == (6 + 8) * 2.5
        assert np.all(mesh.hx == 2.5)

    def test_core_centered_by_default(self):
        mesh = build_mesh(10, 4, 5.0, 5.0, 2, 1.5)
        edges = mesh.x_edges
        # core occupies the middle 10 cells, centered on x = 0
        assert np.isclose(edges[2], -25.0)
        assert np.isclose(edges[-3], 25.0)

    def test_deterministic_bitwise(self):
        a = build_mesh(31, 9, 3.7, 2.1, 5, 1.3)
        b = build_mesh(31, 9, 3.7, 2.1, 5, 1.3)
        assert np.array_equal(a.hx, b.hx)
        assert np.array_equal(a.hz, b.hz)
        assert a.origin_x == b.origin_x

    def test_equal_arguments_share_one_read_only_mesh(self):
        """A scenario builds its mesh three times per run; it is made once."""
        a = build_mesh(31, 9, 3.7, 2.1, 5, 1.3)
        assert build_mesh(31, 9, 3.7, 2.1, 5, 1.3) is a
        assert not (a.hx.flags.writeable or a.hz.flags.writeable)

    @pytest.mark.parametrize("kwargs", [
        dict(n_core_x=0, n_core_z=2, dx=1, dz=1, n_pad=0, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=-1, dz=1, n_pad=0, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=0, n_pad=0, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=1, n_pad=-1, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=1, n_pad=2, factor=0.5),
        dict(n_core_x=2, n_core_z=2, dx=np.nan, dz=1, n_pad=0, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=np.inf, n_pad=0, factor=1.0),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=1, n_pad=2, factor=np.nan),
        dict(n_core_x=2, n_core_z=2, dx=1, dz=1, n_pad=0, factor=np.inf),
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            build_mesh(**kwargs)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            TensorMesh2D(hx=np.array([1.0, 0.0]), hz=np.array([1.0]), origin_x=0.0)


    @pytest.mark.parametrize("hx, hz", [([], [1.0]), ([1.0], []), ([[1.0, 2.0]], [1.0])])
    def test_widths_must_be_non_empty_lists(self, hx, hz):
        """Every check of the widths passes an empty list, and a 2D one
        would give a mesh of the wrong cell count."""
        with pytest.raises(ValueError, match="non-empty 1D width lists"):
            TensorMesh2D(hx=np.array(hx), hz=np.array(hz), origin_x=0.0)

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_non_finite_width_rejected(self, width):
        """Padding that overflows, or a NaN width, is no mesh."""
        with pytest.raises(ValueError, match="finite"):
            TensorMesh2D(hx=np.array([1.0, width]), hz=np.array([1.0]), origin_x=0.0)


class TestCellCenters:
    def test_uniform_row(self):
        mesh = TensorMesh2D(hx=np.array([1.0, 1.0]), hz=np.array([1.0]), origin_x=0.0)
        xc, zc = cell_centers(mesh)
        assert np.allclose(xc, [0.5, 1.5])
        assert np.allclose(zc, [0.5])

    def test_mixed_widths(self):
        mesh = TensorMesh2D(hx=np.array([5.0, 7.5]), hz=np.array([1.0]), origin_x=0.0)
        xc, _ = cell_centers(mesh)
        assert np.allclose(xc, [2.5, 8.75])

    def test_single_cell_centered_origin(self):
        mesh = TensorMesh2D(hx=np.array([5.0]), hz=np.array([5.0]), origin_x=-2.5)
        xc, _ = cell_centers(mesh)
        assert np.allclose(xc, [0.0])

    def test_monotone(self):
        mesh = build_mesh(9, 6, 2.0, 3.0, 4, 1.4)
        xc, zc = cell_centers(mesh)
        assert np.all(np.diff(xc) > 0)
        assert np.all(np.diff(zc) > 0)
