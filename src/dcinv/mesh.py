"""Tensor meshes for 2D resistivity modelling.

Coordinate conventions used throughout the package:

* x runs along the survey line, z is depth (positive downward), the ground
  surface is the top edge of the mesh at z = 0.
* ``hz`` is ordered top to bottom, so cell row 0 is the shallowest.
* Model vectors are flattened row-major with rows = depth slices:
  ``flat = iz * nx + ix``, so ``values.reshape(mesh.shape)`` is the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class TensorMesh2D:
    """Rectilinear mesh defined by per-axis cell-width lists.

    ``origin_x`` is the x coordinate of the left mesh edge (padding
    included); the top edge is the surface, at depth 0.
    """

    hx: np.ndarray
    hz: np.ndarray
    origin_x: float

    def __post_init__(self):
        hx = np.asarray(self.hx, dtype=float)
        hz = np.asarray(self.hz, dtype=float)
        if hx.ndim != 1 or hz.ndim != 1 or hx.size == 0 or hz.size == 0:
            raise ValueError("hx and hz must be non-empty 1D width lists")
        if not (np.all((0 < hx) & (hx < np.inf)) and np.all((0 < hz) & (hz < np.inf))):
            raise ValueError("all cell widths must be strictly positive and finite")
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hz", hz)
        hx.setflags(write=False)
        hz.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.hx.size

    @property
    def nz(self) -> int:
        return self.hz.size

    @property
    def n_cells(self) -> int:
        return self.nx * self.nz

    @property
    def x_edges(self) -> np.ndarray:
        return self.origin_x + np.concatenate(([0.0], np.cumsum(self.hx)))

    @property
    def z_edges(self) -> np.ndarray:
        """Depths of horizontal edges, increasing downward from the surface."""
        return np.concatenate(([0.0], np.cumsum(self.hz)))

    @property
    def shape(self) -> tuple[int, int]:
        """(nz, nx), the grid shape used for images of the model."""
        return (self.nz, self.nx)


@lru_cache(maxsize=1)
def build_mesh(n_core_x: int, n_core_z: int, dx: float, dz: float,
               n_pad: int, factor: float) -> TensorMesh2D:
    """Core + geometrically expanding padding mesh.

    Padding is added on both lateral sides and at the bottom (none at the
    surface); the k-th padding cell is ``core_width * factor**k``.  The core
    region is centered on x = 0, so a survey line centered on the origin
    sits over the core.  Equal arguments share one immutable mesh.
    """
    if n_core_x < 1 or n_core_z < 1:
        raise ValueError("core cell counts n_core_x and n_core_z must be >= 1")
    if n_pad < 0:
        raise ValueError("padding cell count n_pad must be >= 0")
    if not (0 < dx < np.inf and 0 < dz < np.inf):  # NaN fails each test
        raise ValueError("cell sizes dx and dz must be positive and finite")
    if not 1.0 <= factor < np.inf:
        raise ValueError("padding expansion factor must be >= 1 and finite")

    pad_x = dx * factor ** np.arange(1, n_pad + 1)
    pad_z = dz * factor ** np.arange(1, n_pad + 1)
    hx = np.concatenate([pad_x[::-1], np.full(n_core_x, float(dx)), pad_x])
    hz = np.concatenate([np.full(n_core_z, float(dz)), pad_z])
    return TensorMesh2D(hx=hx, hz=hz, origin_x=float(-0.5 * n_core_x * dx - pad_x.sum()))


def cell_centers(mesh: TensorMesh2D) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis cell center coordinates (x positions, z depths)."""
    xc = mesh.x_edges[:-1] + 0.5 * mesh.hx
    zc = mesh.z_edges[:-1] + 0.5 * mesh.hz
    return xc, zc
