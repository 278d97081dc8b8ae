"""Synthetic scenario builders, noise injection, and scale presets.

Two scales are provided: ``full`` (200 x 25 core cells, 700 m line, the
configuration all headline runs use) and ``desk`` (50 x 12 core cells,
200 m line) for fast end-to-end checks.  Target geometry numbers are
documented estimates chosen to produce the intended structures, not
measured values.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, astuple, dataclass, field, fields

import numpy as np

from .fileio import check_ranges, ranged
from .forward import electrode_cells
from .mesh import TensorMesh2D, build_mesh, cell_centers
from .survey import Survey, build_dipole_dipole_survey

# Most stations, data and mesh cells a scenario may ask for, far above the
# full scale's 29 stations, 348 data and 214 x 32 cells; a larger survey or
# mesh would fail on allocation, not on a checked value.
MAX_COUNT = 100_000


@dataclass(frozen=True)
class DikeGeometry:
    """Dipping planar conductor: a band of the given width around an axis
    that crosses (x_top, depth_top) and descends at ``dip_degrees`` from
    horizontal (90 = vertical)."""

    x_top: float
    depth_top: float
    depth_bottom: float
    width: float = ranged(MISSING, "(0, inf]")  # too wide for any mesh: the scenario's to refuse
    dip_degrees: float = ranged(MISSING, "(0, 90]")

    def __post_init__(self):
        check_ranges(self)
        if not self.depth_bottom > self.depth_top:  # NaN fails it too
            raise ValueError("dike bottom must be below its top")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    n_core_x: int = 200
    n_core_z: int = 25
    dx: float = 5.0
    dz: float = 5.0
    n_pad: int = 7
    pad_factor: float = 1.5
    line_length: float = 700.0
    station_spacing: float = 25.0
    max_receivers: int = 24
    background_sigma: float = ranged(0.01, "(0, inf)")
    layer_sigma: float = ranged(0.02, "(0, inf)")
    target_sigma: float = ranged(0.1, "(0, inf)")
    layer_thickness: float = 0.0  # 0 disables the near-surface layer
    # stored as its five numbers (see to_dict)
    dike: DikeGeometry | None = field(
        default=None, metadata={"json": tuple[float, float, float, float, float] | None})
    cylinders: tuple[tuple[float, float, float], ...] = ()  # (x, depth, radius)
    noise_rel: float = ranged(0.05, "[0, inf)")
    noise_seed: int = ranged(0, "[0, inf)")

    def __post_init__(self):
        """Rejects what a run of the scenario would reject."""
        check_ranges(self)
        # the JSON form (see to_dict): the dike as its five numbers, lists for tuples
        if self.dike is not None and not isinstance(self.dike, DikeGeometry):
            object.__setattr__(self, "dike", DikeGeometry(*self.dike))
        object.__setattr__(self, "cylinders", tuple(tuple(c) for c in self.cylinders))
        # A count that is not positive is left for survey() and mesh() to name.
        n_stations = self.line_length / self.station_spacing + 1 if self.station_spacing > 0 else 0
        if n_stations > MAX_COUNT:
            raise ValueError(f"line_length / station_spacing + 1 must be at most {MAX_COUNT} "
                             f"stations, got {n_stations:.3g}")
        k, r = n_stations - 3, self.max_receivers  # transmitter i: k - i receivers, at most r
        n_data = 0 if k <= 0 else k * (k + 1) / 2 if r >= k else r * (r + 1) / 2 + r * (k - r)
        if n_data > MAX_COUNT:
            raise ValueError(f"line_length, station_spacing and max_receivers must make at most "
                             f"{MAX_COUNT} data, got {n_data:.0f}")
        n_cells = (self.n_core_x + 2 * self.n_pad) * (self.n_core_z + self.n_pad)
        if min(self.n_core_x, self.n_core_z, self.n_pad + 1) > 0 and n_cells > MAX_COUNT:
            raise ValueError(f"(n_core_x + 2 n_pad) x (n_core_z + n_pad) must be at most "
                             f"{MAX_COUNT} cells, got {n_cells}")
        mesh, survey = self.mesh(), self.survey()
        try:
            electrode_cells(mesh, survey.electrodes)
        except ValueError:
            raise ValueError(f"line_length {self.line_length} reaches past the mesh") from None
        _validate_geometry(self)

    def mesh(self) -> TensorMesh2D:
        return build_mesh(self.n_core_x, self.n_core_z, self.dx, self.dz,
                          self.n_pad, self.pad_factor)

    def survey(self) -> Survey:
        return build_dipole_dipole_survey(self.line_length, self.station_spacing,
                                          self.max_receivers,
                                          x0=-0.5 * self.line_length)

    def core_bounds(self):
        """(x_min, x_max, depth_max) of the core region."""
        half = 0.5 * self.n_core_x * self.dx
        return -half, half, self.n_core_z * self.dz

    def to_dict(self) -> dict:
        """The fields, with the dike as its five numbers and tuples as lists."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["dike"] = None if self.dike is None else list(astuple(self.dike))
        d["cylinders"] = [list(c) for c in self.cylinders]
        return d


def _validate_geometry(spec: ScenarioSpec) -> None:
    x_min, x_max, depth_max = spec.core_bounds()
    if not 0 <= spec.layer_thickness <= depth_max:
        raise ValueError("layer_thickness must lie between 0 and the core mesh's depth")
    if spec.dike is not None:
        dk = spec.dike
        theta = math.radians(dk.dip_degrees)  # 0 for a dip that underflows: an endless run
        run = (dk.depth_bottom - dk.depth_top) / math.tan(theta) if theta > 0 else math.inf
        for x in (dk.x_top, dk.x_top + run):
            if not (x_min + dk.width / 2 <= x <= x_max - dk.width / 2):
                raise ValueError(f"dike at dip {dk.dip_degrees!r} extends outside the core mesh")
        if not dk.depth_bottom <= depth_max:
            raise ValueError("dike extends below the core mesh")
    for cx, cz, r in spec.cylinders:
        if not (r > 0 and x_min + r <= cx <= x_max - r and r <= cz <= depth_max - r):
            raise ValueError(f"cylinders: ({cx}, {cz}, {r}) is not a positive radius "
                             "inside the core mesh")


def paint_model(spec: ScenarioSpec) -> np.ndarray:
    """Log-conductivity on the full mesh, painted by cell-center membership."""
    mesh = spec.mesh()
    xc, zc = cell_centers(mesh)
    x = np.broadcast_to(xc[None, :], mesh.shape)
    z = np.broadcast_to(zc[:, None], mesh.shape)

    # Cell centers landing exactly on a region boundary must paint
    # consistently; the tolerance absorbs float noise in sin/cos.
    tol = 1e-9
    model = np.full(mesh.shape, np.log(spec.background_sigma))
    if spec.layer_thickness > 0:
        model[z < spec.layer_thickness] = np.log(spec.layer_sigma)
    if spec.dike is not None:
        dk = spec.dike
        theta = math.radians(dk.dip_degrees)
        # perpendicular distance to the dike axis
        dist = np.abs((x - dk.x_top) * math.sin(theta)
                      - (z - dk.depth_top) * math.cos(theta))
        inside = ((dist <= dk.width / 2 + tol)
                  & (z >= dk.depth_top - tol) & (z <= dk.depth_bottom + tol))
        model[inside] = np.log(spec.target_sigma)
    for cx, cz_, r in spec.cylinders:
        inside = (x - cx) ** 2 + (z - cz_) ** 2 <= r * r + tol
        model[inside] = np.log(spec.target_sigma)
    return model.reshape(-1)


_DESK = dict(n_core_x=50, n_core_z=12, line_length=200.0)
_IS_DESK = {"full": False, "desk": True}  # an unknown scale is a KeyError


def build_case1(dip_degrees: float = 45.0, scale: str = "full"):
    """Conductive dike under a less conductive near-surface layer.

    Background 0.01 S/m, layer 0.02 S/m, dike 0.1 S/m.  Returns
    (ScenarioSpec, log-conductivity model).
    """
    if _IS_DESK[scale]:
        spec = ScenarioSpec(
            name=f"case1-desk-dip{dip_degrees:g}", **_DESK,
            layer_thickness=15.0,
            dike=DikeGeometry(x_top=0.0, depth_top=15.0, depth_bottom=50.0,
                              width=20.0, dip_degrees=dip_degrees))
    else:
        spec = ScenarioSpec(
            name=f"case1-dip{dip_degrees:g}",
            layer_thickness=20.0,
            dike=DikeGeometry(x_top=0.0, depth_top=20.0, depth_bottom=120.0,
                              width=25.0, dip_degrees=dip_degrees))
    return spec, paint_model(spec)


def build_case2(two_cylinders: bool = False, scale: str = "full"):
    """Compact targets in close proximity, all at 0.1 S/m over 0.01 S/m.

    Variant A (default): a cylinder next to a dipping dike.  Variant B
    (``two_cylinders``): two disjoint cylinders.
    """
    if _IS_DESK[scale]:
        if two_cylinders:
            spec = ScenarioSpec(name="case2.2-desk", **_DESK,
                                cylinders=((-45.0, 28.0, 12.0), (45.0, 28.0, 12.0)))
        else:
            spec = ScenarioSpec(
                name="case2.1-desk", **_DESK,
                cylinders=((-45.0, 30.0, 12.0),),
                dike=DikeGeometry(x_top=25.0, depth_top=10.0, depth_bottom=50.0,
                                  width=15.0, dip_degrees=45.0))
    elif two_cylinders:
        spec = ScenarioSpec(name="case2.2",
                            cylinders=((-60.0, 60.0, 25.0), (60.0, 60.0, 25.0)))
    else:
        spec = ScenarioSpec(
            name="case2.1",
            cylinders=((-75.0, 60.0, 25.0),),
            dike=DikeGeometry(x_top=50.0, depth_top=20.0, depth_bottom=120.0,
                              width=25.0, dip_degrees=45.0))
    return spec, paint_model(spec)


def add_noise(d: np.ndarray, rel: float, seed: int):
    """Gaussian noise with per-datum std = rel * |d|; returns (noisy, std)."""
    if not rel >= 0:  # NaN fails it too
        raise ValueError("relative noise must be >= 0")
    d = np.asarray(d, dtype=float)
    std = rel * np.abs(d)
    if rel == 0:
        return d.copy(), std
    rng = np.random.default_rng(seed)
    return d + std * rng.standard_normal(d.size), std
