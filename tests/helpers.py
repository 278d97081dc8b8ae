"""Shared finite-difference oracles, small problem factories, drawn meshes,
the readers and measures that only tests use, and the one harness of the
failure contract."""

import contextlib
import functools
import io
import json
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcinv.checks import central_difference
from dcinv.cli import main
from dcinv.dip import DipConfig
from dcinv.forward import DCSimulation
from dcinv.mesh import TensorMesh2D, build_mesh
from dcinv.net import net_forward
from dcinv.runs import (ArchChoice, ConventionalConfig, ConventionalRun, DipRun, SimulateRun,
                        manifest)
from dcinv.scenarios import build_case1
from dcinv.survey import build_dipole_dipole_survey
from dcinv.tikhonov import GNConfig, RegularizationConfig
from dcinv.trace import save_grid

REPLAY = ["replay", "--manifest", "{tmp}/m.json"]
# a 2 x 2 model grid for the render command
GRID = {"g.txt": lambda path: save_grid(path, np.array([0.0, 0.5, 1.0, 0.25]), nx=2, nz=2)}


@functools.cache
def readme_failures() -> tuple:
    """(failure, exit code, message prefix, example) per row of the README's
    table of failures."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| Failure | Exit code | Message prefix | Example |\n|---|---|---|---|\n")[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        failure, code, prefix, example = (cell.strip().strip("`")
                                          for cell in line.strip("|").split(" | "))
        rows.append((failure, int(code), prefix, example))
    return tuple(rows)


def refused(argv, code: int, message: str | tuple[str, ...], files=None) -> str:
    """Run ``dcinv argv`` in a fresh directory holding ``files`` and check the
    failure contract: exit ``code``; stderr under a README prefix of that
    code, holding ``message`` (or each of a tuple of them); no traceback;
    and the directory tree as it was, byte for byte.  ``{tmp}`` in ``argv``,
    ``message`` and text files stands for the directory.  ``files`` maps a
    name to its text, bytes, a JSON value, or a function that writes the
    path.  Returns stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        def fill(text):
            return text.replace("{tmp}", tmp)

        for name, content in (files or {}).items():
            path = Path(tmp, name)
            if callable(content):
                content(path)
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(fill(content if isinstance(content, str) else json.dumps(content)))
        before = _tree(tmp)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            got = main([fill(arg) for arg in argv])
        err = err.getvalue()
        prefixes = tuple(prefix for _, c, prefix, _ in readme_failures() if c == code)
        assert got == code and err.startswith(prefixes), err
        messages = (message,) if isinstance(message, str) else message
        assert all(fill(m) in err for m in messages) and "Traceback" not in err, err
        assert _tree(tmp) == before
    return err


def _tree(root) -> dict:
    """Every path under ``root``, with the bytes of each file."""
    return {str(p): p.read_bytes() if p.is_file() else None for p in Path(root).rglob("*")}


def stored_run(method: str) -> dict:
    """The manifest of a small desk-scale case-1 run of ``method`` into ``{tmp}/o``."""
    spec, out = build_case1(45.0, scale="desk")[0], "{tmp}/o"
    if method == "simulate":
        return manifest(SimulateRun(spec, out))
    if method == "dip":
        return manifest(DipRun(spec, DipConfig(epochs_stage1=2, epochs_stage2=1),
                               ArchChoice(), None, None, out))
    return manifest(ConventionalRun(spec, ConventionalConfig(RegularizationConfig(),
                                                             GNConfig(max_beta_steps=1)),
                                    None, out))


def at(tree, path: str):
    """The parent container of ``path`` (``config.reg.m_ref``, ``cylinders[0]``)
    in a JSON tree, and the key of ``path`` in it."""
    parts = [int(p) if p.isdigit() else p
             for p in path.replace("[", ".").replace("]", "").split(".")]
    for part in parts[:-1]:
        tree = tree[part]
    return tree, parts[-1]


def param_fd_grads(params, z, shape, g, eps=1e-5, mode="eval", rng_factory=None):
    """Finite-difference gradients of <g, net(w)> for every parameter array.

    ``rng_factory`` recreates the generator per call so dropout draws are
    identical across perturbed evaluations.
    """
    def evaluate():
        rng = rng_factory() if rng_factory else None
        m, _ = net_forward(params, z, shape, mode=mode, rng=rng)
        return float(np.asarray(g) @ m)

    return {key: central_difference(evaluate, arr, eps)
            for key, arr in params.arrays.items()}


def param_count(params):
    """Number of trainable weights of a generator."""
    return sum(a.size for a in params.arrays.values())


def pearson(a, b):
    """Pearson correlation of two models, NaN when either is constant."""
    da = np.ravel(a) - np.mean(a)
    db = np.ravel(b) - np.mean(b)
    denom = np.linalg.norm(da) * np.linalg.norm(db)
    return float("nan") if denom == 0 else float(da @ db / denom)


def ramp_color(t):
    """The render ramp at one normalized value, from its three anchors: dark
    blue (0, 0, 128) at 0, white at 0.5, dark red (128, 0, 0) at 1."""
    t = min(max(float(t), 0.0), 1.0)
    low, mid, high = np.array([0.0, 0.0, 128.0]), np.full(3, 255.0), np.array([128.0, 0.0, 0.0])
    rgb = low + 2.0 * t * (mid - low) if t <= 0.5 else mid + (2.0 * t - 1.0) * (high - mid)
    return tuple(int(v) for v in np.rint(rgb))


def read_ppm(path):
    """A binary P6 pixmap as an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        magic, size, depth, pixels = f.read().split(b"\n", 3)
    assert (magic, depth) == (b"P6", b"255")
    w, h = (int(t) for t in size.split())
    return np.frombuffer(pixels, dtype=np.uint8, count=h * w * 3).reshape(h, w, 3)


def tiny_dc_problem(n_core_x=12, n_core_z=5, n_pad=2, line=50.0, spacing=10.0):
    """Small mesh + survey + simulation for sensitivity tests."""
    mesh = build_mesh(n_core_x, n_core_z, 5.0, 5.0, n_pad, 1.5)
    survey = build_dipole_dipole_survey(line, spacing, 24, x0=-line / 2)
    return mesh, survey, DCSimulation(mesh, survey)


def operator_entries(mesh, sigma):
    """(rows, cols, values) of the finite-volume operator, four entries per
    interior face and one per boundary face, with face index arrays and
    conductances built here from ``mesh.hx`` and ``mesh.hz`` (independently
    of the forward operator's grid slices and of the block factor).
    ``sigma`` may be complex, for complex-step derivatives."""
    nx, nz = mesh.nx, mesh.nz
    hx, hz = mesh.hx, mesh.hz
    sigma = np.asarray(sigma)
    cells = np.arange(mesh.n_cells).reshape(nz, nx)
    # Interior faces: x faces, then z faces; each couples cells a and b.
    a = np.concatenate([cells[:, :-1].ravel(), cells[:-1].ravel()])
    b = np.concatenate([cells[:, 1:].ravel(), cells[1:].ravel()])
    length = np.concatenate([np.repeat(hz, nx - 1), np.tile(hx, nz - 1)])
    d_a = 0.5 * np.concatenate([np.tile(hx[:-1], nz), np.repeat(hz[:-1], nx)])
    d_b = 0.5 * np.concatenate([np.tile(hx[1:], nz), np.repeat(hz[1:], nx)])
    t_int = length / (d_a / sigma[a] + d_b / sigma[b])
    # Dirichlet faces: left column, right column, bottom row; none on the surface.
    c = np.concatenate([cells[:, 0], cells[:, -1], cells[-1]])
    t_bnd = (np.concatenate([hz, hz, hx]) * sigma[c]
             / (0.5 * np.concatenate([np.full(nz, hx[0]), np.full(nz, hx[-1]),
                                      np.full(nx, hz[-1])])))
    return (np.concatenate([a, b, a, b, c]), np.concatenate([b, a, a, b, c]),
            np.concatenate([-t_int, -t_int, t_int, t_int, t_bnd]))


@st.composite
def drawn_meshes(draw):
    """A mesh of 1-40 x 1-20 cells with drawn widths (padding-sized cells
    included) and a log-conductivity anywhere in the generator's (-8, 0) range."""
    nx, nz = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    widths = st.floats(0.5, 60.0)
    mesh = TensorMesh2D(hx=draw(arrays(float, nx, elements=widths)),
                        hz=draw(arrays(float, nz, elements=widths)), origin_x=0.0)
    m = draw(arrays(float, mesh.n_cells,
                    elements=st.floats(-8.0, 0.0, exclude_min=True, exclude_max=True)))
    return mesh, m


def dense_operator(mesh, sigma):
    """The finite-volume operator as a dense matrix, duplicate entries summed."""
    rows, cols, values = operator_entries(mesh, sigma)
    a = np.zeros((mesh.n_cells, mesh.n_cells), dtype=values.dtype)
    np.add.at(a, (rows, cols), values)
    return a


class Traffic:
    """Counts what the optimizers ask of a ``DCSimulation``: calls per method,
    passes over the face resistances, operator solves (each one factors),
    the distinct models predicted or differentiated, the Jacobian builds
    (distinct arrays handed out), the most earlier builds still alive when a
    new one is handed out, and the ``np.linalg.inv`` calls made from
    ``dcinv.forward``."""

    def __init__(self, monkeypatch):
        from dcinv import forward

        self.calls = {"predict": 0, "jt_vec": 0, "jacobian": 0, "resistances": 0,
                      "solve": 0}
        self.models = set()           # bytes of every model predicted or differentiated
        self.jacobian_models = set()  # bytes of every model whose J was asked for
        self.jacobian_builds = 0
        self.most_alive = 0           # earlier J still referenced at a new build
        self.inverses = 0             # np.linalg.inv calls from dcinv.forward
        built = []                    # weak references, so counting frees nothing late

        def counted(name, method):
            def wrapper(sim, m, *args):
                self.calls[name] += 1
                out = method(sim, m, *args)
                if name in ("predict", "jacobian"):
                    self.models.add(np.asarray(m, dtype=float).tobytes())
                if name == "jacobian":
                    self.jacobian_models.add(np.asarray(m, dtype=float).tobytes())
                    if not any(ref() is out for ref in built):
                        self.jacobian_builds += 1
                        alive = sum(ref() is not None for ref in built)
                        self.most_alive = max(self.most_alive, alive)
                        built.append(weakref.ref(out))
                return out
            return wrapper

        for name in ("predict", "jt_vec", "jacobian"):
            monkeypatch.setattr(DCSimulation, name, counted(name, getattr(DCSimulation, name)))
        resistances = forward._FaceGeometry.resistances

        def counted_resistances(faces, sigma):
            self.calls["resistances"] += 1
            return resistances(faces, sigma)

        monkeypatch.setattr(forward._FaceGeometry, "resistances", counted_resistances)
        solve = forward.solve_surface

        def counted_solve(*args):
            self.calls["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(forward, "solve_surface", counted_solve)
        inv = np.linalg.inv

        def counted_inv(a):
            if sys._getframe(1).f_globals.get("__name__") == "dcinv.forward":
                self.inverses += 1
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
