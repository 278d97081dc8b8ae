"""Runs as typed values, their manifests, and their execution.

A run (:class:`SimulateRun`, :class:`DipRun` or :class:`ConventionalRun`)
holds the scenario, the full configuration and the seeds, and writes itself
to ``manifest.json``; :func:`load_run` reads one back whole, which is how
``replay`` re-executes a run bit for bit in deterministic mode.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from . import fileio
from .dip import DipConfig, invert_stage2, pretrain_stage1
from .errors import CheckpointError, ManifestError, NumericalFailure, ParseError
from .forward import DCSimulation, surface_columns, weights_from_std
from .net import (ArchConfig, arch_for_mesh, init_params, load_params, sample_latent,
                  save_params)
from .scenarios import ScenarioSpec, add_noise, paint_model
from .tikhonov import GNConfig, RegularizationConfig, gauss_newton_invert
from .trace import save_grid, save_trace

MANIFEST_VERSION = 2

# Version 1 to 2, per method and path: each field version 1 has and version 2 dropped,
# with the value it must hold, and each it lacks, with the value that reproduces it.
FROM_V1 = {"simulate": {"dropped": {}, "added": {}},
           "dip": {"dropped": {"config.store_models": False}, "added": {}},
           "conventional": {"dropped": {}, "added": {}}}


@dataclass(frozen=True)
class ArchChoice:
    """What a DIP run chooses of its architecture; the mesh and dropout fix the rest."""

    n_blocks: int = 3
    upsampler: str = "bilinear"

    def __post_init__(self):
        arch_for_mesh(1, 1, self.n_blocks, self.upsampler)  # rejects what a run would


@dataclass(frozen=True)
class ConventionalConfig:
    reg: RegularizationConfig
    gn: GNConfig

    def __post_init__(self):  # with beta0 given, all alphas at 0 is plain least squares
        if self.gn.beta0 is None and not (self.reg.alpha_s or self.reg.alpha_x or self.reg.alpha_z):
            raise ValueError("alpha_s, alpha_x and alpha_z are all 0, so beta0 cannot be "
                             "estimated; give beta0 or a positive alpha")


@dataclass(frozen=True)
class SimulateRun:
    """Synthetic data and the true model of a scenario."""

    scenario: ScenarioSpec
    out_dir: str
    method: ClassVar[str] = "simulate"
    outputs: ClassVar[dict] = {"data": "data.txt", "model_true": "model_true.txt"}


@dataclass(frozen=True)
class DipRun:
    """The reparameterized inversion of a data file, else of the scenario's
    simulated data.  ``pretrained`` names a stage-1 checkpoint to reuse, of
    the architecture the run derives (else :class:`CheckpointError`)."""

    scenario: ScenarioSpec
    config: DipConfig
    arch: ArchChoice
    data: str | None
    pretrained: str | None
    out_dir: str
    method: ClassVar[str] = "dip"
    outputs: ClassVar[dict] = {"trace": "trace.txt", "model": "model.txt",
                               "checkpoint": "checkpoint.npz",
                               "pretrained": "pretrained.npz"}


@dataclass(frozen=True)
class ConventionalRun:
    """The Gauss-Newton inversion of a data file, else of the scenario's simulated data."""

    scenario: ScenarioSpec
    config: ConventionalConfig
    data: str | None
    out_dir: str
    method: ClassVar[str] = "conventional"
    outputs: ClassVar[dict] = {"trace": "trace.txt", "model": "model.txt"}


Run = SimulateRun | DipRun | ConventionalRun
_METHODS = {cls.method: cls for cls in (SimulateRun, DipRun, ConventionalRun)}


def manifest(run: Run) -> dict:
    """The JSON form of a run, as ``manifest.json`` holds it."""
    return {**asdict(run), "scenario": run.scenario.to_dict(), "version": MANIFEST_VERSION,
            "method": run.method, "outputs": dict(run.outputs)}


def load_run(entry, source: str = "manifest") -> Run:
    """The run that the JSON value ``entry`` holds.  ``method`` picks its
    class, ``version`` is 1 or 2, ``outputs`` what :func:`manifest` writes,
    and every other key is a field (:func:`fileio.from_fields`), as
    :data:`FROM_V1` maps version 1.  Else :class:`ManifestError` names the path."""
    try:
        if not isinstance(entry, dict):
            raise ValueError(f"must be a JSON object, got {type(entry).__name__}")
        method = entry.get("method")
        cls = _METHODS.get(method) if isinstance(method, str) else None
        if cls is None:
            raise ValueError(f"method must be one of {', '.join(_METHODS)}, "
                             f"got {json.dumps(method) if 'method' in entry else 'none'}")
        fixed = {"version": (1, MANIFEST_VERSION), "method": (cls.method,),
                 "outputs": (cls.outputs,)}
        for key, allowed in fixed.items():
            want = [json.dumps(value, sort_keys=True) for value in allowed]
            got = json.dumps(entry[key], sort_keys=True) if key in entry else "none"
            if got not in want:  # as JSON: true is not 1, nor 1.0
                raise ValueError(f"{key} must be {' or '.join(want)}, got {got}")
        values = {k: v for k, v in entry.items() if k not in fixed}
        if entry["version"] == 1:
            values = _from_v1(values, FROM_V1[cls.method])
        return fileio.from_fields(cls, values)
    except ValueError as e:
        raise ManifestError(f"{source}: {e}") from None


def _from_v1(values: dict, table: dict) -> dict:
    """Version-1 ``values`` as version 2 holds them, by ``table`` (:data:`FROM_V1`)."""
    values = copy.deepcopy(values)
    for path, value in [*table["dropped"].items(), *table["added"].items()]:
        *parents, key = path.split(".")
        parent = values
        for part in parents:
            parent = parent.get(part) if isinstance(parent, dict) else None
        if isinstance(parent, dict):  # else from_fields names the entry
            got = json.dumps(parent.pop(key)) if key in parent else "none"
            want = "none" if path in table["added"] else json.dumps(value)
            if got != want:
                raise ValueError(f"{path} must be {want} in version 1, got {got}")
            if path in table["added"]:
                parent[key] = value
    return values


def _run_data(run: Run, mesh):
    """A run's survey, data, stds, data weights (the stds floored at 1e-4
    median |d|) and, when it simulates its data, true model (else None), from
    its data file if it names one; writes nothing.  A file row with an
    electrode outside the mesh or a std that the floor leaves at 0 is a
    :class:`ParseError` naming its line; simulated data that are not finite
    are a :class:`NumericalFailure`."""
    spec, path = run.scenario, getattr(run, "data", None)
    if path:
        survey, d_obs, std = fileio.load_data(path)
        truth = None
    else:
        survey, truth = spec.survey(), paint_model(spec)
        d_clean = DCSimulation(mesh, survey).predict(truth)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            d_obs, std = add_noise(d_clean, spec.noise_rel, spec.noise_seed)
        if not (np.isfinite(d_obs).all() and np.isfinite(std).all()):
            raise NumericalFailure(f"noise_rel {spec.noise_rel:g} makes simulated data "
                                   "that are not finite")
    floor = 1e-4 * float(np.median(np.abs(d_obs)))
    if path:
        columns = surface_columns(mesh, survey.electrodes)[survey.abmn]
        outside = ((columns < 0) | (columns >= mesh.nx)).any(axis=1)
        unweighted = np.maximum(std, floor) <= 0
        if (bad := outside | unweighted).any():
            row = int(bad.argmax())
            lo, hi = mesh.x_edges[[0, -1]]
            message = (f"an electrode outside the mesh, x in ({lo:g}, {hi:g}]" if outside[row]
                       else "std is 0, and so is the floor (1e-4 of the median |value|)")
            raise ParseError(message, fileio.read_rows(path)[1][row][0], path)
    return survey, d_obs, std, weights_from_std(std, floor=floor), truth


def _check_checkpoint_arch(path: str, stored: ArchConfig, derived: ArchConfig) -> None:
    """Reject a checkpoint whose architecture is not the one this run derives
    from its mesh, ``arch`` options and dropout rate."""
    want = derived.to_dict()
    diffs = [f"{key} {value} != {want[key]}"
             for key, value in stored.to_dict().items() if value != want[key]]
    if diffs:
        raise CheckpointError(f"checkpoint {path} does not match the run's "
                              f"architecture (checkpoint != run): {', '.join(diffs)}")


def execute(run: Run) -> dict:
    """Execute a run; returns {output name: path}, ``manifest`` included.
    The run fully determines its output files.  It settles its checkpoint
    and its data (:func:`_run_data`) before it makes its directory, so a
    checkpoint or data file that fails to load or that the run cannot use,
    and simulated data that are not finite, leave nothing behind.  Simulated
    data and their true model are written as :class:`SimulateRun` names them."""
    out_dir, mesh = run.out_dir, run.scenario.mesh()
    paths = {name: os.path.join(out_dir, file) for name, file in run.outputs.items()}
    if isinstance(run, DipRun):
        cfg = run.config
        arch = arch_for_mesh(mesh.nz, mesh.nx, run.arch.n_blocks, run.arch.upsampler,
                             dropout_rate=cfg.dropout_rate)
        if run.pretrained:
            params = load_params(run.pretrained)
            _check_checkpoint_arch(run.pretrained, params.arch, arch)
    survey, d_obs, std, weights, truth = _run_data(run, mesh)

    os.makedirs(out_dir, exist_ok=True)
    if truth is not None:
        save_grid(os.path.join(out_dir, SimulateRun.outputs["model_true"]), truth,
                  mesh.nx, mesh.nz)
        fileio.save_data(os.path.join(out_dir, SimulateRun.outputs["data"]), survey, d_obs, std)
    if isinstance(run, DipRun):
        z = sample_latent(cfg.rng_seed, arch.latent_dim)
        if not run.pretrained:
            params = init_params(cfg.rng_seed, arch)
            pretrain_stage1(params, z, mesh, cfg)
        save_params(paths["pretrained"], params)
        trace = invert_stage2(params, z, mesh, survey, d_obs, weights, cfg)
        save_params(paths["checkpoint"], params)  # trained in place
    elif isinstance(run, ConventionalRun):
        trace = gauss_newton_invert(mesh, survey, d_obs, weights, run.config.reg, run.config.gn)
    if not isinstance(run, SimulateRun):
        save_trace(paths["trace"], trace, method=run.method)
        save_grid(paths["model"], trace.final_model, mesh.nx, mesh.nz)

    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    fileio.save_manifest(paths["manifest"], manifest(run))
    return paths


def replay(manifest_path: str, out_dir: str | None = None) -> dict:
    """Re-execute a stored manifest, into its original directory by default."""
    run = load_run(fileio.load_manifest(manifest_path), str(manifest_path))
    return execute(replace(run, out_dir=out_dir) if out_dir else run)
