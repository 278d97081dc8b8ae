"""Run drivers: manifests, simulation, and both inversion flavours.

Every run writes a ``manifest.json`` capturing the scenario, the full
configuration, and the seeds; :func:`run_from_manifest` re-executes any
manifest, which is how ``replay`` reproduces outputs bit for bit in
deterministic mode.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from functools import partial

import numpy as np

from . import fileio
from .dip import DipConfig, invert_stage2, pretrain_stage1
from .errors import CheckpointMismatch, ManifestError
from .forward import DCSimulation, weights_from_std
from .net import (ArchConfig, arch_for_mesh, init_params, load_params, sample_latent,
                  save_params)
from .scenarios import ScenarioSpec, add_noise, paint_model
from .tikhonov import GNConfig, RegularizationConfig, gauss_newton_invert
from .trace import save_grid, save_trace

MANIFEST_VERSION = 1


def simulate_manifest(spec: ScenarioSpec, out_dir: str) -> dict:
    return {"version": MANIFEST_VERSION, "method": "simulate",
            "scenario": spec.to_dict(), "out_dir": out_dir,
            "outputs": {"data": "data.txt", "model_true": "model_true.txt"}}


def dip_manifest(spec: ScenarioSpec, cfg: DipConfig, arch_opts: dict,
                 out_dir: str, data_path: str | None = None,
                 pretrained: str | None = None) -> dict:
    """``pretrained`` may point at a stage-1 checkpoint to reuse, skipping
    pretraining (valid for the same reference model; an architecture other
    than the one the run derives raises :class:`CheckpointMismatch`)."""
    return {"version": MANIFEST_VERSION, "method": "dip",
            "scenario": spec.to_dict(), "config": asdict(cfg),
            "arch": dict(arch_opts), "data": data_path,
            "pretrained": pretrained, "out_dir": out_dir,
            "outputs": {"trace": "trace.txt", "model": "model.txt",
                        "checkpoint": "checkpoint.npz",
                        "pretrained": "pretrained.npz"}}


def conventional_manifest(spec: ScenarioSpec, reg: RegularizationConfig,
                          gn: GNConfig, out_dir: str,
                          data_path: str | None = None) -> dict:
    return {"version": MANIFEST_VERSION, "method": "conventional",
            "scenario": spec.to_dict(), "config": {"reg": asdict(reg), "gn": asdict(gn)},
            "data": data_path, "out_dir": out_dir,
            "outputs": {"trace": "trace.txt", "model": "model.txt"}}


def _simulate(spec: ScenarioSpec, mesh):
    """Survey, truth model, noisy data and generating stds for a scenario on its mesh."""
    survey = spec.survey()
    truth = paint_model(spec)
    d_clean = DCSimulation(mesh, survey).predict(truth)
    d_noisy, std = add_noise(d_clean, spec.noise_rel, spec.noise_seed)
    return survey, truth, d_noisy, std


_KINDS = {dict: "a JSON object", str: "a string", int: "an integer"}


def _entry(mapping: dict, key: str, kind: type, optional: bool = False,
           within: str = "manifest"):
    """``mapping[key]`` if it has type ``kind`` (or is absent or null when
    ``optional``); otherwise a :class:`ManifestError` naming the key."""
    value = mapping.get(key)
    if value is None and optional:
        return None
    if key not in mapping:
        raise ManifestError(f"{within} has no {key!r} entry")
    if not isinstance(value, kind):
        raise ManifestError(f"{within} entry {key!r} must be {_KINDS[kind]}, "
                            f"got {type(value).__name__}")
    return value


def _built(key: str, build, entry: dict, names=None):
    """``build`` of the manifest entry ``key`` by :func:`fileio.from_fields`:
    a missing or unknown key, or a value that ``build`` rejects, raises a
    :class:`ManifestError`."""
    try:
        return fileio.from_fields(build, entry, key, names)
    except (TypeError, KeyError, ValueError) as e:
        raise ManifestError(f"manifest entry {key!r} does not fit: {e}") from None


def _obs_for_run(data_path: str | None, spec: ScenarioSpec, mesh, out_dir: str):
    """Observed data for an inversion run, from file if given, else simulated,
    and its data weights: the stds floored at 1e-4 median |d_obs|.  Makes
    ``out_dir`` once the data are in hand, so a data file that fails to parse
    leaves nothing behind."""
    if data_path:
        survey, d_obs, std = fileio.load_data(data_path)
        os.makedirs(out_dir, exist_ok=True)
    else:
        survey, truth, d_obs, std = _simulate(spec, mesh)
        os.makedirs(out_dir, exist_ok=True)
        save_grid(os.path.join(out_dir, "model_true.txt"), truth, mesh.nx, mesh.nz)
        fileio.save_data(os.path.join(out_dir, "data.txt"), survey, d_obs, std)
    weights = weights_from_std(std, floor=1e-4 * float(np.median(np.abs(d_obs))))
    return survey, d_obs, weights


def _check_checkpoint_arch(path: str, stored: ArchConfig, derived: ArchConfig) -> None:
    """Reject a checkpoint whose architecture is not the one this run derives
    from its mesh, ``arch`` options and dropout rate."""
    want = derived.to_dict()
    diffs = [f"{key} {value} != {want[key]}"
             for key, value in stored.to_dict().items() if value != want[key]]
    if diffs:
        raise CheckpointMismatch(f"checkpoint {path} does not match the run's "
                                 f"architecture (checkpoint != run): {', '.join(diffs)}")


def run_from_manifest(manifest: dict, out_dir: str | None = None) -> dict:
    """Execute a manifest; returns {output name: absolute path}.

    The manifest fully determines the run (scenario, configuration and
    seeds), so repeated executions produce identical output files.  Every
    entry is checked before the run writes anything.
    """
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    method = _entry(manifest, "method", str)
    spec = _built("scenario", ScenarioSpec, _entry(manifest, "scenario", dict))
    out_dir = out_dir or _entry(manifest, "out_dir", str)
    data_path = _entry(manifest, "data", str, optional=True)
    if (version := _entry(manifest, "version", int)) != MANIFEST_VERSION:
        raise ManifestError(f"manifest entry 'version' does not fit: this dcinv reads "
                            f"version {MANIFEST_VERSION}, got {version}")
    mesh = spec.mesh()
    paths = {}

    if method == "simulate":
        os.makedirs(out_dir, exist_ok=True)
        survey, truth, d_noisy, std = _simulate(spec, mesh)
        paths["model_true"] = os.path.join(out_dir, "model_true.txt")
        paths["data"] = os.path.join(out_dir, "data.txt")
        save_grid(paths["model_true"], truth, mesh.nx, mesh.nz)
        fileio.save_data(paths["data"], survey, d_noisy, std)

    elif method == "dip":
        cfg = _built("config", DipConfig, _entry(manifest, "config", dict))
        # the entry chooses two things; the mesh and the dropout rate fix the rest
        arch = _built("arch", partial(arch_for_mesh, mesh.nz, mesh.nx,
                                      dropout_rate=cfg.dropout_rate),
                      _entry(manifest, "arch", dict), ("n_blocks", "upsampler"))
        pretrained = _entry(manifest, "pretrained", str, optional=True)
        if pretrained:
            params = load_params(pretrained)
            _check_checkpoint_arch(pretrained, params.arch, arch)
        survey, d_obs, weights = _obs_for_run(data_path, spec, mesh, out_dir)
        z = sample_latent(cfg.rng_seed, arch.latent_dim)
        if not pretrained:
            params = init_params(cfg.rng_seed, arch)
            pretrain_stage1(params, z, mesh, cfg)
        paths["pretrained"] = os.path.join(out_dir, "pretrained.npz")
        save_params(paths["pretrained"], params)
        trace = invert_stage2(params, z, mesh, survey, d_obs, weights, cfg)
        paths["trace"] = os.path.join(out_dir, "trace.txt")
        paths["model"] = os.path.join(out_dir, "model.txt")
        paths["checkpoint"] = os.path.join(out_dir, "checkpoint.npz")
        save_trace(paths["trace"], trace, method="dip")
        save_grid(paths["model"], trace.final_model, mesh.nx, mesh.nz)
        save_params(paths["checkpoint"], trace.final_params)

    elif method == "conventional":
        config = _built("config", dict, _entry(manifest, "config", dict), ("reg", "gn"))
        reg = _built("config.reg", RegularizationConfig,
                     _entry(config, "reg", dict, within="manifest config"))
        gn = _built("config.gn", GNConfig, _entry(config, "gn", dict, within="manifest config"))
        survey, d_obs, weights = _obs_for_run(data_path, spec, mesh, out_dir)
        trace = gauss_newton_invert(mesh, survey, d_obs, weights, reg, gn)
        paths["trace"] = os.path.join(out_dir, "trace.txt")
        paths["model"] = os.path.join(out_dir, "model.txt")
        save_trace(paths["trace"], trace, method="conventional")
        save_grid(paths["model"], trace.final_model, mesh.nx, mesh.nz)

    else:
        raise ManifestError(f"unknown manifest method {method!r}")

    manifest_path = os.path.join(out_dir, "manifest.json")
    fileio.save_manifest(manifest_path, {**manifest, "out_dir": out_dir})
    paths["manifest"] = manifest_path
    return paths


def replay(manifest_path: str, out_dir: str | None = None) -> dict:
    """Re-execute a stored manifest, into its original directory by default."""
    manifest = fileio.load_manifest(manifest_path)
    return run_from_manifest(manifest, out_dir=out_dir)
