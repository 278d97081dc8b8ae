"""Run drivers: manifests, simulation, and both inversion flavours.

Every run writes a ``manifest.json`` capturing the scenario, the full
configuration, and the seeds; :func:`run_from_manifest` re-executes any
manifest, which is how ``replay`` reproduces outputs bit for bit in
deterministic mode.
"""

from __future__ import annotations

import os
from dataclasses import asdict

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


def _dip_cfg_to_dict(cfg: DipConfig) -> dict:
    return asdict(cfg)


def _dip_cfg_from_dict(d: dict) -> DipConfig:
    return DipConfig(**d)


def _reg_cfg_to_dict(cfg: RegularizationConfig) -> dict:
    d = asdict(cfg)
    if isinstance(d["m_ref"], np.ndarray):
        d["m_ref"] = d["m_ref"].tolist()
    return d


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
            "scenario": spec.to_dict(), "config": _dip_cfg_to_dict(cfg),
            "arch": dict(arch_opts), "data": data_path,
            "pretrained": pretrained, "out_dir": out_dir,
            "outputs": {"trace": "trace.txt", "model": "model.txt",
                        "checkpoint": "checkpoint.npz",
                        "pretrained": "pretrained.npz"}}


def conventional_manifest(spec: ScenarioSpec, reg: RegularizationConfig,
                          gn: GNConfig, out_dir: str,
                          data_path: str | None = None) -> dict:
    return {"version": MANIFEST_VERSION, "method": "conventional",
            "scenario": spec.to_dict(), "config": {"reg": _reg_cfg_to_dict(reg),
                                                   "gn": asdict(gn)},
            "data": data_path, "out_dir": out_dir,
            "outputs": {"trace": "trace.txt", "model": "model.txt"}}


def _simulate(spec: ScenarioSpec):
    """Truth model, clean data, noisy data and generating stds for a scenario."""
    mesh = spec.mesh()
    survey = spec.survey()
    truth = paint_model(spec)
    d_clean = DCSimulation(mesh, survey).predict(truth)
    d_noisy, std = add_noise(d_clean, spec.noise_rel, spec.noise_seed)
    return mesh, survey, truth, d_noisy, std


_KINDS = {dict: "a JSON object", str: "a string"}


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


def _built(key: str, build, fields: dict):
    """``build(fields)``; entries that do not fit raise a :class:`ManifestError`."""
    try:
        return build(fields)
    except (TypeError, KeyError) as e:
        raise ManifestError(f"manifest entry {key!r} does not fit: {e}") from None


def _obs_for_run(manifest: dict, spec: ScenarioSpec, out_dir: str):
    """Observed data for an inversion run: from file if given, else simulated."""
    mesh = spec.mesh()
    data_path = _entry(manifest, "data", str, optional=True)
    if data_path:
        survey, d_obs, std = fileio.load_data(data_path)
    else:
        mesh, survey, truth, d_obs, std = _simulate(spec)
        save_grid(os.path.join(out_dir, "model_true.txt"), truth, mesh.nx, mesh.nz)
        fileio.save_data(os.path.join(out_dir, "data.txt"), survey, d_obs, std)
    return mesh, survey, d_obs, std


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
    seeds), so repeated executions produce identical output files.
    """
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    method = _entry(manifest, "method", str)
    spec = _built("scenario", ScenarioSpec.from_dict, _entry(manifest, "scenario", dict))
    out_dir = out_dir or _entry(manifest, "out_dir", str)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    if method == "simulate":
        mesh, survey, truth, d_noisy, std = _simulate(spec)
        paths["model_true"] = os.path.join(out_dir, "model_true.txt")
        paths["data"] = os.path.join(out_dir, "data.txt")
        save_grid(paths["model_true"], truth, mesh.nx, mesh.nz)
        fileio.save_data(paths["data"], survey, d_noisy, std)

    elif method == "dip":
        cfg = _built("config", _dip_cfg_from_dict, _entry(manifest, "config", dict))
        mesh, survey, d_obs, std = _obs_for_run(manifest, spec, out_dir)
        weights = weights_from_std(std, floor=1e-4 * float(np.median(np.abs(d_obs))))
        arch_opts = _entry(manifest, "arch", dict, optional=True) or {}
        arch = arch_for_mesh(mesh.nz, mesh.nx,
                             n_blocks=int(arch_opts.get("n_blocks", 3)),
                             upsampler=arch_opts.get("upsampler", "bilinear"),
                             dropout_rate=cfg.dropout_rate)
        z = sample_latent(cfg.rng_seed, arch.latent_dim)
        pretrained = _entry(manifest, "pretrained", str, optional=True)
        if pretrained:
            params = load_params(pretrained)
            _check_checkpoint_arch(pretrained, params.arch, arch)
        else:
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
        config = _entry(manifest, "config", dict)
        reg_d = dict(_entry(config, "reg", dict, within="manifest config"))
        if isinstance(reg_d.get("m_ref"), list):
            reg_d["m_ref"] = np.asarray(reg_d["m_ref"])
        reg = _built("config.reg", lambda d: RegularizationConfig(**d), reg_d)
        gn = _built("config.gn", lambda d: GNConfig(**d),
                    _entry(config, "gn", dict, within="manifest config"))
        mesh, survey, d_obs, std = _obs_for_run(manifest, spec, out_dir)
        weights = weights_from_std(std, floor=1e-4 * float(np.median(np.abs(d_obs))))
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
