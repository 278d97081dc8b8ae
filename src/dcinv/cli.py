"""Command-line entry points.

Subcommands: ``simulate`` (scenario to synthetic data files),
``invert-dip``, ``invert-conv``, ``ablate``, ``render``, ``check``, and
``replay``.  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 I/O error, including a grid, data, trace or manifest file that does not
parse (the message names the line), a manifest missing a key or holding a
value of the wrong type, and a ``--pretrained`` file that is not a
checkpoint or whose architecture is not the run's.

A ``--config`` file (INI-style, one section per module) supplies defaults
for any [dip], [tikhonov], or [scenario] keys; command-line flags
override it.  The full schema is documented in the README.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import get_args, get_type_hints

from . import fileio
from .ablation import SUITES, run_ablation
from .checks import run_all
from .dip import DipConfig
from .errors import (CheckpointError, ManifestError, NumericalFailure, ParseError,
                     SolverFailure)
from .render import render_grid
from .runs import (conventional_manifest, dip_manifest, replay, run_from_manifest,
                   simulate_manifest)
from .scenarios import build_case1, build_case2
from .tikhonov import GNConfig, RegularizationConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _field_kind(annotation) -> type:
    """bool, int or float when the annotation names one (``float | None`` too), else str."""
    options = get_args(annotation) or (annotation,)
    return next((kind for kind in (bool, int, float) if kind in options), str)


def _apply_section(cfg, section: dict[str, str]):
    """Override dataclass fields from a config-file section, coerced to each
    field's declared type."""
    updates = {}
    hints = get_type_hints(type(cfg))
    names = {f.name for f in fields(cfg)}
    for key, raw in section.items():
        if key not in names:
            raise ValueError(f"unknown config key {key!r} for {type(cfg).__name__}")
        kind = _field_kind(hints[key])
        if kind is bool:
            updates[key] = raw.strip().lower() in ("1", "true", "yes", "on")
            continue
        try:
            updates[key] = kind(raw)
        except ValueError:
            raise ValueError(f"config key {key!r} for {type(cfg).__name__} must be "
                             f"{kind.__name__}, got {raw!r}") from None
    return replace(cfg, **updates)


def _scenario(args, config):
    section = config.get("scenario", {})
    case = args.case if args.case is not None else section.get("case", "1")
    dip_deg = args.dip if args.dip is not None else float(section.get("dip", 45.0))
    scale = args.scale or section.get("scale", "full")
    if case == "1":
        spec, _ = build_case1(dip_deg, scale=scale)
    elif case == "2":
        spec, _ = build_case2(two_cylinders=False, scale=scale)
    elif case == "2.2":
        spec, _ = build_case2(two_cylinders=True, scale=scale)
    else:
        raise ValueError(f"unknown case {case!r} (choose 1, 2 or 2.2)")
    if args.noise is not None:
        spec = replace(spec, noise_rel=args.noise)
    if args.seed is not None:
        spec = replace(spec, noise_seed=args.seed)
    return spec


def _add_scenario_args(p):
    p.add_argument("--case", choices=["1", "2", "2.2"], default=None)
    p.add_argument("--dip", type=float, default=None, help="dike dip in degrees")
    p.add_argument("--scale", choices=["full", "desk"], default=None)
    p.add_argument("--noise", type=float, default=None, help="relative noise fraction")
    p.add_argument("--seed", type=int, default=None)


def _load_cfg_file(path):
    return fileio.load_config(path) if path else {}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcinv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write synthetic data for a scenario")
    _add_scenario_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="runs/simulate")

    p = sub.add_parser("invert-dip", help="reparameterized (test-time-learning) inversion")
    _add_scenario_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None, help="data file (else simulated from scenario)")
    p.add_argument("--out", default="runs/dip")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None, help="stage-2 epoch budget")
    p.add_argument("--blocks", type=int, default=3, choices=[1, 2, 3, 4, 5])
    p.add_argument("--upsampler", default="bilinear",
                   choices=["bilinear", "nearest", "transposed"])
    p.add_argument("--pretrained", default=None,
                   help="stage-1 checkpoint to reuse (skips pretraining)")

    p = sub.add_parser("invert-conv", help="conventional Gauss-Newton inversion")
    _add_scenario_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default="runs/conventional")
    p.add_argument("--ps", type=float, default=None)
    p.add_argument("--px", type=float, default=None)
    p.add_argument("--pz", type=float, default=None)
    p.add_argument("--alpha-s", type=float, default=None)
    p.add_argument("--alpha-x", type=float, default=None)
    p.add_argument("--alpha-z", type=float, default=None)
    p.add_argument("--sensitivity", action="store_true",
                   help="enable sensitivity weighting in the regularizer")

    p = sub.add_parser("ablate", help="run an ablation suite")
    _add_scenario_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--out", default="runs/ablation")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("render", help="render a model grid file to a PPM image")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vmin", type=float, default=None)
    p.add_argument("--vmax", type=float, default=None)
    p.add_argument("--upscale", type=int, default=1)
    p.add_argument("--pad-x", type=int, default=0)
    p.add_argument("--pad-z", type=int, default=0)

    p = sub.add_parser("check", help="run the numerical self-tests")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("replay", help="re-execute a stored run manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)

    return parser


def _dip_config(args, config) -> DipConfig:
    cfg = DipConfig()
    if "dip" in config:
        cfg = _apply_section(cfg, config["dip"])
    overrides = {}
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.lr is not None:
        overrides["lr"] = args.lr
    if args.dropout is not None:
        overrides["dropout_rate"] = args.dropout
    if args.epochs is not None:
        overrides["epochs_stage2"] = args.epochs
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _run(args) -> int:
    config = _load_cfg_file(getattr(args, "config", None))

    if args.command == "simulate":
        spec = _scenario(args, config)
        paths = run_from_manifest(simulate_manifest(spec, args.out))
        print(f"wrote {paths['data']} and {paths['model_true']}")

    elif args.command == "invert-dip":
        spec = _scenario(args, config)
        cfg = _dip_config(args, config)
        arch_opts = {"n_blocks": args.blocks, "upsampler": args.upsampler}
        manifest = dip_manifest(spec, cfg, arch_opts, args.out, data_path=args.data,
                                pretrained=args.pretrained)
        paths = run_from_manifest(manifest)
        print(f"wrote {paths['trace']} and {paths['model']}")

    elif args.command == "invert-conv":
        spec = _scenario(args, config)
        reg = RegularizationConfig()
        if "tikhonov" in config:
            reg = _apply_section(reg, config["tikhonov"])
        overrides = {k: v for k, v in (("p_s", args.ps), ("p_x", args.px),
                                       ("p_z", args.pz), ("alpha_s", args.alpha_s),
                                       ("alpha_x", args.alpha_x),
                                       ("alpha_z", args.alpha_z)) if v is not None}
        if args.sensitivity:
            overrides["use_sensitivity_weights"] = True
        if overrides:
            reg = replace(reg, **overrides)
        gn = GNConfig()
        if "gn" in config:
            gn = _apply_section(gn, config["gn"])
        manifest = conventional_manifest(spec, reg, gn, args.out, data_path=args.data)
        paths = run_from_manifest(manifest)
        print(f"wrote {paths['trace']} and {paths['model']}")

    elif args.command == "ablate":
        spec = _scenario(args, config)
        cfg = _dip_config(args, config)
        _, rows = run_ablation(args.suite, spec, cfg, args.out, workers=args.workers)
        for r in rows:
            print(f"{r['run']:24s} chi={r['chi']:.3f} rmse={r['rmse']:.3f} "
                  f"smoothness={r['smoothness']:.5f} [{r['status']}]")

    elif args.command == "render":
        render_grid(args.grid, args.out, vmin=args.vmin, vmax=args.vmax,
                    upscale=args.upscale, pad_x=args.pad_x, pad_z=args.pad_z)
        print(f"wrote {args.out}")

    elif args.command == "check":
        failures = 0
        for name, ok, detail in run_all(args.seed):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failures += 0 if ok else 1
        if failures:
            return EXIT_NUMERICAL

    elif args.command == "replay":
        paths = replay(args.manifest, out_dir=args.out)
        print(f"replayed into {paths['manifest']}")

    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _run(args)
    except (SolverFailure, NumericalFailure) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_IO
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_IO
    except ManifestError as e:
        print(f"manifest error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
