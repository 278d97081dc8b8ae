"""Command-line entry points.

Subcommands: ``simulate`` (scenario to synthetic data files),
``invert-dip``, ``invert-conv``, ``ablate``, ``render``, ``check``, and
``replay``.  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 I/O error; the README's table of failures gives the message prefix and
an example of each.

A ``--config`` INI file fills [scenario] (case, dip, scale), [dip],
[tikhonov] and [gn] (DipConfig, RegularizationConfig, GNConfig); flags
override it.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

from . import fileio
from .ablation import SUITES, run_ablation
from .checks import run_all
from .dip import DipConfig
from .errors import CheckpointError, ManifestError, NumericalFailure, ParseError
from .net.model import UPSAMPLERS
from .render import render_grid
from .runs import (ArchChoice, ConventionalConfig, ConventionalRun, DipRun, SimulateRun,
                   execute, replay)
from .scenarios import ScenarioSpec, build_case1, build_case2
from .tikhonov import GNConfig, RegularizationConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# error type -> (message prefix, exit code); the first match wins: ValueError comes last
_FAILURES = {NumericalFailure: ("numerical failure", EXIT_NUMERICAL),
             ParseError: ("parse error", EXIT_IO), CheckpointError: ("checkpoint error", EXIT_IO),
             ManifestError: ("manifest error", EXIT_IO), OSError: ("i/o error", EXIT_IO),
             ValueError: ("invalid arguments", EXIT_USAGE)}
CASES = ("1", "2", "2.2")
SCALES = ("full", "desk")


class _Formatter(argparse.RawDescriptionHelpFormatter):
    def _get_default_metavar_for_optional(self, action):
        # named after the flag, not after its dest "<section>.<field>"
        return action.option_strings[0].lstrip("-").replace("-", "_").upper()


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)
        # sets argparse's private negative-number pattern, widened to what float() reads,
        # so `--vmin -4.5e0` and `--dip -inf` are values, not flags (Python 3.11's reads `-4.5`)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class ScenarioConfig:
    """The ``[scenario]`` section: which synthetic case to build, at what dip and scale."""

    case: str = "1"
    dip: float = 45.0  # dike dip in degrees, case 1 only
    scale: str = "full"

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"scenario case must be one of {CASES}, got {self.case!r}")
        if self.scale not in SCALES:
            raise ValueError(f"scenario scale must be one of {SCALES}, got {self.scale!r}")

    def spec(self) -> ScenarioSpec:
        if self.case != "1":
            return build_case2(two_cylinders=self.case == "2.2", scale=self.scale)[0]
        try:
            return build_case1(self.dip, scale=self.scale)[0]
        except ValueError as e:  # the dip is the one value case 1 takes from the section
            raise ValueError(f"scenario.dip: {e}") from None


# config-file section -> its dataclass; a flag with dest "<section>.<field>" overrides both
_SECTIONS = {"scenario": ScenarioConfig, "dip": DipConfig,
             "tikhonov": RegularizationConfig, "gn": GNConfig}


def _flags_for(flags: dict, name: str) -> dict:
    """The flags given for ``name``'s fields, by field name."""
    prefix = name + "."
    return {key[len(prefix):]: value for key, value in flags.items()
            if key.startswith(prefix) and value is not None}


def _load_config(path) -> dict[str, dict[str, str]]:
    """The ``--config`` file's sections; one that fills no dataclass is a usage error."""
    config = fileio.load_config(path) if path else {}
    if extra := sorted(set(config) - set(_SECTIONS)):
        raise ValueError(f"unknown config section [{extra[0]}]; expected one of {list(_SECTIONS)}")
    return config


def _section(name: str, flags: dict, config: dict):
    """Section ``name``'s dataclass: defaults, then the config file, then the
    flags, each flag refused as its config key would be.  The file's section
    is checked alone first, so a key that a flag overrides is checked too."""
    section = config.get(name, {})
    fileio.from_fields(_SECTIONS[name], section, name, ini=True)
    return fileio.from_fields(_SECTIONS[name], {**section, **_flags_for(flags, name)}, name,
                              ini=True)


def _scenario(flags: dict, config: dict) -> ScenarioSpec:
    spec = _section("scenario", flags, config).spec().to_dict()
    return fileio.from_fields(ScenarioSpec, {**spec, **_flags_for(flags, "spec")}, "scenario")


def _add_scenario_args(p):
    p.add_argument("--case", dest="scenario.case", choices=CASES)
    p.add_argument("--dip", dest="scenario.dip", type=float, help="dike dip in degrees")
    p.add_argument("--scale", dest="scenario.scale", choices=SCALES)
    p.add_argument("--noise", dest="spec.noise_rel", type=float, help="relative noise fraction")
    p.add_argument("--seed", dest="spec.noise_seed", type=int,
                   help="seeds the data noise and the network (weights, latent, dropout)")
    p.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write synthetic data for a scenario")
    _add_scenario_args(p)
    p.add_argument("--out", default="runs/simulate")

    p = sub.add_parser("invert-dip", help="reparameterized (test-time-learning) inversion")
    _add_scenario_args(p)
    p.add_argument("--data", default=None, help="data file (else simulated from scenario)")
    p.add_argument("--out", default="runs/dip")
    p.add_argument("--tau", dest="dip.tau", type=float)
    p.add_argument("--lr", dest="dip.lr", type=float)
    p.add_argument("--dropout", dest="dip.dropout_rate", type=float)
    p.add_argument("--epochs", dest="dip.epochs_stage2", type=int, help="stage-2 epoch budget")
    p.add_argument("--blocks", dest="arch.n_blocks", type=int, choices=[1, 2, 3, 4, 5])
    p.add_argument("--upsampler", dest="arch.upsampler", choices=UPSAMPLERS)
    p.add_argument("--pretrained", default=None,
                   help="stage-1 checkpoint to reuse (skips pretraining)")

    p = sub.add_parser("invert-conv", help="conventional Gauss-Newton inversion")
    _add_scenario_args(p)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default="runs/conventional")
    for flag, field in (("--ps", "p_s"), ("--px", "p_x"), ("--pz", "p_z"),
                        ("--alpha-s", "alpha_s"), ("--alpha-x", "alpha_x"),
                        ("--alpha-z", "alpha_z")):
        p.add_argument(flag, dest=f"tikhonov.{field}", type=float)
    p.add_argument("--sensitivity", dest="tikhonov.use_sensitivity_weights",
                   action="store_true", default=None,
                   help="enable sensitivity weighting in the regularizer")

    p = sub.add_parser("ablate", help="run an ablation suite")
    _add_scenario_args(p)
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--out", default="runs/ablation")
    p.add_argument("--epochs", dest="dip.epochs_stage2", type=int)

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


def _run(args) -> int:
    config = _load_config(getattr(args, "config", None))
    # --seed draws the data noise and seeds the network
    flags = {**vars(args), "dip.rng_seed": getattr(args, "spec.noise_seed", None)}

    if args.command == "simulate":
        paths = execute(SimulateRun(_scenario(flags, config), args.out))
        print(f"wrote {paths['data']} and {paths['model_true']}")

    elif args.command == "invert-dip":
        paths = execute(DipRun(_scenario(flags, config), _section("dip", flags, config),
                               ArchChoice(**_flags_for(flags, "arch")), args.data,
                               args.pretrained, args.out))
        print(f"wrote {paths['trace']} and {paths['model']}")

    elif args.command == "invert-conv":
        reg_gn = ConventionalConfig(_section("tikhonov", flags, config),
                                    _section("gn", flags, config))
        paths = execute(ConventionalRun(_scenario(flags, config), reg_gn, args.data, args.out))
        print(f"wrote {paths['trace']} and {paths['model']}")

    elif args.command == "ablate":
        rows = run_ablation([args.suite], _scenario(flags, config),
                            _section("dip", flags, config), args.out)
        for r in rows:
            print(f"{r['run']:24s} chi={r['chi']:.3f} rmse={r['rmse']:.3f} "
                  f"smoothness={r['smoothness']:.5f} [{r['status']}]")
        if any(r["status"] != "ok" for r in rows):
            return EXIT_NUMERICAL

    elif args.command == "render":
        render_grid(args.grid, args.out, vmin=args.vmin, vmax=args.vmax,
                    upscale=args.upscale, pad_x=args.pad_x, pad_z=args.pad_z)
        print(f"wrote {args.out}")

    elif args.command == "check":
        if args.seed < 0:  # ScenarioSpec.noise_seed's range; numpy's names no flag or value
            raise ValueError(f"--seed must be in [0, inf), got {args.seed}")
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
    except tuple(_FAILURES) as e:
        prefix, code = next(outcome for kind, outcome in _FAILURES.items() if isinstance(e, kind))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
