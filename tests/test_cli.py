import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dcinv
from dcinv.cli import _SECTIONS, _apply_section, _load_config, _scenario, _section, main
from dcinv.dip import DipConfig
from dcinv.fileio import load_data, load_manifest, save_manifest
from dcinv.net import arch_for_mesh, init_params
from dcinv.runs import (ArchChoice, ConventionalConfig, ConventionalRun, DipRun, execute,
                        manifest)
from dcinv.scenarios import build_case1
from dcinv.tikhonov import GNConfig, RegularizationConfig
from dcinv.trace import load_grid, save_grid

_MISSING = object()  # a manifest key deleted, not set


class TestSimulate:
    def test_full_scale_row_count(self, tmp_path):
        """Case 1 at full scale writes a data file with 348 rows."""
        out = tmp_path / "sim"
        code = main(["simulate", "--case", "1", "--dip", "45", "--noise", "0.05",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        survey, values, std = load_data(out / "data.txt")
        assert values.size == 348
        rows = [l for l in (out / "data.txt").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 348

    def test_desk_scale(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--case", "2.2", "--scale", "desk",
                     "--out", str(out)])
        assert code == 0
        _, values, _ = load_data(out / "data.txt")
        assert values.size == 21
        truth, nx, nz = load_grid(out / "model_true.txt")
        assert (nx, nz) == (64, 19)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["invert-dip", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_grid_is_io_error(self, tmp_path):
        code = main(["render", "--grid", str(tmp_path / "none.txt"),
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 3

    def test_bad_case_is_usage_error(self, tmp_path):
        code = main(["simulate", "--case", "9", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unparsable_data_file_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("# dcinv data v1 n_data=1\n-25 0 25 50 abc 0.1\n")
        code = main(["invert-conv", "--scale", "desk", "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_parse_error_names_the_data_file(self, tmp_path, capsys):
        data = tmp_path / "bad_data.txt"
        data.write_text("# dcinv data v1 n_data=1\n-25 0 25 50 abc 0.1\n")
        code = main(["invert-conv", "--scale", "desk", "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"parse error: {data}: line 2: non-numeric value\n"

    @pytest.mark.parametrize("via", ["flags", "manifest"])
    def test_data_file_that_fails_to_parse_leaves_no_output_directory(self, tmp_path,
                                                                      capsys, via):
        """A --data file with A = B exits 3 before the run makes its output
        directory, whether the run comes from flags or from a manifest."""
        data = tmp_path / "data.txt"
        data.write_text("# dcinv data v1 n_data=1\n-25 -25 25 50 1.0 0.1\n")
        out = tmp_path / "o"
        if via == "flags":
            code = main(["invert-conv", "--scale", "desk", "--data", str(data),
                         "--out", str(out)])
        else:
            spec, _ = build_case1(45.0, scale="desk")
            reg_gn = ConventionalConfig(RegularizationConfig(), GNConfig())
            save_manifest(tmp_path / "m.json",
                          manifest(ConventionalRun(spec, reg_gn, str(data), str(out))))
            code = main(["replay", "--manifest", str(tmp_path / "m.json")])
        assert code == 3
        assert f"{data}: line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flags", "manifest"])
    @pytest.mark.parametrize("kind", ["text", "missing"])
    def test_pretrained_that_is_no_checkpoint_leaves_no_output_directory(self, tmp_path,
                                                                         capsys, kind, via):
        """A --pretrained path that is a text file or is not there exits 3,
        naming it, before the run simulates its data and makes its output
        directory, whether the run comes from flags or from a manifest."""
        checkpoint = tmp_path / "notes.txt"
        if kind == "text":
            checkpoint.write_text("not a checkpoint\n")
        out = tmp_path / "o"
        if via == "flags":
            code = main(["invert-dip", "--case", "1", "--scale", "desk", "--out", str(out),
                         "--pretrained", str(checkpoint)])
        else:
            spec, _ = build_case1(45.0, scale="desk")
            save_manifest(tmp_path / "m.json",
                          manifest(DipRun(spec, DipConfig(), ArchChoice(), None,
                                          str(checkpoint), str(out))))
            code = main(["replay", "--manifest", str(tmp_path / "m.json")])
        assert code == 3
        assert str(checkpoint) in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_names_the_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "bad_grid.txt"
        grid.write_text("# dcinv grid v1\n3 2\n0 1 2\n0 oops 2\n")
        code = main(["render", "--grid", str(grid), "--out", str(tmp_path / "o.ppm")])
        assert code == 3
        assert capsys.readouterr().err == f"parse error: {grid}: line 4: non-numeric value\n"

    def test_malformed_manifest_is_io_error(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text('{"kind": \n')
        code = main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_manifest_missing_a_key_is_io_error(self, tmp_path, capsys):
        manifest = tmp_path / "partial.json"
        manifest.write_text('{"method": "dip"}\n')
        code = main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"{manifest}: version must be 1, got none" in capsys.readouterr().err

    def test_manifest_of_the_wrong_type_is_io_error(self, tmp_path, capsys):
        manifest = tmp_path / "list.json"
        manifest.write_text("[1, 2]\n")
        code = main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, key, value", [
        ("config", "tau", -1.0), ("arch", "upsampler", "bicubic"), ("arch", "n_blocks", "x"),
        ("arch", "bogus", 1), ("arch", "latent_dim", 16), ("config", "m_ref", [1, 2]),
        ("config", "m_ref", None), ("scenario", "noise_rel", float("nan")),
        ("version", None, 2)] + [
        pytest.param(entry, key, _MISSING, id=f"no-{entry}.{key}")
        for entry, key in (("scenario", "n_core_x"), ("config", "tau"),
                           ("config.reg", "alpha_s"), ("config.gn", "cg_tol"),
                           ("config", "reg"), ("arch", "upsampler"))] + [
        pytest.param(entry, "bogus", 1, id=f"{entry}.bogus")
        for entry in ("scenario", "config", "config.reg", "config.gn")])
    def test_manifest_value_its_config_rejects_is_io_error(self, tmp_path, capsys,
                                                           entry, key, value):
        """A replayed manifest entry that lacks a key, holds an unknown one or
        holds a value that its dataclass rejects exits 3 naming the file and
        the key (its full path when the key is missing or unknown), before
        the run writes anything.  Entries under ``config.`` are a
        conventional run's, and ``config.reg`` alone is too."""
        spec, _ = build_case1(45.0, scale="desk")
        if entry.startswith("config.") or (entry, key) == ("config", "reg"):
            run = ConventionalRun(spec, ConventionalConfig(RegularizationConfig(), GNConfig()),
                                  None, str(tmp_path / "o"))
        else:
            run = DipRun(spec, DipConfig(epochs_stage1=2, epochs_stage2=1), ArchChoice(),
                         None, None, str(tmp_path / "o"))
        stored = manifest(run)
        *parents, last = entry.split(".") + ([] if key is None else [key])
        target = stored
        for part in parents:
            target = target[part]
        if value is _MISSING:
            del target[last]
        else:
            target[last] = value
        save_manifest(tmp_path / "m.json", stored)
        code = main(["replay", "--manifest", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"manifest error: {tmp_path / 'm.json'}: ")
        # a type error names the path; a value its dataclass rejects, the entry and the key
        named = (f"{entry}.{key}", f"{entry}: {key}") if key else (entry,)
        assert any(path in err for path in named) and "Traceback" not in err
        if value is _MISSING or key == "bogus":
            assert f"{entry}.{key}" in err
        assert not (tmp_path / "o").exists()

    def test_conventional_manifest_reference_must_be_one_number(self, tmp_path, capsys):
        spec, _ = build_case1(45.0, scale="desk")
        stored = manifest(ConventionalRun(spec, ConventionalConfig(RegularizationConfig(),
                                                                   GNConfig()),
                                          None, str(tmp_path / "o")))
        stored["config"]["reg"]["m_ref"] = [1.0, 2.0]
        save_manifest(tmp_path / "m.json", stored)
        code = main(["replay", "--manifest", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "config.reg.m_ref must be a finite number, got a list" in err
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    @pytest.mark.parametrize("text, line", [
        ("tau = 5\n[dip]\n", 1),                  # a key above the first section
        ("[dip]\ntau = 5\ntau = 6\n", 3),          # a duplicate key
        ("[dip]\ntau = 5%\n", 2),                  # a stray interpolation sign
        ("[dip]\nlr = 0.1\n[gn]\ntau\n", 4),       # a line with no value
    ])
    def test_unparsable_file_is_io_error_naming_the_line(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main(["invert-dip", "--scale", "desk", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"parse error: {cfg}: line {line}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("TRUE", True),
                                             ("on", True), ("0", False), ("no", False),
                                             ("False", False), ("OFF", False)])
    def test_booleans_are_configparser_words(self, word, value):
        reg = _apply_section(RegularizationConfig(), {"use_sensitivity_weights": word})
        assert reg.use_sensitivity_weights is value

    def test_misspelt_boolean_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[tikhonov]\nuse_sensitivity_weights = ture\n")
        code = main(["invert-conv", "--scale", "desk", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "'use_sensitivity_weights' for RegularizationConfig must be bool, got 'ture'" \
            in capsys.readouterr().err

    def test_optional_float_is_coerced_from_field_type(self):
        """[gn] beta0 defaults to None; a config value still becomes a float."""
        gn = _apply_section(GNConfig(), {"beta0": "1000"})
        assert gn.beta0 == 1000.0 and isinstance(gn.beta0, float)

    def test_readme_sample_loads(self, tmp_path):
        """The README's sample, inline comments and all, sets every value it
        shows, and names every field of [dip], [tikhonov] and [gn] but
        ``beta0``, whose default (estimate it) has no INI spelling."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        config = _load_config(cfg)
        for name, unset in (("dip", set()), ("tikhonov", set()), ("gn", {"beta0"})):
            assert set(config[name]) == {f.name for f in fields(_SECTIONS[name])} - unset
        dip, reg, gn = (_section(name, {}, config) for name in ("dip", "tikhonov", "gn"))
        assert (dip.tau, dip.epochs_stage1, dip.chi_patience) == (1000.0, 5000, 50)
        assert (reg.p_s, reg.irls_epsilon, reg.use_sensitivity_weights) == (0.0, 0.01, True)
        assert (gn.cooling_factor, gn.cg_maxiter, gn.beta0) == (0.5, 30, None)
        assert dip.m_ref == reg.m_ref == DipConfig().m_ref
        # the sample shows the paper-scale defaults, and dropout as the paper sets it
        assert dip == replace(DipConfig(), dropout_rate=0.1)
        assert gn == GNConfig()
        assert _scenario({}, config) == build_case1(45.0, scale="desk")[0]

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[gn]\nbeta0 = abc\n")
        code = main(["invert-conv", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "beta0" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("dip", "adam_beta1", "1.5"), ("dip", "adam_beta2", "1.0"),
        ("dip", "adam_eps", "0"), ("dip", "epochs_stage2", "-2"),
        ("dip", "chi_patience", "0"), ("dip", "stage1_tol", "-1"), ("dip", "tau", "nan"),
        ("gn", "cg_maxiter", "0"), ("gn", "max_beta_steps", "0"),
        ("gn", "iterations_per_beta", "0"), ("gn", "target_chi", "-1"),
        ("gn", "line_search_max", "-1"), ("gn", "cg_tol", "-0.5"),
        ("scenario", "nosie", "0.5"), ("scenario", "dip", "abc"),
        ("scenario", "scale", "huge"), ("dipp", "tau", "5"), ("dip", "m_ref", "inf"),
        ("tikhonov", "m_ref", "nan"), ("DEFAULT", "tau", "5"), ("dip", "rng_seed", "-1"),
        ("gn", "rng_seed", "-1"), ("tikhonov", "alpha_s", "nan"),
        ("tikhonov", "irls_epsilon", "nan"), ("gn", "cooling_factor", "1"),
        ("gn", "beta0", "0"), ("dip", "chi_stop", "inf")])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, section, key, value):
        """A value its config rejects, a key it lacks, or a section that fills
        no config, exits 1 before the run starts, naming the key or section,
        with no traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        command = "invert-dip" if section == "dip" else "invert-conv"
        code = main([command, "--scale", "desk", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid arguments: ")
        assert (key if section in _SECTIONS else f"[{section}]") in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--noise", "nan"],
                                       ["--noise", "inf"]])
    def test_scenario_value_it_rejects_is_usage_error(self, tmp_path, capsys, flags):
        """The scenario values a manifest refuses with exit 3 exit 1 as flags."""
        code = main(["invert-conv", "--scale", "desk", "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid arguments: noise_")
        assert not (tmp_path / "o").exists()

    def test_edge_values_stay_valid(self):
        """The boundary values the tests, the README and the benchmark use."""
        gn = _apply_section(GNConfig(), {"cg_tol": "0", "line_search_max": "0",
                                         "target_chi": "0"})
        assert (gn.cg_tol, gn.line_search_max, gn.target_chi) == (0.0, 0, 0.0)
        dip = _apply_section(DipConfig(), {"epochs_stage1": "0", "epochs_stage2": "0",
                                           "adam_beta1": "0", "stage1_tol": "0"})
        assert (dip.epochs_stage1, dip.epochs_stage2, dip.adam_beta1) == (0, 0, 0.0)


_NO_ALPHA = "alpha_s, alpha_x and alpha_z are all 0, so beta0 cannot be estimated"


class TestInputChecks:
    @pytest.mark.parametrize("argv, cfg, patch, code, message", [
        (["invert-dip", "--scale", "desk", "--dropout", "1.5", "--out", "{tmp}/o"], "", {},
         1, "dropout rate must be in [0, 1)"),
        (["invert-conv", "--scale", "desk", "--ps", "3", "--out", "{tmp}/o"], "", {},
         1, "norms must lie in [0, 2]"),
        (["invert-conv", "--scale", "desk", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o"],
         "[gn]\nbeta0_ratio = 0\n", {}, 1, "beta0_ratio must be positive and finite"),
        (["simulate", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o"], "[scenario]\ncase = 3\n",
         {}, 1, "scenario case must be one of"),
        (["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm", "--upscale", "0"], "", {},
         1, "upscale must be >= 1"),
        (["invert-conv", "--scale", "desk", "--alpha-s", "0", "--alpha-x", "0", "--alpha-z", "0",
          "--out", "{tmp}/o"], "", {}, 1, _NO_ALPHA),
        (["replay", "--manifest", "{tmp}/m.json"], "",
         {("config", "reg", "alpha_s"): 0.0, ("config", "reg", "alpha_x"): 0.0,
          ("config", "reg", "alpha_z"): 0.0}, 3, _NO_ALPHA),
        (["replay", "--manifest", "{tmp}/m.json"], "",
         {("scenario", "dike"): [0.0, 15.0, 80.0, 20.0, 90.0]}, 3,
         "dike extends below the core mesh"),
    ], ids=["dropout", "norm", "beta0_ratio", "case", "upscale", "alphas", "alphas-manifest",
            "dike-manifest"])
    def test_a_value_its_check_refuses_exits_and_writes_nothing(self, tmp_path, capsys, argv,
                                                                cfg, patch, code, message):
        """Checks that the other tests never reach, each through the input
        that reaches it: a flag, an INI key, a grid command or a manifest."""
        (tmp_path / "run.cfg").write_text(cfg)
        save_grid(tmp_path / "g.txt", np.array([0.0, 0.5, 1.0, 0.25]), nx=2, nz=2)
        stored = manifest(ConventionalRun(build_case1(45.0, scale="desk")[0],
                                          ConventionalConfig(RegularizationConfig(), GNConfig()),
                                          None, str(tmp_path / "o")))
        for (*parents, key), value in patch.items():
            target = stored
            for part in parents:
                target = target[part]
            target[key] = value
        save_manifest(tmp_path / "m.json", stored)
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_all_alphas_at_0_with_beta0_given_is_least_squares(self):
        reg = RegularizationConfig(alpha_s=0.0, alpha_x=0.0, alpha_z=0.0)
        assert ConventionalConfig(reg, GNConfig(beta0=1.0)).reg == reg


class TestCheck:
    def test_self_tests_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_seed_2_passes(self, capsys):
        """On seed 2 a leaky-ReLU input lies 1.6e-5 from its kink; a fixed
        1e-5 step on fc.w straddled it and read 9.9e-4 against the 1e-6 bound."""
        assert main(["check", "--seed", "2"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_a_failing_check_is_a_numerical_failure(self, capsys, monkeypatch):
        import dcinv.checks

        monkeypatch.setattr(dcinv.checks, "check_beta",
                            lambda: ("cooling schedule", False, "beta(tau) != 1/e"))
        assert main(["check"]) == 2
        assert "FAIL cooling schedule: beta(tau) != 1/e" in capsys.readouterr().out


class TestAblate:
    def test_one_suite_writes_one_table(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 100\nepochs_stage2 = 2\ntau = 50\n")
        out = tmp_path / "ablate"
        assert main(["ablate", "--suite", "dropout", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("# dcinv ablation v1 suite=dropout\n")
        assert summary.count("# dcinv ablation") == 1
        assert (out / "dropout-0" / "model.txt").exists()

    def test_a_failed_run_exits_2_after_the_summary(self, tmp_path, monkeypatch):
        import dcinv.ablation
        from dcinv.errors import NumericalFailure

        def failing(run):
            if isinstance(run, DipRun):
                raise NumericalFailure("synthetic failure")
            return execute(run)

        monkeypatch.setattr(dcinv.ablation, "execute", failing)
        out = tmp_path / "ablate"
        assert main(["ablate", "--suite", "dropout", "--scale", "desk",
                     "--out", str(out)]) == 2
        assert "failed: NumericalFailure: synthetic failure" in (out / "summary.txt").read_text()


class TestInversionCommands:
    def test_invert_dip_writes_outputs(self, tmp_path):
        out = tmp_path / "dip"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 300\nepochs_stage2 = 5\ntau = 50\n")
        code = main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(out), "--seed", "0"])
        assert code == 0
        assert (out / "trace.txt").exists()
        assert (out / "model.txt").exists()
        assert (out / "checkpoint.npz").exists()
        model, nx, nz = load_grid(out / "model.txt")
        assert (nx, nz) == (64, 19)
        assert np.all(model > -8.0) and np.all(model < 0.0)

    def test_a_diverged_run_is_a_numerical_failure(self, tmp_path):
        """It exited 1 as a usage error: 'model must be finite'.  Then, with
        numpy's warnings as they are by default, it printed an overflow and
        an invalid-value RuntimeWarning from the generator, each with its
        source line, before its one line."""
        env = {**os.environ, "PYTHONPATH": str(Path(dcinv.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", "import sys, dcinv.cli; "
                              "sys.exit(dcinv.cli.main(sys.argv[1:]))", "invert-dip",
                              "--scale", "desk", "--lr", "1e150", "--epochs", "20",
                              "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == "numerical failure: epoch 2: model is not finite\n"

    def test_a_failed_solve_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        """A SolverFailure is a NumericalFailure: exit 2, under the same prefix."""
        import dcinv.cli
        from dcinv.errors import SolverFailure

        def failing(run):
            raise SolverFailure("epoch 1: singular operator in cell column 0")

        monkeypatch.setattr(dcinv.cli, "execute", failing)
        assert main(["invert-dip", "--scale", "desk", "--out", str(tmp_path / "o")]) == 2
        assert (capsys.readouterr().err
                == "numerical failure: epoch 1: singular operator in cell column 0\n")

    def test_invert_conv_writes_outputs(self, tmp_path):
        out = tmp_path / "conv"
        code = main(["invert-conv", "--case", "1", "--scale", "desk",
                     "--out", str(out), "--seed", "0"])
        assert code == 0
        assert (out / "trace.txt").exists()
        assert (out / "model.txt").exists()

    def test_invert_from_data_file(self, tmp_path):
        sim_out = tmp_path / "sim"
        main(["simulate", "--case", "1", "--scale", "desk", "--out", str(sim_out)])
        out = tmp_path / "dip"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 200\nepochs_stage2 = 3\n")
        code = main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--data", str(sim_out / "data.txt"),
                     "--out", str(out)])
        assert code == 0
        manifest = load_manifest(out / "manifest.json")
        assert manifest["data"] == str(sim_out / "data.txt")


class TestReplay:
    def test_replay_reproduces_bitwise(self, tmp_path):
        """Replaying a manifest into a fresh directory reproduces the trace,
        model, and data files byte for byte."""
        out = tmp_path / "run1"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 300\nepochs_stage2 = 10\n"
                       "dropout_rate = 0.1\ntau = 50\n")
        assert main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        out2 = tmp_path / "run2"
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ("trace.txt", "model.txt", "data.txt", "model_true.txt"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_replay_simulation(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--case", "2", "--scale", "desk", "--seed", "5",
              "--out", str(out)])
        out2 = tmp_path / "sim2"
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out / "data.txt").read_bytes() == (out2 / "data.txt").read_bytes()


class TestRenderCommand:
    def test_render_from_simulated_truth(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--case", "1", "--scale", "desk", "--out", str(out)])
        img = tmp_path / "truth.ppm"
        code = main(["render", "--grid", str(out / "model_true.txt"),
                     "--out", str(img), "--upscale", "2", "--pad-x", "7",
                     "--pad-z", "7"])
        assert code == 0
        assert img.read_bytes().startswith(b"P6\n128 38\n255\n")

    @pytest.mark.parametrize("limits", [["--vmin", "nan"], ["--vmax", "inf"],
                                        ["--vmin", "5", "--vmax", "1"], ["--vmin", "2"]])
    def test_limits_it_cannot_honour_are_usage_errors(self, tmp_path, capsys, limits):
        grid = tmp_path / "g.txt"
        save_grid(grid, np.array([0.0, 0.5, 1.0, 0.25]), nx=2, nz=2)
        code = main(["render", "--grid", str(grid), "--out", str(tmp_path / "g.ppm"), *limits])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid arguments: colour limits must ")
        assert not (tmp_path / "g.ppm").exists()


class TestPretrainedReuse:
    def test_stage1_checkpoint_is_saved_and_reusable(self, tmp_path):
        out1 = tmp_path / "first"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 300\nepochs_stage2 = 3\ntau = 50\n")
        assert main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(out1)]) == 0
        assert (out1 / "pretrained.npz").exists()
        out2 = tmp_path / "second"
        assert main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(out2),
                     "--pretrained", str(out1 / "pretrained.npz")]) == 0
        # same pretrained start + same data/seeds -> identical trace
        assert ((out1 / "trace.txt").read_bytes()
                == (out2 / "trace.txt").read_bytes())

    def test_checkpoint_of_another_architecture_is_io_error(self, tmp_path, capsys):
        """A 1-block checkpoint given to a 3-block run is refused, not cropped."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dip]\nepochs_stage1 = 2\nepochs_stage2 = 1\n")
        first = tmp_path / "first"
        assert main(["invert-dip", "--case", "1", "--scale", "desk", "--blocks", "1",
                     "--config", str(cfg), "--out", str(first)]) == 0
        code = main(["invert-dip", "--case", "1", "--scale", "desk", "--blocks", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "second"),
                     "--pretrained", str(first / "pretrained.npz")])
        assert code == 3
        err = capsys.readouterr().err
        assert "channels [64] != [64, 32, 8]" in err
        assert "seed_shape" in err
        assert not (tmp_path / "second" / "trace.txt").exists()

    def test_npz_without_architecture_is_io_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "noarch.npz"
        np.savez(checkpoint, w=np.zeros(3))
        code = main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--out", str(tmp_path / "o"), "--pretrained", str(checkpoint)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(checkpoint) in err and "__arch__" in err

    def test_text_file_as_checkpoint_is_io_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "notes.txt"
        checkpoint.write_text("not a checkpoint\n")
        code = main(["invert-dip", "--case", "1", "--scale", "desk",
                     "--out", str(tmp_path / "o"), "--pretrained", str(checkpoint)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {checkpoint} is not an .npz archive" in err

    @pytest.mark.parametrize("name, spoil", [("conv1.k", lambda a: a[..., :2]),
                                             ("fc.w", lambda a: a * np.nan),
                                             ("out.k", lambda a: a.astype(np.float32))])
    def test_checkpoint_arrays_that_do_not_fit_exit_3(self, tmp_path, capsys, name, spoil):
        """A 3x2 kernel ran to exit 0, and a NaN weight exited 1 and left the
        output directory behind."""
        params = init_params(0, arch_for_mesh(19, 64))
        checkpoint = tmp_path / "ck.npz"
        np.savez(checkpoint, __arch__=np.array(json.dumps(params.arch.to_dict())),
                 **{**params.arrays, name: spoil(params.arrays[name])})
        code = main(["invert-dip", "--scale", "desk", "--epochs", "1",
                     "--pretrained", str(checkpoint), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"checkpoint error: checkpoint {checkpoint}: {name} ")
        assert not (tmp_path / "o").exists()
