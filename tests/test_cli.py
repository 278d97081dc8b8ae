import configparser
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcinv
from dcinv.cli import CASES, SCALES, _SECTIONS, _load_config, _scenario, _section, main
from dcinv.dip import DipConfig
from dcinv.errors import ParseError
from dcinv.fileio import load_data, load_manifest
from dcinv.net import arch_for_mesh, init_params, save_params
from dcinv.runs import ConventionalConfig, DipRun, execute
from dcinv.scenarios import ScenarioSpec, build_case1
from dcinv.tikhonov import GNConfig, RegularizationConfig
from dcinv.trace import load_grid, save_grid
from helpers import GRID, REPLAY, at, ramp_color, read_ppm, refused, stored_run

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


_CONV = ["invert-conv", "--scale", "desk", "--out", "{tmp}/o"]
_DIP = ["invert-dip", "--scale", "desk", "--out", "{tmp}/o"]


def _with(stored: dict, path: str, value) -> dict:
    """``stored`` with the entry at ``path`` set to ``value``, or deleted for _MISSING."""
    parent, key = at(stored, path)
    if value is _MISSING:
        del parent[key]
    else:
        parent[key] = value
    return stored


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        refused(["simulate", "--bogus"], 1, "usage: dcinv [-h]")

    def test_unknown_command_is_usage_error(self):
        refused(["frobnicate"], 1, "usage: dcinv")

    def test_missing_config_is_io_error(self):
        refused([*_DIP, "--config", "{tmp}/missing.cfg"], 3, "i/o error: ")

    def test_missing_grid_is_io_error(self):
        refused(["render", "--grid", "{tmp}/none.txt", "--out", "{tmp}/o.ppm"], 3, "none.txt")

    def test_bad_case_is_usage_error(self):
        refused(["simulate", "--case", "9", "--out", "{tmp}/o"], 1, "usage: dcinv simulate")

    def test_unparsable_data_file_is_io_error(self):
        refused([*_CONV, "--data", "{tmp}/data.txt"], 3, "{tmp}/data.txt: line 2",
                {"data.txt": "# dcinv data v1 n_data=1\n-25 0 25 50 abc 0.1\n"})

    def test_parse_error_names_the_data_file(self):
        refused([*_CONV, "--data", "{tmp}/bad_data.txt"], 3,
                "parse error: {tmp}/bad_data.txt: line 2: non-numeric value\n",
                {"bad_data.txt": "# dcinv data v1 n_data=1\n-25 0 25 50 abc 0.1\n"})

    @pytest.mark.parametrize("via", ["flags", "manifest"])
    def test_data_file_that_fails_to_parse_leaves_no_output_directory(self, via):
        """A --data file with A = B exits 3 before the run makes its output
        directory, whether the run comes from flags or from a manifest."""
        files = {"data.txt": "# dcinv data v1 n_data=1\n-25 -25 25 50 1.0 0.1\n",
                 "m.json": _with(stored_run("conventional"), "data", "{tmp}/data.txt")}
        refused([*_CONV, "--data", "{tmp}/data.txt"] if via == "flags" else REPLAY, 3,
                "{tmp}/data.txt: line 2", files)

    @pytest.mark.parametrize("via", ["flags", "manifest"])
    @pytest.mark.parametrize("kind", ["text", "missing"])
    def test_pretrained_that_is_no_checkpoint_leaves_no_output_directory(self, kind, via):
        """A --pretrained path that is a text file or is not there exits 3,
        naming it, before the run simulates its data and makes its output
        directory, whether the run comes from flags or from a manifest."""
        files = {"m.json": _with(stored_run("dip"), "pretrained", "{tmp}/notes.txt")}
        if kind == "text":
            files["notes.txt"] = "not a checkpoint\n"
        refused([*_DIP, "--pretrained", "{tmp}/notes.txt"] if via == "flags" else REPLAY, 3,
                "checkpoint error: checkpoint {tmp}/notes.txt is not an .npz archive"
                if kind == "text" else "i/o error: [Errno 2] No such file or directory: "
                "'{tmp}/notes.txt'", files)

    def test_parse_error_names_the_grid_file(self):
        refused(["render", "--grid", "{tmp}/bad_grid.txt", "--out", "{tmp}/o.ppm"], 3,
                "parse error: {tmp}/bad_grid.txt: line 4: non-numeric value\n",
                {"bad_grid.txt": "# dcinv grid v1\n3 2\n0 1 2\n0 oops 2\n"})

    def test_malformed_manifest_is_io_error(self):
        refused(REPLAY, 3, "parse error: {tmp}/m.json: line 2: malformed JSON",
                {"m.json": '{"kind": \n'})

    def test_manifest_missing_a_key_is_io_error(self):
        refused(REPLAY, 3, "{tmp}/m.json: version must be 1 or 2, got none",
                {"m.json": '{"method": "dip"}\n'})

    def test_manifest_of_the_wrong_type_is_io_error(self):
        refused(REPLAY, 3, "must be a JSON object, got list", {"m.json": "[1, 2]\n"})

    @pytest.mark.parametrize("entry, key, value", [
        ("config", "tau", -1.0), ("arch", "upsampler", "bicubic"), ("arch", "n_blocks", "x"),
        ("arch", "bogus", 1), ("arch", "latent_dim", 16), ("config", "m_ref", [1, 2]),
        ("config", "m_ref", None), ("scenario", "noise_rel", float("nan")),
        ("version", None, 3)] + [
        pytest.param(entry, key, _MISSING, id=f"no-{entry}.{key}")
        for entry, key in (("scenario", "n_core_x"), ("config", "tau"),
                           ("config.reg", "alpha_s"), ("config.gn", "cg_tol"),
                           ("config", "reg"), ("arch", "upsampler"))] + [
        pytest.param(entry, "bogus", 1, id=f"{entry}.bogus")
        for entry in ("scenario", "config", "config.reg", "config.gn")])
    def test_manifest_value_its_config_rejects_is_io_error(self, entry, key, value):
        """A replayed manifest entry that lacks a key, holds an unknown one or
        holds a value that its dataclass rejects exits 3 naming the file and
        the key (its full path when the key is missing or unknown), before
        the run writes anything.  Entries under ``config.`` are a
        conventional run's, and ``config.reg`` alone is too."""
        conventional = entry.startswith("config.") or (entry, key) == ("config", "reg")
        path = entry if key is None else f"{entry}.{key}"
        stored = _with(stored_run("conventional" if conventional else "dip"), path, value)
        err = refused(REPLAY, 3, "manifest error: {tmp}/m.json: ", {"m.json": stored})
        # a type error names the path; a value its dataclass rejects, the entry and the key
        assert path in err or (f"{entry}: {key}" in err and value is not _MISSING
                               and key != "bogus")

    def test_conventional_manifest_reference_must_be_one_number(self):
        refused(REPLAY, 3, "config.reg.m_ref must be a finite number, got a list",
                {"m.json": _with(stored_run("conventional"), "config.reg.m_ref", [1.0, 2.0])})


# INI text for the config-file property: sections of "key = value" lines, and
# a stray line anywhere among them; each word is drawn as often as junk text is
def _word(words):
    return st.one_of(*map(st.just, words), st.text(st.characters(codec="utf-8"), max_size=6))


def _ini(sections, stray, at):
    lines = sum(sections, [])
    return "\n".join(lines[:at] + stray + lines[at:])


_VALUES = ["0", "5e-324", "1e308", "nan", "inf", "-1", "%", "%(x)s", "2.2", "desk",
           *configparser.ConfigParser.BOOLEAN_STATES]
_LINE = st.builds("{} = {}".format,
                  _word(sorted({f.name for cls in _SECTIONS.values() for f in fields(cls)})),
                  _word(_VALUES))
_SECTION = st.builds(lambda name, lines: [f"[{name}]", *lines],
                     _word([*_SECTIONS, "DEFAULT"]), st.lists(_LINE, max_size=4))
_INI = st.builds(_ini, st.lists(_SECTION, max_size=3, unique_by=lambda lines: lines[0]),
                 st.lists(_word(["", "; note", "  indented", "[", "tau", "= 1", "tau = 5"]),
                          max_size=1), st.integers(0, 15))
# a [scenario] section as the INI reader gives it: accepted values, edges and junk
_SCENARIO = st.fixed_dictionaries({}, optional={
    "case": _word([*CASES, "3"]), "scale": _word([*SCALES, "huge"]),
    "dip": st.one_of(_word(["0", "5e-324", "90", "1e308", "nan", "2.2", "-45", "90.5"]),
                     st.floats(0, 90).map(repr))})


class TestConfigFile:
    @pytest.mark.parametrize("text, line", [
        ("tau = 5\n[dip]\n", 1),                  # a key above the first section
        ("[dip]\ntau = 5\ntau = 6\n", 3),          # a duplicate key
        ("[dip]\nlr = 0.1\n[gn]\ntau\n", 4),       # a line with no value
        ("[dip]\ntau = 5\n[dip]\nlr = 0.1\n", 3),  # a duplicate section
    ])
    def test_unparsable_file_is_io_error_naming_the_line(self, text, line):
        refused([*_DIP, "--config", "{tmp}/run.cfg"], 3,
                f"parse error: {{tmp}}/run.cfg: line {line}: ", {"run.cfg": text})

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("TRUE", True),
                                             ("on", True), ("0", False), ("no", False),
                                             ("False", False), ("OFF", False)])
    def test_booleans_are_configparser_words(self, word, value):
        reg = _section("tikhonov", {}, {"tikhonov": {"use_sensitivity_weights": word}})
        assert reg.use_sensitivity_weights is value

    def test_misspelt_boolean_is_usage_error(self):
        refused([*_CONV, "--config", "{tmp}/run.cfg"], 1,
                'tikhonov.use_sensitivity_weights must be true or false, got "ture"',
                {"run.cfg": "[tikhonov]\nuse_sensitivity_weights = ture\n"})

    def test_optional_float_is_coerced_from_field_type(self):
        """[gn] beta0 defaults to None; a config value still becomes a float."""
        gn = _section("gn", {}, {"gn": {"beta0": "1000"}})
        assert gn.beta0 == 1000.0 and isinstance(gn.beta0, float)

    def test_readme_sample_loads(self, tmp_path):
        """The README's sample, inline comments and all, sets every value it
        shows, also after a UTF-8 byte-order mark, and names every field of
        [dip], [tikhonov] and [gn] but ``beta0``, whose default (estimate it)
        has no INI spelling."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        config = _load_config(cfg)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert _load_config(cfg) == config
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

    @given(text=_INI)
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_any_text_reads_as_a_config_or_one_typed_refusal(self, tmp_path_factory, text):
        """Drawn INI text gives every section's config, a ParseError naming a
        line of the file, or a ValueError naming the section or key it
        refuses; no other exception, and no warning."""
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_bytes(text.encode())
        try:
            config = _load_config(path)
        except ParseError as e:
            assert 1 <= e.line_no <= 1 + text.count("\n") + text.count("\r"), e  # \r ends one too
            return
        except ValueError as e:
            assert str(e).startswith("unknown config section ["), e
            return
        for name in _SECTIONS:
            try:
                _section(name, {}, config)
            except ValueError as e:
                assert str(e).startswith((f"{name}.", f"{name}:", f"unknown key {name}.")), e

    @given(section=_SCENARIO)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_any_scenario_section_builds_a_scenario_or_one_refusal(self, section):
        """Drawn [scenario] values give a scenario or a ValueError naming the
        section; a dip of 5e-324 once ended in a ZeroDivisionError."""
        try:
            assert isinstance(_scenario({}, {"scenario": section}), ScenarioSpec)
        except ValueError as e:
            assert "scenario" in str(e), e

    def test_bad_value_is_usage_error(self):
        refused([*_CONV, "--case", "1", "--config", "{tmp}/run.cfg"], 1, "beta0",
                {"run.cfg": "[gn]\nbeta0 = abc\n"})

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
        ("gn", "beta0", "0"), ("dip", "chi_stop", "inf"), ("dip", "tau", "5%"),
        ("dip", "tau", "%(lr)s")])
    def test_out_of_range_value_is_usage_error(self, section, key, value):
        """A value its config rejects, a key it lacks, or a section that fills
        no config, exits 1 before the run starts, naming the key or section."""
        err = refused([*(_DIP if section == "dip" else _CONV), "--config", "{tmp}/run.cfg"], 1,
                      "invalid arguments: ", {"run.cfg": f"[{section}]\n{key} = {value}\n"})
        assert (key if section in _SECTIONS else f"[{section}]") in err

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--noise", "nan"],
                                       ["--noise", "inf"]])
    def test_scenario_value_it_rejects_is_usage_error(self, flags):
        """The scenario values a manifest refuses with exit 3 exit 1 as flags."""
        refused([*_CONV, *flags], 1, ("invalid arguments: scenario", "noise_"))

    def test_edge_values_stay_valid(self):
        """The boundary values the tests, the README and the benchmark use."""
        gn = _section("gn", {}, {"gn": {"cg_tol": "0", "line_search_max": "0",
                                        "target_chi": "0"}})
        assert (gn.cg_tol, gn.line_search_max, gn.target_chi) == (0.0, 0, 0.0)
        dip = _section("dip", {}, {"dip": {"epochs_stage1": "0", "epochs_stage2": "0",
                                           "adam_beta1": "0", "stage1_tol": "0"}})
        assert (dip.epochs_stage1, dip.epochs_stage2, dip.adam_beta1) == (0, 0, 0.0)


_NO_ALPHA = "alpha_s, alpha_x and alpha_z are all 0, so beta0 cannot be estimated"


class TestInputChecks:
    @pytest.mark.parametrize("argv, cfg, patch, code, message", [
        ([*_DIP, "--dropout", "1.5"], "", {}, 1, "dropout_rate must be in [0, 1), got 1.5"),
        ([*_CONV, "--ps", "3"], "", {}, 1, "p_s must be in [0, 2], got 3.0"),
        ([*_CONV, "--config", "{tmp}/run.cfg"], "[gn]\nbeta0_ratio = 0\n", {}, 1,
         "beta0_ratio must be in (0, inf), got 0.0"),
        (["simulate", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o"], "[scenario]\ncase = 3\n",
         {}, 1, "scenario case must be one of"),
        (["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm", "--upscale", "0"], "", {},
         1, "upscale must be >= 1"),
        (["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm", "--pad-x", "1"], "", {},
         1, "padding counts exceed the grid"),
        ([*_CONV, "--alpha-s", "0", "--alpha-x", "0", "--alpha-z", "0"], "", {}, 1, _NO_ALPHA),
        (REPLAY, "", {"config.reg.alpha_s": 0.0, "config.reg.alpha_x": 0.0,
                      "config.reg.alpha_z": 0.0}, 3, _NO_ALPHA),
        (REPLAY, "", {"scenario.dike": [0.0, 15.0, 80.0, 20.0, 90.0]}, 3,
         "dike extends below the core mesh"),
    ], ids=["dropout", "norm", "beta0_ratio", "case", "upscale", "pad-x", "alphas",
            "alphas-manifest", "dike-manifest"])
    def test_a_value_its_check_refuses_exits_and_writes_nothing(self, argv, cfg, patch, code,
                                                                message):
        """Checks that the other tests never reach, each through the input
        that reaches it: a flag, an INI key, a grid command or a manifest."""
        stored = stored_run("conventional")
        for path, value in patch.items():
            _with(stored, path, value)
        refused(argv, code, message, {"run.cfg": cfg, "m.json": stored, **GRID})

    @pytest.mark.parametrize("via", ["flag", "ini", "manifest"])
    @pytest.mark.parametrize("dip, message", [
        ("5e-324", "dike at dip 5e-324 extends outside the core mesh"),
        ("2.2", "dike at dip 2.2 extends outside the core mesh"),
        ("0", "dip_degrees must be in (0, 90], got 0.0")], ids=["5e-324", "2.2", "0"])
    def test_a_dip_the_dike_refuses_names_scenario_and_dip(self, via, dip, message):
        """A dip that the config reads but the dike refuses exits 1 as a flag
        or INI key and 3 in a replayed manifest, in one line naming the
        section and the dip.  5e-324 degrees is 0 radians, whose tangent
        the dike's run once divided by."""
        if via == "manifest":
            stored = _with(stored_run("simulate"), "scenario.dike[4]", float(dip))
            refused(REPLAY, 3, f"manifest error: {{tmp}}/m.json: scenario: {message}",
                    {"m.json": stored})
        else:
            argv = ["simulate", "--scale", "desk", "--out", "{tmp}/o",
                    *(["--dip", dip] if via == "flag" else ["--config", "{tmp}/run.cfg"])]
            refused(argv, 1, f"invalid arguments: scenario.dip: {message}",
                    {"run.cfg": f"[scenario]\ndip = {dip}\n"})

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

    @pytest.mark.parametrize("section, key, code, err, header_end", [
        ("gn", "beta0", 0, "", "converged=0 stop=line_search"),
        ("tikhonov", "alpha_s", 2, "numerical failure: estimated beta0 is 0.0; check alphas\n",
         None),
        ("gn", "cg_tol", 0, "", "converged=1 stop=target_chi")], ids=["beta0", "alpha_s", "cg_tol"])
    def test_an_overflow_in_gauss_newton_prints_no_numpy_warning(
            self, tmp_path, capsys, section, key, code, err, header_end):
        """Each value of 1e308 overflowed in Gauss-Newton, printed numpy
        RuntimeWarnings and exited 0; alpha_s did so with beta0 estimated as
        0 and the start model.  Now a step that overflows fails its line
        search, and an estimated beta0 that is 0 is a numerical failure."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = 1e308\n")
        out = tmp_path / "o"
        assert main(["invert-conv", "--scale", "desk", "--config", str(cfg),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        if header_end:
            assert (out / "trace.txt").read_text().splitlines()[0].endswith(header_end)

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

    def test_a_range_narrower_than_the_grid_draws_without_a_warning(self, tmp_path, capsys):
        """Normalizing by vmax - vmin = 5e-324 overflows for every cell above
        vmin; those cells take the ramp's top end, and no numpy warning leaks
        (the suite turns one into an error)."""
        save_grid(tmp_path / "g.txt", np.array([0.0, 0.5, 1.0, 0.25]), nx=2, nz=2)
        assert main(["render", "--grid", str(tmp_path / "g.txt"), "--out",
                     str(tmp_path / "g.ppm"), "--vmin", "0", "--vmax", "5e-324"]) == 0
        assert capsys.readouterr().err == ""
        image = read_ppm(tmp_path / "g.ppm")
        assert [tuple(int(v) for v in px) for px in image.reshape(-1, 3)] == [
            ramp_color(0.0), ramp_color(1.0), ramp_color(1.0), ramp_color(1.0)]

    def test_a_grid_wider_than_the_float_range_draws_its_ramp(self, tmp_path, capsys):
        """max - min = 2e308 overflows to inf: it drew NaN pixels after two
        numpy warnings (the suite turns one into an error)."""
        save_grid(tmp_path / "g.txt", np.array([1e308, -1e308, 0.0]), nx=3, nz=1)
        assert main(["render", "--grid", str(tmp_path / "g.txt"), "--out",
                     str(tmp_path / "g.ppm")]) == 0
        assert capsys.readouterr().err == ""
        image = read_ppm(tmp_path / "g.ppm")
        assert [tuple(int(v) for v in px) for px in image.reshape(-1, 3)] == [
            ramp_color(1.0), ramp_color(0.0), ramp_color(0.5)]

    def test_a_negative_limit_in_exponent_notation_is_a_number(self, tmp_path):
        """argparse took `-4.5e0` for a flag and exited 1 (`expected one argument`)."""
        save_grid(tmp_path / "g.txt", np.array([-4.0, -3.5, -5.0, -3.0]), nx=2, nz=2)
        for name, limits in (("a", ["-4.5", "-3"]), ("b", ["-4.5e0", "-3e0"])):
            assert main(["render", "--grid", str(tmp_path / "g.txt"), "--out",
                         str(tmp_path / f"{name}.ppm"), "--vmin", limits[0],
                         "--vmax", limits[1]]) == 0
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    @pytest.mark.parametrize("limits", [["--vmin", "nan"], ["--vmax", "inf"],
                                        ["--vmin", "5", "--vmax", "1"], ["--vmin", "2"]])
    def test_limits_it_cannot_honour_are_usage_errors(self, limits):
        refused(["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm", *limits], 1,
                "invalid arguments: colour limits must ", GRID)


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

    def test_checkpoint_of_another_architecture_is_io_error(self):
        """A 1-block checkpoint given to a 3-block run is refused, not cropped."""
        err = refused(["invert-dip", "--case", "1", "--scale", "desk", "--blocks", "3",
                       "--out", "{tmp}/second", "--pretrained", "{tmp}/first.npz"], 3,
                      "channels [64] != [64, 32, 8]",
                      {"first.npz": lambda path: save_params(
                          path, init_params(0, arch_for_mesh(19, 64, n_blocks=1)))})
        assert "seed_shape" in err

    def test_text_file_as_checkpoint_is_io_error(self):
        refused([*_DIP, "--case", "1", "--pretrained", "{tmp}/notes.txt"], 3,
                "checkpoint {tmp}/notes.txt is not an .npz archive",
                {"notes.txt": "not a checkpoint\n"})

    def test_npz_without_architecture_is_io_error(self):
        refused([*_DIP, "--case", "1", "--pretrained", "{tmp}/noarch.npz"], 3,
                "checkpoint {tmp}/noarch.npz has no __arch__",
                {"noarch.npz": lambda path: np.savez(path, w=np.zeros(3))})

    @pytest.mark.parametrize("name, spoil", [("conv1.k", lambda a: a[..., :2]),
                                             ("fc.w", lambda a: a * np.nan),
                                             ("out.k", lambda a: a.astype(np.float32))])
    def test_checkpoint_arrays_that_do_not_fit_exit_3(self, name, spoil):
        """A 3x2 kernel ran to exit 0, and a NaN weight exited 1 and left the
        output directory behind."""
        params = init_params(0, arch_for_mesh(19, 64))
        refused([*_DIP, "--epochs", "1", "--pretrained", "{tmp}/ck.npz"], 3,
                f"checkpoint error: checkpoint {{tmp}}/ck.npz: {name} ",
                {"ck.npz": lambda path: np.savez(
                    path, __arch__=np.array(json.dumps(params.arch.to_dict())),
                    **{**params.arrays, name: spoil(params.arrays[name])})})

    @pytest.mark.parametrize("field, value, message", [
        ("latent_dim", 0, "__arch__: latent_dim must be in [1, inf), got 0"),
        ("seed_shape", [0, 34], "__arch__: seed_shape must be two positive integers"),
        ("seed_shape", [5], "__arch__.seed_shape must hold 2 values, got 1"),
        ("channels", 64, "__arch__.channels must be a list, got 64")],
        ids=["latent_dim-0", "seed_shape-0-34", "seed_shape-5", "channels-64"])
    def test_checkpoint_architecture_it_refuses_exits_3(self, field, value, message):
        params = init_params(0, arch_for_mesh(19, 64))
        refused([*_DIP, "--epochs", "1", "--pretrained", "{tmp}/ck.npz"], 3,
                f"checkpoint error: checkpoint {{tmp}}/ck.npz: {message}\n",
                {"ck.npz": lambda path: np.savez(path, **params.arrays, __arch__=np.array(
                    json.dumps({**params.arch.to_dict(), field: value})))})
