import numpy as np

from dcinv.cli import _apply_section, main
from dcinv.fileio import load_data, load_manifest
from dcinv.trace import load_grid


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
        assert "no 'scenario' entry" in capsys.readouterr().err

    def test_manifest_of_the_wrong_type_is_io_error(self, tmp_path, capsys):
        manifest = tmp_path / "list.json"
        manifest.write_text("[1, 2]\n")
        code = main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "must be a JSON object, got list" in capsys.readouterr().err


class TestConfigFile:
    def test_optional_float_is_coerced_from_field_type(self):
        """[gn] beta0 defaults to None; a config value still becomes a float."""
        from dcinv.tikhonov import GNConfig
        gn = _apply_section(GNConfig(), {"beta0": "1000"})
        assert gn.beta0 == 1000.0 and isinstance(gn.beta0, float)

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[gn]\nbeta0 = abc\n")
        code = main(["invert-conv", "--case", "1", "--scale", "desk",
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "beta0" in capsys.readouterr().err


class TestCheck:
    def test_self_tests_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


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
