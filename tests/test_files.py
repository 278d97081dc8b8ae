import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv.errors import ParseError
from dcinv.fileio import load_config, load_data, save_data
from dcinv.render import render_grid
from dcinv.survey import build_dipole_dipole_survey
from dcinv.trace import (EpochRecord, InversionTrace, load_grid, load_trace,
                         save_grid, save_trace)

from helpers import ramp_color, read_ppm


class TestDataFile:
    def test_round_trip_byte_identical(self, tmp_path):
        """Write -> read -> write reproduces the file byte for byte, also from a
        copy that starts with a UTF-8 byte-order mark."""
        survey = build_dipole_dipole_survey(150.0, 25.0, 4, x0=-75.0)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(survey.n_data) * 7.3
        std = 0.05 * np.abs(values)
        p1 = tmp_path / "data1.txt"
        p2 = tmp_path / "data2.txt"
        save_data(p1, survey, values, std)
        back_survey, back_values, back_std = load_data(p1)
        assert back_survey.n_data == survey.n_data
        assert np.array_equal(back_values, values)
        assert np.array_equal(back_std, std)
        save_data(p2, back_survey, back_values, back_std)
        assert p1.read_bytes() == p2.read_bytes()
        p2.write_bytes(b"\xef\xbb\xbf" + p1.read_bytes())
        save_data(p2, *load_data(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        survey = build_dipole_dipole_survey(100.0, 25.0, 4)
        p = tmp_path / "d.txt"
        save_data(p, survey, np.ones(survey.n_data), np.ones(survey.n_data))
        assert p.read_text().startswith("# dcinv data v1 n_data=3\n")

    def test_length_mismatch(self, tmp_path):
        survey = build_dipole_dipole_survey(100.0, 25.0, 4)
        with pytest.raises(ValueError):
            save_data(tmp_path / "d.txt", survey, np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad_line", ["-25 0 25 50 abc 0.1", "-25 0 25 50 1.0",
                                          "-25 0 25 50 nan 0.1", "-25 0 25 50 1.0 inf",
                                          "1e400 0 25 50 1.0 0.1", "-25 -25 25 50 1.0 0.1",
                                          "-25 0 50 50 1.0 0.1", "-25 0 25 50 1.0 -0.1",
                                          "# n_data=3", "# n_data="])
    def test_parse_error_carries_line_number(self, tmp_path, bad_line):
        p = tmp_path / "d.txt"
        p.write_text(f"# dcinv data v1 n_data=2\n-25 0 25 50 1.0 0.1\n\n{bad_line}\n")
        with pytest.raises(ParseError) as exc:
            load_data(p)
        assert (exc.value.line_no, exc.value.path) == (4, p)

    def test_no_data_rows_is_parse_error(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# dcinv data v1 n_data=0\n")
        with pytest.raises(ParseError):
            load_data(p)


class TestGridFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(12)
        p = tmp_path / "grid.txt"
        save_grid(p, values, nx=4, nz=3)
        back, nx, nz = load_grid(p)
        assert (nx, nz) == (4, 3)
        assert np.array_equal(back, values)

    def test_row_major_layout(self, tmp_path):
        p = tmp_path / "grid.txt"
        save_grid(p, np.arange(6.0), nx=3, nz=2)
        lines = [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "3 2"
        assert lines[1].split() == ["0.0", "1.0", "2.0"]

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# dcinv grid v1\n3 2\n0 1 2\n0 oops 2\n")
        with pytest.raises(ParseError) as exc:
            load_grid(p)
        assert (exc.value.line_no, exc.value.path) == (4, p)

    def test_wrong_row_length(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 2\n0 1 2\n0 1\n")
        with pytest.raises(ParseError):
            load_grid(p)

    @pytest.mark.parametrize("bad_line", ["0 nan 2", "0 inf 2", "0 1e400 2"])
    def test_non_finite_value_is_parse_error(self, tmp_path, bad_line):
        p = tmp_path / "bad.txt"
        p.write_text(f"# dcinv grid v1\n3 2\n0 1 2\n{bad_line}\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            load_grid(p)
        assert exc.value.line_no == 4


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        trace = InversionTrace(records=[
            EpochRecord(epoch=1, beta=0.9, phi_d=10.0, phi_m=1.5, chi=2.0),
            EpochRecord(epoch=2, beta=0.8, phi_d=5.0, phi_m=1.25, chi=1.0),
        ], converged=True)
        p = tmp_path / "trace.txt"
        save_trace(p, trace, method="dip")
        back = load_trace(p)
        assert back.converged
        assert len(back.records) == 2
        assert back.records[1].phi_d == 5.0
        assert back.records[0].beta == 0.9
        assert back.stop_reason == ""

    def test_stop_reason_round_trip(self, tmp_path):
        trace = InversionTrace(records=[
            EpochRecord(epoch=1, beta=0.9, phi_d=10.0, phi_m=1.5, chi=2.0)],
            stop_reason="line_search")
        p = tmp_path / "trace.txt"
        save_trace(p, trace, method="conventional")
        assert p.read_text().splitlines()[0].endswith("converged=0 stop=line_search")
        back = load_trace(p)
        assert back.stop_reason == "line_search"
        assert not back.converged

    def test_header_without_stop_reason_loads(self, tmp_path):
        p = tmp_path / "trace.txt"
        p.write_text("# dcinv trace v1 method=dip converged=1\n"
                     "# epoch beta phi_d phi_m chi\n1 0.5 2.0 0.1 1.0\n")
        back = load_trace(p)
        assert back.converged and back.stop_reason == ""
        assert len(back.records) == 1

    @pytest.mark.parametrize("header", ["method=dip converged=", "method=gn converged=0 stop=",
                                        "method=gn converged= stop=budget"])
    def test_header_key_without_value_is_parse_error(self, tmp_path, header):
        p = tmp_path / "trace.txt"
        p.write_text(f"# dcinv trace v1 {header}\n# epoch beta phi_d phi_m chi\n")
        with pytest.raises(ParseError, match="has no value") as exc:
            load_trace(p)
        assert (exc.value.line_no, exc.value.path) == (1, p)

    @pytest.mark.parametrize("bad_line", ["1 0.5 2.0", "1 0.5 2.0 0.1 nan-ish",
                                          "1 0.5 2.0 0.1 inf", "1.5 0.5 2.0 0.1 1.0",
                                          "# converged=2"])
    def test_parse_error_carries_line_number(self, tmp_path, bad_line):
        p = tmp_path / "trace.txt"
        p.write_text(f"# dcinv trace v1 method=dip converged=0\n"
                     f"# epoch beta phi_d phi_m chi\n1 0.5 2.0 0.1 1.0\n{bad_line}\n")
        with pytest.raises(ParseError) as exc:
            load_trace(p)
        assert (exc.value.line_no, exc.value.path) == (4, p)

    def test_byte_stable(self, tmp_path):
        trace = InversionTrace(records=[
            EpochRecord(epoch=1, beta=1 / 3, phi_d=np.pi, phi_m=0.1, chi=0.7)])
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_trace(p1, trace, method="x")
        save_trace(p2, load_trace(p1), method="x")
        assert p1.read_bytes() == p2.read_bytes()


# whole lines of each format, and lines of numbers, non-finite and malformed
# numbers, words, comments and header tokens
_LINES = ["# dcinv data v1 n_data=2", "-25 0 25 50 1.0 0.1", "0 25 50 75 -0.3 0",
          "25 25 0 50 1.0 0.1", "# dcinv grid v1", "1 1", "2 1", "0.5", "0.5 -1",
          "# dcinv trace v1 method=dip converged=1", "1 0.5 2.0 0.1 1.0"]
_TOKENS = ["0", "1", "2", "-1", "0.5", "nan", "inf", "-inf", "1e400", "abc", "0x10", "#",
           "=", "n_data=", "n_data=1", "converged=", "converged=yes", "stop=budget"]
_TEXTS = st.lists(st.one_of(st.sampled_from(_LINES),
                            st.lists(st.sampled_from(_TOKENS), max_size=7).map(" ".join)),
                  max_size=8).map("\n".join)


class TestGarbage:
    @given(text=_TEXTS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_loader_returns_or_raises_parse_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "garbage.txt"
        p.write_text(text + "\n")
        for load in (load_data, load_grid, load_trace):
            try:
                load(p)
            except ParseError:
                pass

    def test_binary_file_is_parse_error(self, tmp_path):
        p = tmp_path / "image.ppm"
        p.write_bytes(b"P6\n2 1\n255\n\x8c\x00\xff\x9c\x01\x02\n")
        for load in (load_data, load_grid, load_trace):
            with pytest.raises(ParseError) as exc:
                load(p)
            assert exc.value.line_no == 4  # its first byte that is not UTF-8


class TestConfigFile:
    def test_sections_and_keys(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[dip]\ntau = 300\nlr = 0.0001\n\n[tikhonov]\np_s = 0\n")
        cfg = load_config(p)
        assert cfg["dip"]["tau"] == "300"
        assert cfg["tikhonov"]["p_s"] == "0"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")


class TestRender:
    def test_constant_grid_single_color(self, tmp_path):
        grid = tmp_path / "g.txt"
        save_grid(grid, np.full(12, 1.5), nx=4, nz=3)
        out = tmp_path / "g.ppm"
        render_grid(grid, out)
        img = read_ppm(out)
        assert img.shape == (3, 4, 3)
        assert len(np.unique(img.reshape(-1, 3), axis=0)) == 1

    def test_endpoints_map_to_ramp_ends(self, tmp_path):
        grid = tmp_path / "g.txt"
        save_grid(grid, np.array([0.0, 0.5, 1.0, 0.25]), nx=2, nz=2)
        out = tmp_path / "g.ppm"
        render_grid(grid, out)
        img = read_ppm(out)
        assert tuple(img[0, 0]) == ramp_color(0.0) == (0, 0, 128)
        assert tuple(img[1, 0]) == ramp_color(1.0) == (128, 0, 0)

    def test_pixel_matches_ramp_arithmetic(self, tmp_path):
        values = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        grid = tmp_path / "g.txt"
        save_grid(grid, values, nx=3, nz=2)
        out = tmp_path / "g.ppm"
        render_grid(grid, out, vmin=0.0, vmax=1.0)
        img = read_ppm(out)
        for k, v in enumerate(values):
            i, j = divmod(k, 3)
            assert tuple(img[i, j]) == ramp_color(v)

    def test_upscale(self, tmp_path):
        grid = tmp_path / "g.txt"
        save_grid(grid, np.arange(4.0), nx=2, nz=2)
        out = tmp_path / "g.ppm"
        render_grid(grid, out, upscale=3)
        img = read_ppm(out)
        assert img.shape == (6, 6, 3)
        assert np.all(img[:3, :3] == img[0, 0])

    def test_core_outline(self, tmp_path):
        grid = tmp_path / "g.txt"
        save_grid(grid, np.full(7 * 5, 9.0), nx=7, nz=5)
        out = tmp_path / "g.ppm"
        render_grid(grid, out, pad_x=2, pad_z=1)
        img = read_ppm(out)
        assert tuple(img[0, 2]) == (0, 0, 0)  # top-left core corner
        assert tuple(img[3, 4]) == (0, 0, 0)  # bottom core row
        assert tuple(img[0, 0]) != (0, 0, 0)  # padding stays unmarked
