import numpy as np
import pytest

from dcinv.ablation import run_ablation, suite_variants
from dcinv.dip import DipConfig
from dcinv.errors import NumericalFailure, SolverFailure
from dcinv.runs import DipRun
from dcinv.scenarios import build_case1


class TestSuiteVariants:
    def test_blocks_suite_is_1_3_5(self):
        cfg = DipConfig(dropout_rate=0.1)
        variants = suite_variants("blocks", cfg)
        assert [v[1].n_blocks for v in variants] == [1, 3, 5]
        # block-count comparison runs without dropout
        assert all(v[2].dropout_rate == 0.0 for v in variants)

    def test_upsampler_suite(self):
        variants = suite_variants("upsampler", DipConfig())
        assert [v[1].upsampler for v in variants] == [
            "bilinear", "nearest", "transposed"]

    def test_dropout_suite(self):
        variants = suite_variants("dropout", DipConfig())
        assert [v[2].dropout_rate for v in variants] == [0.0, 0.1]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_variants("kernels", DipConfig())


class TestRunAblation:
    def test_emits_table_and_per_run_outputs(self, tmp_path):
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(epochs_stage1=150, epochs_stage2=3, tau=50.0)
        rows = run_ablation(["dropout"], spec, cfg, str(tmp_path))
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        assert all(np.isfinite(r["chi"]) for r in rows)
        assert all(np.isfinite(r["rmse"]) for r in rows)
        assert all(np.isfinite(r["smoothness"]) for r in rows)
        summary = (tmp_path / "summary.txt").read_text()
        assert "chi" in summary and "rmse" in summary and "smoothness" in summary
        for label in ("dropout-0", "dropout-0.1"):
            assert (tmp_path / label / "trace.txt").exists()
            assert (tmp_path / label / "model.txt").exists()
        # all variants invert the same shared data realization
        assert (tmp_path / "data" / "data.txt").exists()

    @staticmethod
    def _first_dip_run_raises(monkeypatch, error):
        import dcinv.ablation as ab

        calls = {"n": 0}
        real = ab.execute

        def flaky(run):
            if isinstance(run, DipRun):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise error
            return real(run)

        monkeypatch.setattr(ab, "execute", flaky)

    def test_failure_recorded_suite_continues(self, tmp_path, monkeypatch):
        self._first_dip_run_raises(monkeypatch, NumericalFailure("synthetic failure"))
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(epochs_stage1=100, epochs_stage2=2, tau=50.0)
        rows = run_ablation(["dropout"], spec, cfg, str(tmp_path))
        assert rows[0]["status"] == "failed: NumericalFailure: synthetic failure"
        assert rows[1]["status"] == "ok"
        assert np.isnan(rows[0]["chi"])

    def test_a_failed_solve_is_recorded_under_its_own_name(self, tmp_path, monkeypatch):
        """A SolverFailure is a NumericalFailure, and its row still names it."""
        self._first_dip_run_raises(monkeypatch, SolverFailure("singular operator"))
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(epochs_stage1=100, epochs_stage2=2, tau=50.0)
        rows = run_ablation(["dropout"], spec, cfg, str(tmp_path))
        assert [r["status"] for r in rows] == ["failed: SolverFailure: singular operator", "ok"]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        """Only numerical failures become rows; anything else is a bug to surface."""
        self._first_dip_run_raises(monkeypatch, TypeError("synthetic bug"))
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(epochs_stage1=100, epochs_stage2=2, tau=50.0)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_ablation(["dropout"], spec, cfg, str(tmp_path))
