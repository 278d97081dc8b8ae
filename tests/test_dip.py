from dataclasses import replace

import numpy as np
import pytest

import dcinv
from dcinv.dip import (DipConfig, beta, chi_factor, invert_stage2, pretrain_stage1,
                       surrogate_loss)
from dcinv.errors import NumericalFailure, SolverFailure
from dcinv.forward import DataWeights, DCSimulation, phi_d, weights_from_std
from dcinv.mesh import build_mesh
from dcinv.net import arch_for_mesh, init_params, net_forward, sample_latent

from helpers import Traffic, tiny_dc_problem


class TestBetaSchedule:
    def test_endpoints(self):
        assert beta(0, 1000.0) == 1.0
        assert np.isclose(beta(1000.0, 1000.0), np.exp(-1.0), rtol=1e-15)

    def test_case1_setting(self):
        assert np.isclose(beta(1000, 1000.0), np.exp(-1.0))

    def test_strictly_decreasing(self):
        vals = [beta(t, 1000.0) for t in range(0, 10_000, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestChiFactor:
    def test_perfect_fit(self):
        w = DataWeights(values=np.ones(4))
        d = np.arange(4.0)
        assert chi_factor(d, d, w) == 0.0

    def test_unit_weighted_residuals(self):
        w = DataWeights(values=np.array([2.0, 4.0]))
        d_obs = np.zeros(2)
        d_pred = 1.0 / w.values
        assert np.isclose(chi_factor(d_pred, d_obs, w), 1.0)

    def test_double_residuals(self):
        w = DataWeights(values=np.ones(3))
        assert np.isclose(chi_factor(np.full(3, 2.0), np.zeros(3), w), 4.0)


class TestSurrogateLoss:
    def test_pure_l1_at_beta_one(self):
        m = np.array([1.0, -2.0, 0.5])
        m_ref = np.zeros(3)
        value, grad = surrogate_loss(m, np.ones(3), 1.0, m_ref)
        assert np.isclose(value, 3.5)
        assert np.array_equal(grad, np.sign(m))

    def test_pure_data_term_at_beta_zero(self):
        m = np.zeros(3)
        jv = np.array([0.0, 1.0, 0.0])
        value, grad = surrogate_loss(m, jv, 0.0, np.zeros(3))
        assert value == 0.0
        assert np.array_equal(grad, jv)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            surrogate_loss(np.zeros(3), np.zeros(4), 0.5, np.zeros(3))

    @pytest.mark.parametrize("n_ref", [1, 4])
    def test_reference_of_another_length(self, n_ref):
        """A one-entry m_ref would broadcast; it is refused all the same."""
        with pytest.raises(ValueError, match="equal length"):
            surrogate_loss(np.zeros(3), np.zeros(3), 0.5, np.zeros(n_ref))


class TestPretrainStage1:
    def test_reaches_threshold(self):
        mesh = build_mesh(20, 8, 5.0, 5.0, 2, 1.5)
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        cfg = DipConfig(epochs_stage1=4000, stage1_tol=0.05)
        pretrain_stage1(params, z, mesh, cfg)
        m, _ = net_forward(params, z, mesh.shape)
        assert np.abs(m - cfg.m_ref).mean() <= 0.05

    def test_immediate_stop_when_already_fit(self):
        mesh = build_mesh(12, 6, 5.0, 5.0, 1, 1.5)
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        cfg = DipConfig(epochs_stage1=3000, stage1_tol=0.05)
        pretrain_stage1(params, z, mesh, cfg)
        snapshot = {k: v.copy() for k, v in params.arrays.items()}
        pretrain_stage1(params, z, mesh, cfg)  # second call: below tol already
        for key in snapshot:
            assert np.array_equal(snapshot[key], params.arrays[key])

    def test_deterministic_given_seed(self):
        mesh = build_mesh(10, 5, 5.0, 5.0, 1, 1.5)
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        z = sample_latent(0, 8)
        cfg = DipConfig(epochs_stage1=150, stage1_tol=0.0001)
        a = init_params(7, arch)
        b = init_params(7, arch)
        pretrain_stage1(a, z, mesh, cfg)
        pretrain_stage1(b, z, mesh, cfg)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])


    def test_a_diverged_loss_is_a_numerical_failure(self):
        """A learning rate that blows the generator up stops stage 1 at the
        first loss that is not finite."""
        mesh = build_mesh(12, 6, 5.0, 5.0, 1, 1.5)
        params = init_params(0, arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2))
        with pytest.raises(NumericalFailure, match="^stage-1 loss is not finite$"):
            pretrain_stage1(params, sample_latent(0, 8), mesh,
                            DipConfig(stage1_lr=1e150, epochs_stage1=50))


def _generated_models(monkeypatch) -> list:
    """Copies of every model ``dcinv.dip`` takes from the generator, in order."""
    models, forward = [], dcinv.dip.net_forward

    def recorded(*args, **kwargs):
        m, tr = forward(*args, **kwargs)
        models.append(m.copy())
        return m, tr

    monkeypatch.setattr(dcinv.dip, "net_forward", recorded)
    return models


class TestInvertStage2:
    def _setup(self, noise_seed=0):
        mesh, survey, sim = tiny_dc_problem(n_core_x=16, n_core_z=6, n_pad=2,
                                            line=60.0, spacing=10.0)
        truth = np.full(mesh.n_cells, np.log(0.01))
        d_clean = sim.predict(truth)
        return mesh, survey, sim, truth, d_clean

    def test_zero_epochs_returns_pretrained_output(self):
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        cfg = DipConfig(epochs_stage2=0)
        m_before, _ = net_forward(params, z, mesh.shape)
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)
        assert len(trace.records) == 0
        assert np.array_equal(trace.final_model, m_before)

    @pytest.mark.parametrize("epochs, chi_stop, patience, n_records, converged", [
        (6, 1e300, 2, 2, True), (3, 1e300, 50, 3, True), (3, 0.0, 50, 3, False),
        (0, 1e300, 50, 0, False)], ids=["patience", "budget-under-chi-stop",
                                        "budget-over-chi-stop", "no-epochs"])
    def test_converged_is_the_last_chi_against_chi_stop(self, epochs, chi_stop, patience,
                                                        n_records, converged):
        """Reaching the patience and spending the budget with a last chi at
        or under chi_stop both converge; a run with no records does not."""
        mesh, survey, sim, truth, d_clean = self._setup()
        params = init_params(0, arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2))
        cfg = DipConfig(epochs_stage2=epochs, chi_stop=chi_stop, chi_patience=patience)
        trace = invert_stage2(params, sample_latent(0, 8), mesh, survey, d_clean,
                              weights_from_std(0.05 * np.abs(d_clean)), cfg)
        assert len(trace.records) == n_records
        assert trace.converged == converged

    def test_easy_inversion_converges(self):
        """Zero-noise data from the reference half-space: chi falls to ~0
        because the start model already fits after stage 1."""
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        cfg = DipConfig(epochs_stage1=4000, epochs_stage2=200, tau=50.0,
                        lr=1e-3, chi_stop=1.0, chi_patience=5)
        pretrain_stage1(params, z, mesh, cfg)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)
        assert min(r.chi for r in trace.records) <= 1.0
        assert trace.converged

    def test_trace_misfit_matches_stored_models(self, monkeypatch):
        """Recorded phi_d always equals phi_d recomputed from the model the
        generator gave that epoch (no stale caching)."""
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2, dropout_rate=0.2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean) + 1e-9)
        cfg = DipConfig(epochs_stage2=8, dropout_rate=0.2, rng_seed=3)
        models = _generated_models(monkeypatch)
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)
        assert len(models) == len(trace.records) + 1  # each epoch's, then the final one
        check = DCSimulation(mesh, survey)
        for rec, m in zip(trace.records, models):
            assert np.isclose(rec.phi_d, phi_d(check.predict(m), d_clean, weights),
                              rtol=1e-10)

    def test_models_stay_in_range(self, monkeypatch):
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(1, arch)
        z = sample_latent(1, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        cfg = DipConfig(epochs_stage2=10)
        models = _generated_models(monkeypatch)
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)
        assert len(models) == 11 and np.array_equal(models[-1], trace.final_model)
        for m in models:
            assert np.all(m > -8.0)
            assert np.all(m < 0.0)

    def test_bit_reproducible_without_dropout(self):
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        z = sample_latent(0, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        cfg = DipConfig(epochs_stage2=12)

        def run():
            params = init_params(5, arch)
            return invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)

        a, b = run(), run()
        assert np.array_equal(a.final_model, b.final_model)
        assert [r.phi_d for r in a.records] == [r.phi_d for r in b.records]

    def test_one_matrix_free_product_per_epoch(self, monkeypatch):
        """Each epoch is a new model needing one J^T v, so stage 2 never
        forms J: one solve, one predict and one jt_vec per epoch."""
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        traffic = Traffic(monkeypatch)
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights,
                              DipConfig(epochs_stage2=5))
        assert len(trace.records) == 5
        assert traffic.calls == {"predict": 5, "jt_vec": 5, "jacobian": 0,
                                 "resistances": 5, "solve": 5}

    @pytest.mark.parametrize("epochs, message", [(20, "epoch 2: model is not finite"),
                                                 (1, "final model is not finite")])
    def test_a_diverged_model_is_a_numerical_failure(self, epochs, message):
        """A learning rate that blows the generator up stops the run at the
        first model that is not finite, naming its epoch.  Before, the forward
        operator's input check refused it as a bad argument, and a model that
        the last step spoilt was returned as the result."""
        mesh, survey, sim, truth, d_clean = self._setup()
        params = init_params(0, arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2))
        weights = weights_from_std(0.05 * np.abs(d_clean))
        with (np.errstate(all="ignore"), pytest.raises(NumericalFailure, match=f"^{message}$")):
            invert_stage2(params, sample_latent(0, 8), mesh, survey, d_clean, weights,
                          DipConfig(lr=1e150, epochs_stage2=epochs))

    def test_an_overflowing_misfit_is_a_numerical_failure(self):
        """Observed data of 1e200 overflow the misfit of a finite model and
        its finite prediction: the run stops at the epoch it happened in."""
        mesh, survey, sim, truth, d_clean = self._setup()
        params = init_params(0, arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2))
        with pytest.raises(NumericalFailure, match="^epoch 1: loss is not finite$"):
            invert_stage2(params, sample_latent(0, 8), mesh, survey, np.full_like(d_clean, 1e200),
                          weights_from_std(0.05 * np.abs(d_clean)), DipConfig(epochs_stage2=3))

    def test_a_failed_solve_names_its_epoch(self):
        """A generator whose output underflows the conductivity to zero makes
        a singular operator; the failure names the epoch it happened in."""
        spec, truth = dcinv.build_case1(45.0, "desk")
        mesh, survey = spec.mesh(), spec.survey()
        d = DCSimulation(mesh, survey).predict(truth)
        arch = replace(arch_for_mesh(mesh.nz, mesh.nx), output_scale=-1600.0)
        params = init_params(0, arch)
        with (np.errstate(all="ignore"),
              pytest.raises(SolverFailure, match="^epoch 1: singular operator in cell column 0 ")):
            invert_stage2(params, sample_latent(0, 8), mesh, survey, d,
                          weights_from_std(0.05 * np.abs(d)), DipConfig(epochs_stage2=3))

    @pytest.mark.parametrize("arch_rate, config_rate", [(0.0, 0.1), (0.2, 0.0), (0.1, 0.2)])
    def test_a_dropout_rate_that_is_not_the_architectures_is_refused(self, arch_rate,
                                                                     config_rate):
        """Stage 2 trains the generator it is given: a config whose dropout
        rate is not the architecture's is refused, not patched over."""
        mesh, survey, sim, truth, d_clean = self._setup()
        params = init_params(0, arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2,
                                              dropout_rate=arch_rate))
        with pytest.raises(ValueError, match="dropout rate"):
            invert_stage2(params, sample_latent(0, 8), mesh, survey, d_clean,
                          weights_from_std(0.05 * np.abs(d_clean)),
                          DipConfig(epochs_stage2=1, dropout_rate=config_rate))

    def test_epoch_weight_of_data_term_grows(self):
        mesh, survey, sim, truth, d_clean = self._setup()
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        weights = weights_from_std(0.05 * np.abs(d_clean))
        cfg = DipConfig(epochs_stage2=30, tau=10.0)
        trace = invert_stage2(params, z, mesh, survey, d_clean, weights, cfg)
        betas = [r.beta for r in trace.records]
        assert all(a > b for a, b in zip(betas, betas[1:]))


@pytest.mark.parametrize("field, value", [("rng_seed", -1), ("tau", np.inf), ("lr", np.nan),
                                          ("adam_eps", np.inf), ("stage1_tol", np.nan),
                                          ("chi_stop", np.inf), ("stage1_lr", np.inf)])
def test_config_rejects_what_a_run_cannot_use(field, value):
    """Seeds are >= 0 and every number is finite: NaN fails every check."""
    with pytest.raises(ValueError, match=field):
        DipConfig(**{field: value})
