"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and asserts the same condition, so the module doubles as a
checklist: run ``pytest -v tests/test_acceptance.py``.
"""

import time

import numpy as np

from dcinv.ablation import SUITES, run_ablation
from dcinv.checks import (central_difference, check_adjoint, check_beta,
                          check_net_gradient, check_surrogate, rel_err)
from dcinv.dip import DipConfig, invert_stage2, pretrain_stage1
from dcinv.fileio import load_manifest
from dcinv.forward import DCSimulation, chi_factor, phi_d, weights_from_std
from dcinv.mesh import build_mesh
from dcinv.metrics import mean_abs_gradient
from dcinv.net import arch_for_mesh, init_params, net_forward, sample_latent
from dcinv.net import layers as L
from dcinv.runs import ArchChoice, DipRun, execute, replay
from dcinv.scenarios import add_noise, build_case1
from dcinv.survey import build_dipole_dipole_survey
from dcinv.tikhonov import (DifferenceOperators, GNConfig, RegularizationConfig,
                            gauss_newton_invert, phi_m, regularization_terms,
                            update_irls)

from helpers import param_count, pearson, tiny_dc_problem


def report(num, description, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
          f"{' — ' + detail if detail else ''}")
    assert ok, f"criterion {num}: {description} ({detail})"


class TestAcceptance:
    def test_01_parameter_count(self):
        """Default generator reports exactly 23055 trainable parameters."""
        arch = arch_for_mesh(32, 214, n_blocks=3)
        n = param_count(init_params(0, arch))
        report(1, "default architecture has 23055 trainable parameters",
               n == 23055, f"got {n}")

    def test_02_survey_count(self):
        """700 m line / 25 m spacing / 24 receivers gives exactly 348 data."""
        n = build_dipole_dipole_survey(700.0, 25.0, 24).n_data
        report(2, "dipole-dipole survey yields exactly 348 data",
               n == 348, f"got {n}")

    def test_03_adjoint_suite(self):
        """<Jw, v> = <w, J^T v> within 1e-8 relative over 50 random draws."""
        report(3, *check_adjoint())

    def test_04_gradient_suite(self):
        """Every layer and the end-to-end tiny net match central finite
        differences within 1e-6; phi_d and phi_m gradients within 1e-5."""
        rng = np.random.default_rng(1)
        worst_layer = 0.0

        # dense
        x = rng.standard_normal(4)
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        g = rng.standard_normal(5)
        gw, gb, gx = L.dense_backward(x, w, g)
        loss = lambda: float(g @ L.dense_forward(x, w, b))
        for an, var in ((gw, w), (gb, b), (gx, x)):
            worst_layer = max(worst_layer, rel_err(an, central_difference(loss, var, 1e-6)))

        # conv (valid), both kernels and input
        x = rng.standard_normal((1, 2, 6, 7))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        g = rng.standard_normal((1, 3, 4, 5))
        gk, gb, gx = L.conv2d_valid_backward(x, k, g)
        loss = lambda: float((g * L.conv2d_valid(x, k, b)).sum())
        for an, var in ((gk, k), (gb, b), (gx, x)):
            worst_layer = max(worst_layer, rel_err(an, central_difference(loss, var, 1e-6)))

        # transposed conv
        x = rng.standard_normal((1, 2, 3, 4))
        k = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal(3)
        g = rng.standard_normal((1, 3, 6, 8))
        gk, gb, gx = L.transposed_conv2_backward(x, k, g)
        loss = lambda: float((g * L.transposed_conv2(x, k, b)).sum())
        for an, var in ((gk, k), (gb, b), (gx, x)):
            worst_layer = max(worst_layer, rel_err(an, central_difference(loss, var, 1e-6)))

        # upsamplers
        x = rng.standard_normal((1, 2, 3, 4))
        g = rng.standard_normal((1, 2, 6, 8))
        for kind in ("bilinear", "nearest"):
            worst_layer = max(worst_layer, rel_err(
                L.upsample2_backward(g, kind),
                central_difference(lambda: float((g * L.upsample2(x, kind)).sum()), x, 1e-6)))

        # activations (inputs kept away from the leaky kink)
        x = rng.standard_normal((1, 1, 4, 5))
        x[np.abs(x) < 0.05] = 0.5
        g = rng.standard_normal(x.shape)
        worst_layer = max(worst_layer, rel_err(
            L.leaky_relu_backward(x, g),
            central_difference(lambda: float((g * L.leaky_relu(x)).sum()), x, 1e-6)))
        worst_layer = max(worst_layer, rel_err(
            L.sigmoid_backward(L.sigmoid(x), g),
            central_difference(lambda: float((g * L.sigmoid(x)).sum()), x, 1e-6)))

        # dropout with a frozen mask, and crop
        y, mask = L.dropout(x, 0.3, "train", np.random.default_rng(9))
        worst_layer = max(worst_layer, rel_err(
            L.dropout_backward(g, mask, 0.3),
            central_difference(lambda: float((g * x * mask).sum()) / 0.7, x, 1e-6)))
        gc = rng.standard_normal((1, 1, 3, 4))
        worst_layer = max(worst_layer, rel_err(
            L.crop2d_backward(gc, x.shape, 0),
            central_difference(lambda: float((gc * L.crop2d(x, (3, 4))[0]).sum()), x, 1e-6)))

        # fused upsample + conv, channels mixed on the coarse grid (own draws,
        # so the inputs above and below stay as they were)
        rng_f = np.random.default_rng(4)
        x = rng_f.standard_normal((1, 2, 3, 4))
        k = rng_f.standard_normal((3, 2, 3, 3))
        b = rng_f.standard_normal(3)
        g = rng_f.standard_normal((1, 3, 4, 6))
        for kind in ("bilinear", "nearest"):
            gk, gb, gx = L.upsample_conv2d_backward(x, k, g, kind)
            loss = lambda: float((g * L.upsample_conv2d(x, k, b, kind)).sum())
            for an, var in ((gk, k), (gb, b), (gx, x)):
                worst_layer = max(worst_layer,
                                  rel_err(an, central_difference(loss, var, 1e-6)))

        _, net_ok, net_detail = check_net_gradient()

        # phi_d gradient (adjoint route) within 1e-5
        mesh, survey, sim = tiny_dc_problem()
        m = -4.0 + 0.3 * np.random.default_rng(2).standard_normal(mesh.n_cells)
        d_obs = sim.predict(m) * 1.03
        weights = weights_from_std(0.05 * np.abs(d_obs))
        grad = sim.jt_vec(m, weights.values ** 2 * (sim.predict(m) - d_obs))
        worst_phi_d = 0.0
        rng2 = np.random.default_rng(3)
        for _ in range(5):
            wdir = rng2.standard_normal(mesh.n_cells)
            wdir /= np.linalg.norm(wdir)
            eps = 1e-5
            fp = phi_d(sim.predict(m + eps * wdir), d_obs, weights)
            fm = phi_d(sim.predict(m - eps * wdir), d_obs, weights)
            fd = (fp - fm) / (2 * eps)
            worst_phi_d = max(worst_phi_d, abs(fd - grad @ wdir) / abs(fd))

        # phi_m gradient within 1e-5
        mesh2 = build_mesh(5, 4, 2.0, 2.0, 0, 1.0)
        ops = DifferenceOperators(mesh2)
        cfg = RegularizationConfig(alpha_s=0.3, alpha_x=0.7, alpha_z=0.5,
                                   p_s=1.0, p_x=1.0, p_z=0.0, m_ref=-4.0)
        mm = -4.0 + rng.standard_normal(mesh2.n_cells)
        terms = regularization_terms(cfg, ops, np.full(mesh2.n_cells, -4.0))
        irls = update_irls(mm, terms, cfg.irls_epsilon)
        _, gphi = phi_m(mm, terms, irls)
        fd = central_difference(lambda: phi_m(mm, terms, irls)[0], mm, 1e-7)
        worst_phi_m = rel_err(gphi, fd)

        ok = worst_layer <= 1e-6 and net_ok and \
            worst_phi_d <= 1e-5 and worst_phi_m <= 1e-5
        report(4, "layer/net gradients within 1e-6; phi_d, phi_m within 1e-5",
               ok, f"layers {worst_layer:.2e}, net {net_detail}, "
                   f"phi_d {worst_phi_d:.2e}, phi_m {worst_phi_m:.2e}")

    def test_05_surrogate_loss_equivalence(self):
        """Weight gradients of the surrogate loss equal finite-difference
        gradients of the true objective within 1e-6 relative (every array)."""
        report(5, *check_surrogate())

    def test_06_forward_accuracy_half_space(self):
        """Uniform half-space data match the 2D line-source solution within
        3% at offsets up to a fifth of the padding extent."""
        n_pad = 11
        mesh = build_mesh(50, 12, 5.0, 5.0, n_pad, 1.5)
        survey = build_dipole_dipole_survey(200.0, 25.0, 24, x0=-100.0)
        pad_extent = (5.0 * 1.5 ** np.arange(1, n_pad + 1)).sum()
        sigma0 = 0.01
        d = DCSimulation(mesh, survey).predict(np.full(mesh.n_cells, np.log(sigma0)))
        rho = 1.0 / sigma0
        e = survey.electrodes
        worst = 0.0
        checked = 0
        k = 0
        for (a, b), rx in zip(survey.sources, survey.receivers):
            for m_, n_ in rx:
                xa, xb, xm, xn = e[a], e[b], e[m_], e[n_]

                def pot(xx):
                    return -(rho / np.pi) * (np.log(abs(xx - xa))
                                             - np.log(abs(xx - xb)))

                ana = pot(xm) - pot(xn)
                if abs(xm - xb) <= pad_extent / 5:
                    worst = max(worst, abs(d[k] - ana) / abs(ana))
                    checked += 1
                k += 1
        report(6, "half-space data within 3% of the analytic 2D solution",
               checked >= 10 and worst <= 0.03,
               f"{checked} data checked, worst {worst:.4f}")

    def test_07_scale_law(self):
        """predict(m + c) = e^-c predict(m) to 1e-8 relative."""
        mesh, survey, sim = tiny_dc_problem()
        rng = np.random.default_rng(4)
        m = -4.0 + 0.5 * rng.standard_normal(mesh.n_cells)
        c = 1.3
        d0 = sim.predict(m)
        d1 = sim.predict(m + c)
        err = rel_err(d1, np.exp(-c) * d0)
        report(7, "log-shift scale law to 1e-8 relative", err <= 1e-8,
               f"rel err {err:.2e}")

    def test_08_end_to_end_desk_case1(self):
        """Desk-scale dipping-dike scene: the reparameterized inversion
        reaches chi <= 1.2 with the model's correlation to the truth
        strictly improving, and the conventional sparse-norm baseline also
        reaches chi <= 1.2.  Budget: 15 minutes combined."""
        t0 = time.time()
        spec, truth = build_case1(45.0, scale="desk")
        mesh, survey = spec.mesh(), spec.survey()
        sim = DCSimulation(mesh, survey)
        d_clean = sim.predict(truth)
        d_obs, std = add_noise(d_clean, 0.05, seed=0)
        weights = weights_from_std(std, floor=1e-4 * float(np.median(np.abs(d_obs))))

        # reparameterized flavour, cooling rate scaled to the desk problem
        arch = arch_for_mesh(mesh.nz, mesh.nx, n_blocks=3, dropout_rate=0.1)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        cfg = DipConfig(tau=300.0, lr=1e-4, epochs_stage1=5000, epochs_stage2=1500,
                        dropout_rate=0.1, rng_seed=0)
        pretrain_stage1(params, z, mesh, cfg)
        m_start, _ = net_forward(params, z, mesh.shape)
        corr_start = pearson(m_start, truth)
        trace = invert_stage2(params, z, mesh, survey, d_obs, weights, cfg)
        chi_dip = chi_factor(sim.predict(trace.final_model), d_obs, weights)
        corr_final = pearson(trace.final_model, truth)

        # conventional benchmark with sparse norms
        reg = RegularizationConfig(p_s=0.0, p_x=1.0, p_z=1.0, alpha_s=0.005,
                                   alpha_x=0.5, alpha_z=0.5,
                                   m_ref=float(np.log(0.01)),
                                   use_sensitivity_weights=True)
        gn_trace = gauss_newton_invert(mesh, survey, d_obs, weights, reg,
                                       GNConfig(target_chi=1.0))
        chi_conv = gn_trace.records[-1].chi

        elapsed = time.time() - t0
        ok = (chi_dip <= 1.2 and corr_final > corr_start and chi_conv <= 1.2
              and elapsed < 900)
        report(8, "desk-scale end-to-end: both flavours reach chi <= 1.2",
               ok, f"dip chi {chi_dip:.3f}, corr {corr_start:.3f} -> "
                   f"{corr_final:.3f}; conventional chi {chi_conv:.3f}; "
                   f"{elapsed:.0f} s")

    def test_09_operator_level_smoothing(self):
        """Bilinear upsampling yields a lower mean absolute spatial gradient
        than nearest-neighbour, averaged over 25 random fields."""
        rng = np.random.default_rng(5)
        bil, near = [], []
        for _ in range(25):
            x = rng.standard_normal((1, 1, 6, 9))
            bil.append(mean_abs_gradient(L.upsample2(x, "bilinear")[0, 0]))
            near.append(mean_abs_gradient(L.upsample2(x, "nearest")[0, 0]))
        ok = float(np.mean(bil)) < float(np.mean(near))
        report(9, "bilinear upsampling smooths more than nearest-neighbour",
               ok, f"bilinear {np.mean(bil):.4f} vs nearest {np.mean(near):.4f}")

    def test_10_ablation_matrix(self, tmp_path):
        """The ablation harness executes all three suites (3 upsamplers,
        1/3/5 blocks, dropout on/off) and tabulates chi, model RMSE, and
        the smoothness metric for every run: 8 rows from 6 distinct runs,
        since blocks-3 is dropout-0 and upsampler-bilinear is dropout-0.1."""
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(tau=300.0, lr=1e-4, epochs_stage1=1500, epochs_stage2=150,
                        dropout_rate=0.1, rng_seed=0)
        rows = run_ablation(SUITES, spec, cfg, str(tmp_path))
        table = (tmp_path / "summary.txt").read_text()
        runs = [p for p in tmp_path.glob("*/manifest.json")
                if load_manifest(p)["method"] == "dip"]
        ok = (len(rows) == 8 and len(runs) == 6
              and all(table.count(f"suite={suite}\n") == 1 for suite in SUITES)
              and all(r["status"] == "ok" for r in rows)
              and all(np.isfinite(r["chi"]) and np.isfinite(r["rmse"])
                      and np.isfinite(r["smoothness"]) for r in rows))
        detail = "; ".join(f"{r['run']} chi={r['chi']:.2f}" for r in rows)
        report(10, f"ablation matrix ({len(rows)} rows, {len(runs)} runs) completes "
                   "with full metrics", ok, detail)

    def test_11_beta_schedule(self):
        """beta(0) = 1, beta(tau) = 1/e, strictly decreasing over 1e4 steps."""
        report(11, *check_beta())

    def test_12_replay_determinism(self, tmp_path):
        """Replaying a run manifest reproduces the trace file bitwise."""
        spec, _ = build_case1(45.0, scale="desk")
        cfg = DipConfig(tau=50.0, epochs_stage1=300, epochs_stage2=10,
                        dropout_rate=0.1, rng_seed=11)
        paths = execute(DipRun(spec, cfg, ArchChoice(3, "bilinear"), None, None,
                               str(tmp_path / "a")))
        replay(paths["manifest"], out_dir=str(tmp_path / "b"))
        same = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("trace.txt", "model.txt", "data.txt"))
        report(12, "manifest replay reproduces outputs bitwise", same)
