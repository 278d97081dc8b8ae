import re

import numpy as np
import pytest

from dcinv.errors import CheckpointError
from dcinv.net import (ArchConfig, arch_for_mesh, init_params, load_params,
                       net_backward, net_forward, param_count, sample_latent,
                       save_params)

from helpers import param_fd_grads, rel_err


def hand_count(arch: ArchConfig) -> int:
    """Independent parameter count from the architecture description."""
    k = arch.latent_dim
    h = arch.seed_shape[0] * arch.seed_shape[1]
    total = k * h + h
    c_in = 1
    for c_out in arch.channels:
        if arch.upsampler == "transposed":
            total += c_in * c_in * 4 + c_in
        total += c_out * c_in * 9 + c_out
        c_in = c_out
    total += 1 * c_in * 9 + 1
    return total


class TestArchitecture:
    def test_default_parameter_count(self):
        """3-block generator for the 32 x 214 mesh has exactly 23055 weights."""
        arch = arch_for_mesh(32, 214, n_blocks=3)
        assert arch.seed_shape == (6, 29)
        assert arch.hidden_width == 174
        params = init_params(0, arch)
        assert param_count(params) == 23055

    def test_dense_subcount(self):
        """8 -> 174 dense layer alone: 8*174 + 174 = 1566."""
        arch = arch_for_mesh(32, 214, n_blocks=3)
        params = init_params(0, arch)
        assert params.arrays["fc.w"].size + params.arrays["fc.b"].size == 1566

    @pytest.mark.parametrize("n_blocks", [1, 3, 5])
    @pytest.mark.parametrize("upsampler", ["bilinear", "nearest", "transposed"])
    def test_parameter_count_matches_hand_count(self, n_blocks, upsampler):
        arch = arch_for_mesh(32, 214, n_blocks=n_blocks, upsampler=upsampler)
        params = init_params(0, arch)
        assert param_count(params) == hand_count(arch)

    def test_seed_shape_rule(self):
        """Seed is the smallest (a, b) with 2^n (a-2) >= nz, 2^n (b-2) >= nx."""
        assert arch_for_mesh(32, 214, 3).seed_shape == (6, 29)
        assert arch_for_mesh(32, 214, 1).seed_shape == (18, 109)
        assert arch_for_mesh(32, 214, 5).seed_shape == (3, 9)
        assert arch_for_mesh(19, 64, 3).seed_shape == (5, 10)

    def test_pre_crop_shape(self):
        assert arch_for_mesh(32, 214, 3).pre_crop_shape == (32, 216)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ArchConfig(channels=())
        with pytest.raises(ValueError):
            ArchConfig(upsampler="bicubic")
        with pytest.raises(ValueError):
            ArchConfig(dropout_rate=1.0)


class TestInitialization:
    def test_deterministic(self):
        arch = arch_for_mesh(8, 12, 2)
        a = init_params(42, arch)
        b = init_params(42, arch)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])

    def test_seed_changes_weights(self):
        arch = arch_for_mesh(8, 12, 2)
        a = init_params(0, arch)
        b = init_params(1, arch)
        assert not np.array_equal(a.arrays["fc.w"], b.arrays["fc.w"])

    def test_bounds_and_zero_biases(self):
        arch = arch_for_mesh(32, 214, 3)
        params = init_params(0, arch)
        assert np.all(params.arrays["fc.b"] == 0.0)
        assert np.all(params.arrays["conv2.b"] == 0.0)
        assert np.abs(params.arrays["fc.w"]).max() <= np.sqrt(1 / 8)
        assert np.abs(params.arrays["conv2.k"]).max() <= np.sqrt(1 / (64 * 9))

    def test_latent_vector(self):
        z = sample_latent(0, 8)
        assert z.shape == (8,)
        assert not z.flags.writeable
        assert np.array_equal(z, sample_latent(0, 8))


class TestForward:
    def test_output_range(self):
        arch = arch_for_mesh(19, 64, 3)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        m, _ = net_forward(params, z, (19, 64))
        assert m.shape == (19 * 64,)
        assert np.all(m > -8.0)
        assert np.all(m < 0.0)

    def test_eval_deterministic(self):
        arch = arch_for_mesh(19, 64, 3)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        m1, _ = net_forward(params, z, (19, 64))
        m2, _ = net_forward(params, z, (19, 64))
        assert np.array_equal(m1, m2)

    def test_mesh_larger_than_output(self):
        arch = arch_for_mesh(19, 64, 3)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        with pytest.raises(ValueError) as exc:
            net_forward(params, z, (40, 64))
        assert "(24, 64)" in str(exc.value) and "(40, 64)" in str(exc.value)

    def test_train_mode_needs_rng_with_dropout(self):
        arch = arch_for_mesh(19, 64, 3, dropout_rate=0.1)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        with pytest.raises(ValueError):
            net_forward(params, z, (19, 64), mode="train")


class TestBackward:
    def test_zero_gradient(self):
        arch = arch_for_mesh(10, 12, 2)
        params = init_params(0, arch)
        z = sample_latent(0, 8)
        _, tr = net_forward(params, z, (10, 12))
        grads = net_backward(tr, np.zeros(120))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_full_net_gradients_vs_fd(self):
        """Tiny generator (k=3, 1 block, column crop) against central FD."""
        arch = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,))
        assert arch.seed_shape == (4, 5)  # crops 6 columns down to 5
        params = init_params(1, arch)
        z = sample_latent(2, 3)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(15)
        _, tr = net_forward(params, z, (3, 5))
        grads = net_backward(tr, g)
        fd = param_fd_grads(params, z, (3, 5), g)
        for key in grads:
            assert rel_err(grads[key], fd[key]) < 1e-6, key

    @pytest.mark.parametrize("upsampler", ["nearest", "transposed"])
    def test_variant_gradients_vs_fd(self, upsampler):
        arch = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,),
                             upsampler=upsampler)
        params = init_params(1, arch)
        z = sample_latent(2, 3)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(15)
        _, tr = net_forward(params, z, (3, 5))
        grads = net_backward(tr, g)
        fd = param_fd_grads(params, z, (3, 5), g)
        for key in grads:
            assert rel_err(grads[key], fd[key]) < 1e-6, key

    def test_dropout_uses_cached_mask(self):
        """Gradient through train-mode dropout matches FD with the same draws,
        and masked activations contribute nothing."""
        arch = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,),
                             dropout_rate=0.3)
        params = init_params(5, arch)
        z = sample_latent(6, 3)
        rng = np.random.default_rng(7)
        g = rng.standard_normal(15)
        _, tr = net_forward(params, z, (3, 5), mode="train",
                            rng=np.random.default_rng(99))
        grads = net_backward(tr, g)
        fd = param_fd_grads(params, z, (3, 5), g, mode="train",
                            rng_factory=lambda: np.random.default_rng(99))
        for key in grads:
            assert rel_err(grads[key], fd[key]) < 1e-6, key
        # a fully masked channel's conv bias gets zero gradient
        mask = tr.dropout_mask
        dead = ~mask.any(axis=(0, 2, 3))
        assert np.all(grads["conv1.b"][dead] == 0.0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        arch = arch_for_mesh(19, 64, 3, upsampler="transposed", dropout_rate=0.1)
        params = init_params(0, arch)
        path = tmp_path / "ckpt.npz"
        save_params(path, params)
        back = load_params(path)
        assert back.arch == arch
        assert set(back.arrays) == set(params.arrays)
        for key in params.arrays:
            assert np.array_equal(back.arrays[key], params.arrays[key])

    def test_forward_identical_after_reload(self, tmp_path):
        arch = arch_for_mesh(10, 12, 2)
        params = init_params(3, arch)
        z = sample_latent(4, 8)
        m0, _ = net_forward(params, z, (10, 12))
        path = tmp_path / "ckpt.npz"
        save_params(path, params)
        m1, _ = net_forward(load_params(path), z, (10, 12))
        assert np.array_equal(m0, m1)

    def test_files_that_are_not_checkpoints_raise_checkpoint_error(self, tmp_path):
        """A lone array, a truncated archive, a bad descriptor and missing
        arrays each raise CheckpointError naming the file."""
        arch = arch_for_mesh(10, 12, 2)
        good = tmp_path / "good.npz"
        save_params(good, init_params(3, arch))
        lone = tmp_path / "lone.npy"
        np.save(lone, np.zeros(3))
        cut = tmp_path / "cut.npz"
        cut.write_bytes(good.read_bytes()[:200])
        bad_arch = tmp_path / "bad_arch.npz"
        np.savez(bad_arch, __arch__=np.array('{"latent_dim": 8}'))
        partial = tmp_path / "partial.npz"
        with np.load(good) as f:
            np.savez(partial, **{k: f[k] for k in f.files[:2]})
        for path in (lone, cut, bad_arch, partial):
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_params(path)
