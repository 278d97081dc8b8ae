import io
import itertools
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcinv.checks import rel_err
from dcinv.errors import CheckpointError
from dcinv.net import (ArchConfig, arch_for_mesh, init_params, load_params,
                       net_backward, net_forward, sample_latent, save_params)
from dcinv.net.model import _plan
from dcinv.scenarios import build_case1

from helpers import param_count, param_fd_grads


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

    def test_a_channel_plan_of_another_block_count_is_refused(self):
        """The seed is sized for n_blocks upsamplings; another plan length
        would build a generator of another output size."""
        with pytest.raises(ValueError, match="channel plan length must equal n_blocks"):
            arch_for_mesh(3, 5, n_blocks=2, channels=(2,))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ArchConfig(channels=())
        with pytest.raises(ValueError):
            ArchConfig(upsampler="bicubic")
        with pytest.raises(ValueError):
            ArchConfig(dropout_rate=1.0)
        for slope in (-0.1, 1.5, float("nan")):  # the leaky ReLU is a maximum on [0, 1]
            with pytest.raises(ValueError, match="negative_slope must be in"):
                ArchConfig(negative_slope=slope)
        assert ArchConfig(negative_slope=0.0).negative_slope == 0.0
        assert ArchConfig(negative_slope=1.0).negative_slope == 1.0


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

    def test_copy_is_equal_and_independent(self):
        params = init_params(0, arch_for_mesh(8, 12, 2))
        copied = params.copy()
        assert copied.arch == params.arch and copied.arrays.keys() == params.arrays.keys()
        for key, array in params.arrays.items():
            assert np.array_equal(copied.arrays[key], array)
            copied.arrays[key] += 1.0
            assert not np.array_equal(copied.arrays[key], array)

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

    @pytest.mark.parametrize("upsampler", ["bilinear", "nearest"])
    def test_multichannel_gradients_vs_fd(self, upsampler):
        """Two blocks, channels (3, 2): the second block's 3-channel input is
        mixed on the coarse grid before it is upsampled."""
        arch = arch_for_mesh(3, 5, n_blocks=2, latent_dim=3, channels=(3, 2),
                             upsampler=upsampler)
        assert arch.seed_shape == (3, 4)
        params = init_params(8, arch)
        z = sample_latent(9, 3)
        g = np.random.default_rng(10).standard_normal(15)
        _, tr = net_forward(params, z, (3, 5))
        grads = net_backward(tr, g)
        fd = param_fd_grads(params, z, (3, 5), g)
        for key in grads:
            assert rel_err(grads[key], fd[key]) < 1e-6, key

    def test_trace_keeps_coarse_block_inputs_only(self):
        """An interpolating block's step holds its coarse input, not the
        upsampled image; the transposed upsampler's output is a learned map
        and stays."""
        for upsampler, keeps_upsampled in (("bilinear", False), ("transposed", True)):
            arch = arch_for_mesh(32, 214, upsampler=upsampler)
            _, tr = net_forward(init_params(0, arch), sample_latent(0, 8), (32, 214))
            held = [cell.cell_contents.shape for _, _, backward in tr.steps
                    for cell in backward.__closure__ or ()
                    if isinstance(cell.cell_contents, np.ndarray)]
            assert (1, 1, 6, 29) in held
            assert ((1, 1, 12, 58) in held) == keeps_upsampled

    def test_dropout_uses_cached_mask(self):
        """Gradient through train-mode dropout matches FD with the same draws,
        and masked activations contribute nothing: at rate 0.9 the seed-115
        draw masks all of one channel of the 1 x 2 x 6 x 8 dropout input and
        keeps 6 entries of the other."""
        arch = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,),
                             dropout_rate=0.9)
        params = init_params(5, arch)
        z = sample_latent(6, 3)
        rng = np.random.default_rng(7)
        g = rng.standard_normal(15)
        _, tr = net_forward(params, z, (3, 5), mode="train",
                            rng=np.random.default_rng(115))
        grads = net_backward(tr, g)
        fd = param_fd_grads(params, z, (3, 5), g, mode="train",
                            rng_factory=lambda: np.random.default_rng(115))
        for key in grads:
            assert rel_err(grads[key], fd[key]) < 1e-6, key
        # a fully masked channel's conv bias gets zero gradient; the mask is the
        # first draw from rng, shaped as the last leaky ReLU (dropout's input)
        mask = np.random.default_rng(115).random(tr.kinks[-1].shape) >= arch.dropout_rate
        dead = ~mask.any(axis=(0, 2, 3))
        assert dead.any() and not dead.all()
        assert np.all(grads["conv1.b"][dead] == 0.0)

    @pytest.mark.parametrize("n_blocks", [1, 3, 5])
    @pytest.mark.parametrize("upsampler", ["bilinear", "nearest", "transposed"])
    def test_tape_steps_carry_their_layers_labels(self, n_blocks, upsampler):
        """The tape's labels run fc, block1 ... blockN, out in order; each
        trained step's names belong to its label's plan entry; and each array
        init_params makes is named in exactly one entry."""
        arch = arch_for_mesh(12, 20, n_blocks=n_blocks, upsampler=upsampler,
                             dropout_rate=0.1)
        params = init_params(0, arch)
        plan = {layer.label: layer.params for layer in _plan(arch)}
        _, tr = net_forward(params, sample_latent(0, 8), (12, 20), mode="train",
                            rng=np.random.default_rng(0))
        runs = [label for label, _ in itertools.groupby(label for label, _, _ in tr.steps)]
        assert runs == ["fc", *(f"block{i}" for i in range(1, n_blocks + 1)), "out"] == list(plan)
        for label, names, _ in tr.steps:
            assert set(names) <= set(plan[label]), (label, names)
        assert sorted(name for names in plan.values() for name in names) == sorted(params.arrays)


def full_scale_pass():
    """One full-scale training pass on case 1: forward with dropout, then backward."""
    spec, _ = build_case1(scale="full")
    shape = spec.mesh().shape
    params = init_params(0, arch_for_mesh(*shape, dropout_rate=0.1))
    z = sample_latent(0, 8)
    g = np.random.default_rng(1).standard_normal(shape[0] * shape[1])

    def one_pass():
        _, tr = net_forward(params, z, shape, mode="train", rng=np.random.default_rng(2))
        net_backward(tr, g)

    return one_pass


def test_full_scale_pass_peak_memory():
    """One full-scale training pass on case 1 (forward with dropout, then
    backward) allocates at most 7.5 MiB at its peak (tracemalloc).

    Mixing channels on the coarse grid reads about 6.9 MiB: no block keeps
    its upsampled image (2 MB for block 3) or convolves one.  Upsampling
    first and convolving the fine image read about 12.5 MiB; stacking all
    nine taps of a kernel in that conv's backward read about 15.0 MiB, and
    the process's peak RSS rose with it.  The bound leaves 8 % above the
    measured peak.
    """
    one_pass = full_scale_pass()
    one_pass()  # fills the upsampler's matrix cache
    tracemalloc.start()
    try:
        one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 2**20


@pytest.mark.skipif(not ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
                         and os.confstr("CS_GNU_LIBC_VERSION")),
                    reason="heap thresholds are set on glibc only")
def test_warm_full_scale_passes_reuse_the_heap():
    """20 warm full-scale training passes make fewer than 200 minor page
    faults in all: freed arrays stay in the heap for the next pass instead
    of being unmapped or trimmed and faulted in again (about 61,000 with
    glibc's dynamic thresholds on a 2-vCPU x86-64 VM)."""
    import resource

    one_pass = full_scale_pass()
    for _ in range(2):
        one_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        one_pass()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


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
        """A lone array, a truncated archive, a bad descriptor, one lacking any
        field or holding an unknown one, and missing arrays each raise
        CheckpointError naming the file, and the field when there is one."""
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
        with np.load(good) as f:
            arrays = {k: f[k] for k in f.files if k != "__arch__"}
        descriptors = {"steep": {**arch.to_dict(), "negative_slope": 2.0},
                       "extra": {**arch.to_dict(), "bogus": 1}}
        descriptors |= {f"no_{name}": {k: v for k, v in arch.to_dict().items() if k != name}
                        for name in arch.to_dict()}
        for name, descriptor in descriptors.items():
            np.savez(tmp_path / f"{name}.npz", **arrays,
                     __arch__=np.array(json.dumps(descriptor)))
        described = [tmp_path / f"{name}.npz" for name in descriptors]
        for path in (lone, cut, bad_arch, partial, *described):
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_params(path)
        for name in arch.to_dict():
            with pytest.raises(CheckpointError, match=rf"lacks __arch__\.{name}\b"):
                load_params(tmp_path / f"no_{name}.npz")
        with pytest.raises(CheckpointError, match=r"unknown key __arch__\.bogus"):
            load_params(tmp_path / "extra.npz")


    @pytest.mark.parametrize("name, spoil", [
        ("conv1.k", lambda a: a[..., :2]), ("fc.b", lambda a: np.full(a.shape, "x")),
        ("fc.w", lambda a: np.where(a == a.flat[5], np.nan, a)),
        ("fc.w", lambda a: np.zeros((8, 3))), ("out.k", lambda a: a + np.inf),
        ("fc.w", lambda a: a.astype(np.float32)), ("fc.b", lambda a: a.astype(np.int64))])
    def test_arrays_that_do_not_fit_the_architecture_raise(self, tmp_path, name, spoil):
        """An array of another shape or dtype than float64, or with a
        non-finite value, is a CheckpointError naming the file and the array."""
        params = init_params(3, arch_for_mesh(10, 12, 2))
        path = tmp_path / "ckpt.npz"
        np.savez(path, __arch__=np.array(json.dumps(params.arch.to_dict())),
                 **{**params.arrays, name: spoil(params.arrays[name])})
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {path}: {name} ")):
            load_params(path)

    @pytest.mark.parametrize("field, value, message", [
        ("seed_shape", [5, 10.5], "__arch__.seed_shape[1] must be an integer, got 10.5"),
        ("negative_slope", "0.2", '__arch__.negative_slope must be a finite number, got "0.2"'),
        ("output_scale", None, "__arch__.output_scale must be a finite number, got null"),
        ("channels", [64, True], "__arch__.channels[1] must be an integer, got true")])
    def test_descriptor_values_of_the_wrong_type_name_their_path(self, tmp_path, field,
                                                                  value, message):
        """A seed shape of 10.5 was truncated to 10; a text slope was a TypeError."""
        params = init_params(3, arch_for_mesh(10, 12, 2))
        path = tmp_path / "ckpt.npz"
        np.savez(path, **params.arrays,
                 __arch__=np.array(json.dumps({**params.arch.to_dict(), field: value})))
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {path}: {message}")):
            load_params(path)


_TINY = arch_for_mesh(3, 5, n_blocks=1, latent_dim=3, channels=(2,))


def _archive(arrays) -> bytes:
    """The bytes of a checkpoint of the tiny architecture holding ``arrays``."""
    buf = io.BytesIO()
    np.savez(buf, __arch__=np.array(json.dumps(_TINY.to_dict())), **arrays)
    return buf.getvalue()


def _load_bytes(data: bytes):
    """``load_params`` of a file holding ``data``: the params, or the
    CheckpointError it raised, which must name the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.npz"
        path.write_bytes(data)
        try:
            return load_params(path)
        except CheckpointError as e:
            assert f"checkpoint {path}" in str(e)
            return e


class TestDamagedCheckpoints:
    """Damaged bytes and drawn arrays raise CheckpointError naming the file.
    Before, one overwritten byte in a zip record could escape as EOFError,
    NotImplementedError or RuntimeError (a traceback, exit 1), or as an
    OSError whose message did not name the file."""

    @pytest.mark.parametrize("record, offset, byte", [
        (b"PK\x03\x04", 29, 0xFF),  # local header: extra-field length -> EOFError
        (b"PK\x01\x02", 6, 0xFF),   # central directory: needs zip version 25.5
        (b"PK\x01\x02", 8, 0x01),   # central directory: the member is encrypted
        (b"PK\x01\x02", 10, 0xFF),  # central directory: unknown compression method
        (b"PK\x05\x06", 16, 0xFF),  # end record: central directory offset -> EINVAL
    ])
    def test_damaged_zip_records(self, record, offset, byte):
        raw = _archive(init_params(0, _TINY).arrays)
        at = raw.index(record) + offset
        assert raw[at] != byte
        assert isinstance(_load_bytes(raw[:at] + bytes([byte]) + raw[at + 1:]),
                          CheckpointError)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_or_overwritten(self, data):
        """A truncated archive is refused; one with a byte overwritten is
        refused or reads back exactly (zip metadata that nothing checks)."""
        params = init_params(0, _TINY)
        raw = _archive(params.arrays)
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        assert isinstance(_load_bytes(raw[:cut]), CheckpointError)
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        back = _load_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
        assert isinstance(back, CheckpointError) or (
            back.arch == _TINY
            and all(np.array_equal(back.arrays[k], a) for k, a in params.arrays.items()))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_a_drawn_array_that_does_not_fit(self, data):
        """Another dtype, another shape, or one non-finite entry in a drawn
        array is refused, naming the array."""
        arrays = dict(init_params(0, _TINY).arrays)
        name = data.draw(st.sampled_from(sorted(arrays)), label="name")
        a = arrays[name]
        spoil = data.draw(st.sampled_from(["dtype", "shape", "value"]), label="spoil")
        if spoil == "dtype":
            a = a.astype(data.draw(st.sampled_from(
                [np.float32, np.float16, np.int64, np.complex128, np.bool_, "U3"])))
        elif spoil == "shape":
            a = np.resize(a, data.draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                        max_side=4)
                                       .filter(lambda s: s != a.shape)))
        else:
            a = a.copy()
            a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        err = _load_bytes(_archive({**arrays, name: a}))
        assert isinstance(err, CheckpointError) and f": {name} " in str(err)
