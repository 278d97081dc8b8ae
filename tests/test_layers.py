import numpy as np
import pytest

from dcinv.checks import central_difference, rel_err
from dcinv.metrics import mean_abs_gradient
from dcinv.net import layers as L



class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = L.dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_hand_value(self):
        x = np.array([1.0, 2.0])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])  # (k, h): y = x @ w + b
        b = np.array([1.0, 0.0])
        assert np.array_equal(L.dense_forward(x, w, b), [4.0, 2.0])

    def test_gradients_vs_fd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(6)
        g = rng.standard_normal(6)
        gw, gb, gx = L.dense_backward(x, w, g)
        loss = lambda: g @ L.dense_forward(x, w, b)
        assert rel_err(gw, central_difference(loss, w, 1e-6)) < 1e-7
        assert rel_err(gb, central_difference(loss, b, 1e-6)) < 1e-7
        assert rel_err(gx, central_difference(loss, x, 1e-6)) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            L.dense_forward(np.ones(3), np.ones((4, 2)), np.zeros(2))


class TestActivations:
    def test_leaky_relu_values(self):
        assert L.leaky_relu(np.array(-1.0)) == -0.2
        assert L.leaky_relu(np.array(3.0)) == 3.0

    def test_leaky_relu_backward_is_bitwise_the_slope_product(self):
        """Selecting g or slope*g equals multiplying g by 1 or slope, bit for bit."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 3, 5, 7))
        x[0, 0, 0, :4] = [0.0, -0.0, -1e-300, 1e-300]
        g = rng.standard_normal(x.shape)
        g[0, 1, 0, :2] = [0.0, -0.0]
        for slope in (0.2, 0.01):
            gx = L.leaky_relu_backward(x, g, slope)
            ref = g * np.where(x > 0, 1.0, slope)
            assert gx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    def test_leaky_relu_is_bitwise_the_selection(self, slope):
        """The branch-free forms give the np.where selections bit for bit, on
        signed zeros, NaN, subnormals, random and sign-clustered inputs."""
        rng = np.random.default_rng(15)
        special = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e-300, -1e-300]
        clustered = np.repeat(rng.choice([-1.0, 1.0], 64), 64) * rng.uniform(0, 3, 64 * 64)
        x = np.concatenate([special, rng.standard_normal(1000), clustered])
        g = rng.standard_normal(x.size)
        g[:4] = [0.0, -0.0, np.nan, -1.0]
        with np.errstate(invalid="ignore"):
            forward = np.where(x > 0, x, slope * x)
        assert L.leaky_relu(x, slope).tobytes() == forward.tobytes()
        assert L.leaky_relu_backward(x, g, slope).tobytes() == \
            np.where(x > 0, g, slope * g).tobytes()

    def test_leaky_relu_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 3, 3)) + 0.3  # keep away from the kink
        x[np.abs(x) < 0.05] = 0.5
        g = rng.standard_normal(x.shape)
        gx = L.leaky_relu_backward(x, g)
        fd = central_difference(lambda: float((g * L.leaky_relu(x)).sum()), x, 1e-6)
        assert rel_err(gx, fd) < 1e-7

    def test_sigmoid_midpoint_and_scale(self):
        assert L.sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_range_times_scale(self):
        x = np.linspace(-40, 40, 401)
        out = L.sigmoid(x)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_sigmoid_is_bitwise_the_two_branch_formula(self):
        """The branch-free form gives ``1 / (1 + exp(-x))`` for x >= 0 and
        ``exp(x) / (1 + exp(x))`` below, bit for bit, on signed zeros,
        infinities, NaN, values past exp's overflow and random inputs at
        scales 1e-3 to 1e3."""
        rng = np.random.default_rng(16)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0, 5e-324,
                   -5e-324]
        scales = np.repeat(10.0 ** np.arange(-3, 4), 1000)
        x = np.concatenate([special, scales * rng.standard_normal(scales.size)])
        pos = x >= 0
        ref = np.empty_like(x)
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ref[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert L.sigmoid(x).tobytes() == ref.tobytes()

    def test_sigmoid_derivative(self):
        """d sigmoid / dx at 0 is exactly 1/4."""
        y = L.sigmoid(np.array(0.0))
        assert L.sigmoid_backward(y, np.array(1.0)) == 0.25
        x = np.array([0.0])
        fd = central_difference(lambda: float(L.sigmoid(x)[0]), x, 1e-6)
        assert abs(fd[0] - 0.25) < 1e-9


FULL_SCALE_BLOCK_INPUTS = [(1, 1, 6, 29), (1, 64, 10, 56), (1, 32, 18, 110)]


def per_pixel_upsample2(x, g, kind):
    """Reference forward and transpose, pixel by pixel.

    Output pixel (i, j) reads four source pixels with weights
    ``w_row * w_col``; bilinear uses half-pixel centers and clamps at the
    edges, nearest reads (i // 2, j // 2).  The transpose returns each
    term of <up(x), g> to the source pixel it read, so <up(x), g> =
    <x, up^T(g)> holds term by term.
    """
    def taps(n):
        if kind == "nearest":
            i = np.arange(2 * n) // 2
            return [((a, 1.0), (a, 0.0)) for a in i]
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        i0 = np.floor(src).astype(int)
        w1 = src - i0
        return [((min(max(a, 0), n - 1), 1.0 - b), (min(a + 1, n - 1), b))
                for a, b in zip(i0, w1)]

    rows, cols = taps(x.shape[-2]), taps(x.shape[-1])
    y = np.zeros(g.shape)
    gx = np.zeros(x.shape)
    for i, row_taps in enumerate(rows):
        for j, col_taps in enumerate(cols):
            for r, wr in row_taps:
                for c, wc in col_taps:
                    y[..., i, j] += wr * wc * x[..., r, c]
                    gx[..., r, c] += wr * wc * g[..., i, j]
    return y, gx


class _UpsampleContract:
    """Checks shared by both interpolating kinds; subclasses set KIND."""

    KIND = ""

    def test_transpose_identity(self):
        """<up(x), g> = <x, up^T(g)> to machine precision."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 5))
        g = rng.standard_normal((1, 2, 8, 10))
        lhs = float((L.upsample2(x, self.KIND) * g).sum())
        rhs = float((x * L.upsample2_backward(g, self.KIND)).sum())
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 3, 4))
        g = rng.standard_normal((1, 2, 6, 8))
        gx = L.upsample2_backward(g, self.KIND)
        fd = central_difference(lambda: float((g * L.upsample2(x, self.KIND)).sum()),
                                x, 1e-6)
        assert rel_err(gx, fd) < 1e-7

    @pytest.mark.parametrize("shape", FULL_SCALE_BLOCK_INPUTS)
    def test_matches_per_pixel_reference(self, shape):
        """The input of each full-scale generator block, forward and backward."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal(shape)
        g = rng.standard_normal(shape[:2] + (2 * shape[2], 2 * shape[3]))
        y_ref, gx_ref = per_pixel_upsample2(x, g, self.KIND)
        assert np.abs(L.upsample2(x, self.KIND) - y_ref).max() <= 1e-13
        assert np.abs(L.upsample2_backward(g, self.KIND) - gx_ref).max() <= 1e-13


class TestBilinearUpsample(_UpsampleContract):
    KIND = "bilinear"

    def test_constant_preserved(self):
        x = np.full((1, 1, 3, 4), 2.5)
        y = L.upsample2(x, "bilinear")
        assert y.shape == (1, 1, 6, 8)
        assert np.allclose(y, 2.5)

    def test_hand_values_2x2(self):
        """Half-pixel-center weights on [[1,2],[3,4]]: corners are copies and
        the (1,1) output is 0.5625*1 + 0.1875*2 + 0.1875*3 + 0.0625*4."""
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = L.upsample2(x, "bilinear")[0, 0]
        assert y.shape == (4, 4)
        assert y[0, 0] == 1.0 and y[0, 3] == 2.0
        assert y[3, 0] == 3.0 and y[3, 3] == 4.0
        assert np.isclose(y[1, 1], 1.75)
        assert np.isclose(y[1, 1], 0.5625 * 1 + 0.1875 * 2 + 0.1875 * 3 + 0.0625 * 4)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 5, 7))
        y = L.upsample2(x, "bilinear")
        assert y.min() >= x.min() - 1e-12
        assert y.max() <= x.max() + 1e-12


class TestNearestUpsample(_UpsampleContract):
    KIND = "nearest"

    def test_block_replication(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = L.upsample2(x, "nearest")[0, 0]
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
                            dtype=float)
        assert np.array_equal(y, expected)

    def test_value_multiset_times_four(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 1, 3, 5))
        y = L.upsample2(x, "nearest")
        vx, cx = np.unique(x, return_counts=True)
        vy, cy = np.unique(y, return_counts=True)
        assert np.array_equal(vx, vy)
        assert np.array_equal(cy, 4 * cx)

    def test_backward_sums_blocks(self):
        g = np.arange(16.0).reshape(1, 1, 4, 4)
        gx = L.upsample2_backward(g, "nearest")
        assert gx.shape == (1, 1, 2, 2)
        assert gx[0, 0, 0, 0] == 0 + 1 + 4 + 5


@pytest.mark.parametrize("kind", ["bilinear", "nearest"])
def test_up2_matrix_is_cached_and_read_only(kind):
    u = L._up2_matrix(7, kind)
    assert L._up2_matrix(7, kind) is u
    assert u.shape == (14, 7) and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 5.0


def test_unknown_upsampler_kind_raises():
    with pytest.raises(ValueError, match="bicubic"):
        L.upsample2(np.ones((1, 1, 2, 2)), "bicubic")
    with pytest.raises(ValueError, match="bicubic"):
        L.upsample2_backward(np.ones((1, 1, 4, 4)), "bicubic")


def einsum_transposed_conv2(x, k, b, g):
    """Reference transposed conv and its gradients, one 6-index einsum each:
    input pixel (i, j) and tap (a, q) write output pixel (2i + a, 2j + q).
    Returns (y, gk, gb, gx) for the loss <g, tconv(x)>."""
    n, c, h, w = x.shape
    co = k.shape[1]
    y = np.einsum("ncij,coab->noiajb", x, k).reshape(n, co, 2 * h, 2 * w)
    g6 = g.reshape(n, co, h, 2, w, 2)
    gk = np.einsum("ncij,noiajb->coab", x, g6)
    gx = np.einsum("noiajb,coab->ncij", g6, k)
    return y + b[:, None, None], gk, g.sum(axis=(0, 2, 3)), gx


class TestTransposedConv:
    @pytest.mark.parametrize("shape", FULL_SCALE_BLOCK_INPUTS + [(2, 3, 4, 5)])
    def test_matches_einsum_reference(self, shape):
        """The input of each full-scale generator block, and a batch of 2; one
        more output channel than input, so a swapped kernel axis fails."""
        rng = np.random.default_rng(15)
        c = shape[1]
        x = rng.standard_normal(shape)
        k = rng.standard_normal((c, c + 1, 2, 2))
        b = rng.standard_normal(c + 1)
        g = rng.standard_normal((shape[0], c + 1, 2 * shape[2], 2 * shape[3]))
        y_ref, gk_ref, gb_ref, gx_ref = einsum_transposed_conv2(x, k, b, g)
        gk, gb, gx = L.transposed_conv2_backward(x, k, g)
        assert rel_err(L.transposed_conv2(x, k, b), y_ref) < 1e-12
        assert rel_err(gk, gk_ref) < 1e-12
        assert rel_err(gb, gb_ref) < 1e-12
        assert rel_err(gx, gx_ref) < 1e-12

    def test_delta_kernel_interleaves(self):
        """A delta kernel writes the input into one corner of each 2x2 block."""
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = np.zeros((1, 1, 2, 2))
        k[0, 0, 0, 0] = 1.0
        y = L.transposed_conv2(x, k, np.zeros(1))[0, 0]
        expected = np.array([[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 4, 0], [0, 0, 0, 0]],
                            dtype=float)
        assert np.array_equal(y, expected)

    def test_output_doubles(self):
        x = np.zeros((1, 3, 4, 6))
        k = np.zeros((3, 5, 2, 2))
        y = L.transposed_conv2(x, k, np.zeros(5))
        assert y.shape == (1, 5, 8, 12)

    def test_a_kernel_that_is_not_2x2_is_refused(self):
        """A 3x3 kernel would run on its first 2x2 taps without a word."""
        with pytest.raises(ValueError, match=r"kernel shape \(3, 5, 3, 3\)"):
            L.transposed_conv2(np.zeros((1, 3, 4, 6)), np.zeros((3, 5, 3, 3)), np.zeros(5))

    def test_gradients_vs_fd(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 3, 4))
        k = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal(3)
        g = rng.standard_normal((1, 3, 6, 8))
        gk, gb, gx = L.transposed_conv2_backward(x, k, g)
        loss = lambda: float((g * L.transposed_conv2(x, k, b)).sum())
        assert rel_err(gk, central_difference(loss, k, 1e-6)) < 1e-7
        assert rel_err(gb, central_difference(loss, b, 1e-6)) < 1e-7
        assert rel_err(gx, central_difference(loss, x, 1e-6)) < 1e-7


def per_tap_conv2d(x, k, b, g):
    """Reference conv and its gradients: one einsum per kernel tap on the
    shifted input window; gx correlates a zero-padded g with the flipped
    kernel.  Returns (y, gk, gb, gx) for the loss <g, conv(x)>."""
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    y = np.zeros((n, co, ho, wo))
    gk = np.empty_like(k)
    for p in range(kh):
        for q in range(kw):
            y += np.einsum("ncij,oc->noij", x[:, :, p:p + ho, q:q + wo], k[:, :, p, q])
            gk[:, :, p, q] = np.einsum("noij,ncij->oc", g, x[:, :, p:p + ho, q:q + wo])
    gpad = np.zeros((n, co, h + kh - 1, w + kw - 1))
    gpad[:, :, kh - 1:kh - 1 + ho, kw - 1:kw - 1 + wo] = g
    gx = np.zeros_like(x)
    for p in range(kh):
        for q in range(kw):
            gx += np.einsum("noij,oc->ncij", gpad[:, :, p:p + h, q:q + w],
                            k[:, :, kh - 1 - p, kw - 1 - q])
    return y + b[:, None, None], gk, g.sum(axis=(0, 2, 3)), gx


# (input shape, output channels, kernel size): the four full-scale generator
# convs, a batch of 2, a kernel wider than tall, a 1x1 output, a batch of 2
# whose stacked input (9 rows) is no taller than its output (16 channels),
# and a kernel taller than wide.
CONV_CASES = [((1, 1, 12, 58), 64, (3, 3)), ((1, 64, 20, 112), 32, (3, 3)),
              ((1, 32, 36, 220), 8, (3, 3)), ((1, 8, 34, 218), 1, (3, 3)),
              ((2, 3, 7, 9), 4, (3, 3)), ((1, 2, 5, 6), 3, (2, 3)),
              ((1, 2, 3, 3), 3, (3, 3)), ((2, 1, 6, 7), 16, (3, 3)),
              ((1, 3, 6, 5), 2, (3, 2))]


def conv_case(shape, co, khw, seed=10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((co, shape[1]) + khw)
    b = rng.standard_normal(co)
    g = rng.standard_normal((shape[0], co, shape[2] - khw[0] + 1, shape[3] - khw[1] + 1))
    return x, k, b, g


class TestConv2dValid:
    @pytest.mark.parametrize("shape,co,khw", CONV_CASES)
    def test_matches_per_tap_reference(self, shape, co, khw):
        x, k, b, g = conv_case(shape, co, khw)
        y_ref, gk_ref, gb_ref, gx_ref = per_tap_conv2d(x, k, b, g)
        y = L.conv2d_valid(x, k, b)
        gk, gb, gx = L.conv2d_valid_backward(x, k, g)
        assert y.shape == y_ref.shape and gx.shape == x.shape and gk.shape == k.shape
        assert rel_err(y, y_ref) < 1e-12
        assert rel_err(gk, gk_ref) < 1e-12
        assert rel_err(gb, gb_ref) < 1e-12
        assert rel_err(gx, gx_ref) < 1e-12

    @pytest.mark.parametrize("shape,co,khw", CONV_CASES)
    def test_adjoint_identity(self, shape, co, khw):
        """conv(x) - b is linear in x and in k: <conv(x) - b, g> = <x, gx> = <k, gk>."""
        x, k, b, g = conv_case(shape, co, khw)
        lhs = float(((L.conv2d_valid(x, k, b) - b[:, None, None]) * g).sum())
        gk, _, gx = L.conv2d_valid_backward(x, k, g)
        assert abs(lhs - float((x * gx).sum())) <= 1e-12 * abs(lhs)
        assert abs(lhs - float((k * gk).sum())) <= 1e-12 * abs(lhs)

    def test_center_one_kernel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 1, 5, 6))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        y = L.conv2d_valid(x, k, np.zeros(1))
        assert np.allclose(y[0, 0], x[0, 0, 1:-1, 1:-1])

    def test_all_ones(self):
        x = np.ones((1, 1, 5, 5))
        k = np.ones((1, 1, 3, 3))
        y = L.conv2d_valid(x, k, np.zeros(1))
        assert np.allclose(y, 9.0)

    def test_input_smaller_than_kernel(self):
        with pytest.raises(ValueError):
            L.conv2d_valid(np.ones((1, 1, 2, 5)), np.ones((1, 1, 3, 3)), np.zeros(1))

    def test_a_gradient_that_would_broadcast_is_refused(self):
        """A (1, co, 1, 1) gradient would fill every output pixel of the stack."""
        with pytest.raises(ValueError, match="gradient shape mismatch"):
            L.conv2d_valid_backward(np.ones((1, 2, 5, 5)), np.ones((3, 2, 3, 3)),
                                    np.ones((1, 3, 1, 1)))

    def test_gradients_vs_fd(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 6, 7))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        g = rng.standard_normal((1, 3, 4, 5))
        gk, gb, gx = L.conv2d_valid_backward(x, k, g)
        loss = lambda: float((g * L.conv2d_valid(x, k, b)).sum())
        assert rel_err(gk, central_difference(loss, k, 1e-6)) < 1e-7
        assert rel_err(gb, central_difference(loss, b, 1e-6)) < 1e-7
        assert rel_err(gx, central_difference(loss, x, 1e-6)) < 1e-7


# (input shape, output channels, kernel size): the three full-scale block
# inputs, one input channel mixed on the coarse grid (9 taps > 8 outputs), a
# batch of 2, the smallest valid input, and a kernel taller than wide.
FUSED_CASES = [((1, 1, 6, 29), 64, (3, 3)), ((1, 64, 10, 56), 32, (3, 3)),
               ((1, 32, 18, 110), 8, (3, 3)), ((1, 1, 6, 29), 8, (3, 3)),
               ((2, 3, 4, 5), 4, (3, 3)), ((1, 2, 2, 2), 3, (3, 3)),
               ((1, 3, 5, 4), 2, (3, 2))]


def fused_case(shape, co, khw, seed=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((co, shape[1]) + khw)
    b = rng.standard_normal(co)
    g = rng.standard_normal((shape[0], co, 2 * shape[2] - khw[0] + 1,
                             2 * shape[3] - khw[1] + 1))
    return x, k, b, g


@pytest.mark.parametrize("kind", ["bilinear", "nearest"])
class TestUpsampleConv2d:
    @pytest.mark.parametrize("shape,co,khw", FUSED_CASES)
    def test_matches_composite(self, kind, shape, co, khw):
        """Forward and every gradient equal upsample2 then conv2d_valid."""
        x, k, b, g = fused_case(shape, co, khw)
        u = L.upsample2(x, kind)
        gk_ref, gb_ref, gu = L.conv2d_valid_backward(u, k, g)
        y = L.upsample_conv2d(x, k, b, kind)
        gk, gb, gx = L.upsample_conv2d_backward(x, k, g, kind)
        assert y.flags.c_contiguous and gk.flags.c_contiguous and gx.flags.c_contiguous
        assert y.shape == g.shape and gk.shape == k.shape and gx.shape == x.shape
        assert rel_err(y, L.conv2d_valid(u, k, b)) <= 1e-14
        assert rel_err(gk, gk_ref) <= 1e-14
        assert rel_err(gb, gb_ref) <= 1e-14
        assert rel_err(gx, L.upsample2_backward(gu, kind)) <= 1e-14

    def test_gradients_vs_fd(self, kind):
        x, k, b, g = fused_case((1, 2, 3, 4), 3, (3, 3))
        gk, gb, gx = L.upsample_conv2d_backward(x, k, g, kind)
        loss = lambda: float((g * L.upsample_conv2d(x, k, b, kind)).sum())
        assert rel_err(gk, central_difference(loss, k, 1e-6)) < 1e-7
        assert rel_err(gb, central_difference(loss, b, 1e-6)) < 1e-7
        assert rel_err(gx, central_difference(loss, x, 1e-6)) < 1e-7

    def test_factors_are_cached_and_read_only(self, kind):
        """H and V come back as the same arrays; a 1x1 kernel's are U_h and U_w^T."""
        hm, vm = L._up2_conv_matrices(5, 7, kind, 3, 3)
        again = L._up2_conv_matrices(5, 7, kind, 3, 3)
        assert again[0] is hm and again[1] is vm
        assert hm.shape == (8, 15) and vm.shape == (21, 12)
        for m in (hm, vm):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 5.0
        h1, v1 = L._up2_conv_matrices(5, 7, kind, 1, 1)
        assert np.array_equal(h1, L._up2_matrix(5, kind))
        assert np.array_equal(v1, L._up2_matrix(7, kind).T)

    def test_shape_errors(self, kind):
        with pytest.raises(ValueError, match="smaller than kernel"):
            L.upsample_conv2d(np.ones((1, 2, 1, 4)), np.ones((1, 2, 3, 3)), np.zeros(1), kind)
        with pytest.raises(ValueError, match="gradient shape"):
            L.upsample_conv2d_backward(np.ones((1, 2, 3, 4)), np.ones((1, 2, 3, 3)),
                                       np.ones((1, 1, 3, 4)), kind)


@pytest.mark.parametrize("layer, x, k", [
    (L.transposed_conv2, np.ones((1, 2, 3, 3)), np.ones((2, 3, 2, 2))),
    (L.conv2d_valid, np.ones((1, 2, 5, 5)), np.ones((3, 2, 3, 3))),
    (lambda x, k, b: L.upsample_conv2d(x, k, b, "bilinear"), np.ones((1, 2, 3, 3)),
     np.ones((3, 2, 3, 3)))], ids=["transposed", "conv", "upsample_conv"])
def test_a_bias_of_one_entry_is_refused(layer, x, k):
    """A one-entry bias would broadcast over every output channel."""
    with pytest.raises(ValueError, match="bias shape mismatch"):
        layer(x, k, np.zeros(1))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((1, 1, 2, 2))
        y, mask = L.dropout(x, 0.0, "train", np.random.default_rng(0))
        assert np.array_equal(y, x)
        assert mask is None

    def test_eval_identity(self):
        x = np.ones((1, 1, 2, 2))
        y, mask = L.dropout(x, 0.5, "eval", None)
        assert np.array_equal(y, x)
        assert mask is None

    def test_inverted_scaling_expectation(self):
        """Elementwise mean over many draws stays within 3 sigma of the input."""
        rng = np.random.default_rng(10)
        rate = 0.1
        n = 100_000
        x = np.full((1, 1, 1, 1), 2.0)
        total = 0.0
        for _ in range(n):
            y, _ = L.dropout(x, rate, "train", rng)
            total += float(y[0, 0, 0, 0])
        mean = total / n
        # per-draw variance of inverted dropout of value v: v^2 * rate/(1-rate)
        sigma = 2.0 * np.sqrt(rate / (1 - rate) / n)
        assert abs(mean - 2.0) < 3 * sigma

    def test_masked_units_get_zero_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1, 8, 8))
        y, mask = L.dropout(x, 0.4, "train", rng)
        g = np.ones_like(x)
        gx = L.dropout_backward(g, mask, 0.4)
        assert np.all(gx[~mask] == 0.0)
        assert np.allclose(gx[mask], 1.0 / 0.6)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            L.dropout(np.ones((1, 1, 1, 1)), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValueError):
            L.dropout(np.ones((1, 1, 1, 1)), -0.1, "eval", None)

    def test_unknown_mode(self):
        """Any mode but "eval" would otherwise drop units."""
        with pytest.raises(ValueError, match="unknown mode 'Eval'"):
            L.dropout(np.ones((1, 1, 1, 1)), 0.5, "Eval", np.random.default_rng(0))


class TestCrop:
    def test_top_aligned_center_columns(self):
        x = np.arange(24.0).reshape(1, 1, 4, 6)
        y, off = L.crop2d(x, (3, 4))
        assert off == 1
        assert np.array_equal(y[0, 0], x[0, 0, :3, 1:5])

    def test_backward_zero_pads(self):
        g = np.ones((1, 1, 3, 4))
        gx = L.crop2d_backward(g, (1, 1, 4, 6), 1)
        assert gx.sum() == 12.0
        assert np.all(gx[0, 0, 3, :] == 0.0)
        assert np.all(gx[0, 0, :, 0] == 0.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            L.crop2d(np.ones((1, 1, 2, 2)), (3, 2))


class TestSmoothingComparison:
    def test_bilinear_smoother_than_nearest_on_average(self):
        """Mean absolute spatial gradient: bilinear <= nearest, averaged
        over 25 random fields."""
        rng = np.random.default_rng(12)
        bil, near = [], []
        for _ in range(25):
            x = rng.standard_normal((1, 1, 6, 9))
            bil.append(mean_abs_gradient(L.upsample2(x, "bilinear")[0, 0]))
            near.append(mean_abs_gradient(L.upsample2(x, "nearest")[0, 0]))
        assert np.mean(bil) < np.mean(near)
