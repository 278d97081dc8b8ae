"""Network layer primitives with hand-derived reverse-mode gradients.

All tensors are numpy float64 arrays of shape (batch, channels, height,
width) with batch fixed at 1.  Each forward function has a matching
backward that propagates the exact gradient of a scalar loss; parameters
and inputs are never mutated.
"""

from __future__ import annotations

from functools import cache

import numpy as np


# -- dense ----------------------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w + b with x (k,), w (k, h), b (h,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or w.shape[0] != x.size or b.shape != (w.shape[1],):
        raise ValueError(f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    return x @ w + b


def dense_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients (gw, gb, gx) of <g, dense(x)>. """
    return np.outer(x, g), g.copy(), w @ g


# -- elementwise ----------------------------------------------------------

def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """``x`` where positive, else ``slope * x``: for a slope in [0, 1] the
    larger of the two, so no branch per element (bit for bit the selection,
    except at x = +inf with slope 0)."""
    return np.maximum(x, slope * x)


def leaky_relu_backward(x: np.ndarray, g: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """``g`` where ``x`` is positive, else ``slope * g``: ``g`` times 1 or the
    slope (the larger of ``x > 0`` and a slope in [0, 1]).  The product gets
    an output array made after the factor: ``g * factor`` raised the peak
    RSS of full-scale pretraining by about 1 MB (heap placement)."""
    return np.multiply(g, np.maximum(x > 0, slope), out=np.empty_like(g))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` where ``x >= 0``, else ``exp(x) / (1 + exp(x))``;
    ``e = exp(-|x|)`` is the exponential of each branch and never overflows
    (taken as ``min(x, -x)``, which keeps a NaN's sign as the branches do)."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward from the stored output y = sigmoid(x)."""
    return g * y * (1.0 - y)


# -- upsampling -----------------------------------------------------------

@cache
def _up2_matrix(n: int, kind: str) -> np.ndarray:
    """Dense (2n, n) matrix that doubles one axis of length n; cached, read-only.

    ``bilinear``: output sample i sits at source coordinate (i + 0.5)/2 - 0.5
    (half-pixel centers) and mixes its two edge-clamped neighbours, so every
    row is a convex combination.  ``nearest``: output i copies source i // 2.
    """
    if kind == "nearest":
        u = np.repeat(np.eye(n), 2, axis=0)
    elif kind == "bilinear":
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        i0 = np.floor(src).astype(int)
        w1 = src - i0
        rows = np.arange(2 * n)
        u = np.zeros((2 * n, n))
        # Two statements, so the weights of neighbours clamped to one edge add up.
        u[rows, np.clip(i0, 0, n - 1)] += 1.0 - w1
        u[rows, np.clip(i0 + 1, 0, n - 1)] += w1
    else:
        raise ValueError(f"unknown upsampler {kind!r}; expected 'bilinear' or 'nearest'")
    u.setflags(write=False)
    return u


@cache
def _up2_conv_matrices(h: int, w: int, kind: str, kh: int, kw: int):
    """Tall and wide factors (H, V) of a kh x kw valid conv of the upsampled
    h x w image; cached, read-only.

    Tap (p, q) reads the upsampled image at (i + p, j + q), i.e. rows
    ``U_h[p:p + ho]`` and ``U_w[q:q + wo]``.  H puts the kernel rows side by
    side, ``H[i, a*kh + p] = U_h[i + p, a]``, and V stacks the kernel
    columns, ``V[q*w + b, j] = U_w[j + q, b]``.  A 1x1 kernel gives U_h and
    U_w^T: plain upsampling.
    """
    if 2 * h < kh or 2 * w < kw:
        raise ValueError(f"upsampled input {2 * h}x{2 * w} smaller than kernel {kh}x{kw}")
    uh, uw = _up2_matrix(h, kind), _up2_matrix(w, kind)
    ho, wo = 2 * h - kh + 1, 2 * w - kw + 1
    hm = np.stack([uh[p:p + ho] for p in range(kh)], axis=2).reshape(ho, h * kh)
    vm = np.concatenate([uw[q:q + wo].T for q in range(kw)])
    hm.setflags(write=False)
    vm.setflags(write=False)
    return hm, vm


def upsample2(x: np.ndarray, kind: str) -> np.ndarray:
    """Double H and W by a separable interpolation: ``U_h X U_w^T`` per channel."""
    n, c, h, w = x.shape
    hm, vm = _up2_conv_matrices(h, w, kind, 1, 1)
    return ((hm @ x).reshape(-1, w) @ vm).reshape(n, c, 2 * h, 2 * w)


def upsample2_backward(g: np.ndarray, kind: str) -> np.ndarray:
    """Exact transpose of :func:`upsample2`: ``U_h^T G U_w``."""
    n, c, h2, w2 = g.shape
    hm, vm = _up2_conv_matrices(h2 // 2, w2 // 2, kind, 1, 1)
    return hm.T @ (g.reshape(-1, w2) @ vm.T).reshape(n, c, h2, w2 // 2)


def transposed_conv2(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: doubles H and W.

    Kernel k has shape (c_in, c_out, 2, 2); blocks do not overlap, so a
    delta kernel produces a zero-interleaved copy of the input.  One GEMM on
    the coarse grid gives tap (a, q) of pixel (i, j), rows ordered (q, o, a);
    stacking its two q halves writes it to (2i + a, 2j + q) along w-long runs.
    """
    n, c, h, w = x.shape
    if k.shape[2:] != (2, 2):  # else a larger kernel would run on its first 2x2 taps
        raise ValueError(f"kernel shape {k.shape} is not (c_in, c_out, 2, 2)")
    if b.shape != (k.shape[1],):
        raise ValueError("bias shape mismatch")
    z = (_mix_matrix(k.transpose(1, 0, 3, 2)) @ x.reshape(n, c, h * w)).reshape(n, 2, -1, 2, h, w)
    # a transpose copy of all six axes would run along pairs (2-3x slower)
    y = np.stack(z.transpose(1, 0, 2, 4, 3, 5), axis=-1).reshape(n, -1, 2 * h, 2 * w)
    return np.add(y, b[:, None, None], out=y)  # in place: a new array costs one more pass


def transposed_conv2_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """Gradients (gk, gb, gx) of <g, transposed_conv2(x, k, b)>: g un-shuffled once
    into the forward's (q, o, a) rows and mix matrix, then one GEMM each for gk, gx."""
    n, c, h, w = x.shape
    gz = g.reshape(n, -1, h, 2, w, 2).transpose(0, 5, 1, 3, 2, 4).reshape(n, -1, h * w)
    gk = (gz @ x.reshape(n, c, h * w).swapaxes(1, 2)).sum(axis=0).reshape(2, -1, 2, c)
    gx = (_mix_matrix(k.transpose(1, 0, 3, 2)).T @ gz).reshape(x.shape)
    return np.ascontiguousarray(gk.transpose(3, 1, 2, 0)), g.sum(axis=(0, 2, 3)), gx


# -- convolution ----------------------------------------------------------

def conv2d_valid(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation over the valid region only (no padding, stride 1).

    x (n, c_in, h, w); k (c_out, c_in, kh, kw); output (n, c_out, h-kh+1,
    w-kw+1).  Flattened, tap (p, q) sends input pixel t + p*w + q to pixel t
    of a w-wide output: one matmul per tap, and the wrapped columns are cut.
    When the taps' stacked windows are no taller than the output (a
    few-channel input), they are stacked and the conv is one matmul.
    """
    n, c, h, w = x.shape
    co, _, kh, kw = k.shape
    if h < kh or w < kw:
        raise ValueError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    if b.shape != (co,):
        raise ValueError("bias shape mismatch")
    ho, wo = h - kh + 1, w - kw + 1
    run = (ho - 1) * w + wo
    x2 = x.reshape(n, c, h * w)
    y = np.zeros((n, co, ho * w))
    if kh * kw * c <= co:
        taps = [x2[..., p * w + q:p * w + q + run] for p, q in np.ndindex(kh, kw)]
        y[..., :run] = k.transpose(0, 2, 3, 1).reshape(co, -1) @ np.concatenate(taps, axis=1)
    else:
        for p, q in np.ndindex(kh, kw):
            s = p * w + q
            y[..., :run] += k[:, :, p, q] @ x2[..., s:s + run]
    return y.reshape(n, co, ho, w)[..., :wo] + b[:, None, None]


def conv2d_valid_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """Gradients (gk, gb, gx) of <g, conv2d_valid(x, k, b)>.

    The kw taps of kernel row p differ only by the column offset q, so g is
    stacked once, written w wide at offsets 0..kw-1 (row block q), and each
    kernel row is two matmuls against the input rows p..p+ho-1.
    """
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    if g.shape != (n, co, ho, wo):
        raise ValueError("gradient shape mismatch")
    span = ho * w  # = run + kw - 1: the run of one tap plus the row's offsets
    x2 = x.reshape(n, c, h * w)
    stack = np.zeros((n, kw, co, ho, w))
    for q in range(kw):
        stack[:, q, :, :, q:q + wo] = g
    g2 = stack.reshape(n, kw * co, span)
    gk = np.empty_like(k)
    gx = np.zeros((n, c, h * w))
    for p in range(kh):
        xp = x2[..., p * w:p * w + span]
        gk[:, :, p, :] = (g2 @ xp.swapaxes(1, 2)).sum(axis=0).reshape(kw, co, c).transpose(1, 2, 0)
        gx[..., p * w:p * w + span] += k[:, :, p, :].transpose(1, 2, 0).reshape(c, kw * co) @ g2
    return gk, g.sum(axis=(0, 2, 3)), gx.reshape(x.shape)


def _mix_matrix(k: np.ndarray) -> np.ndarray:
    """Kernel k (co, ci, kh, kw) as a (kh*co*kw, ci) matrix, rows ordered (p, o, q)."""
    co, ci, kh, kw = k.shape
    return k.transpose(2, 0, 3, 1).reshape(kh * co * kw, ci)


def upsample_conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """``conv2d_valid(upsample2(x, kind), k, b)`` without forming the upsampled image.

    The interpolation acts on each channel alone, so it commutes with the
    kernel's channel mix:
    ``conv(U x) = sum_pq U_h[p:p+ho] (k[:, :, p, q] @ x) U_w[q:q+wo]^T``.
    The mix is one GEMM on the coarse grid; its rows are regrouped (a, p)
    by (o, q, b), so the tall axis is one GEMM with H and the wide axis,
    rows (i, o), one GEMM with V (see :func:`_up2_conv_matrices`).

    When ``kh*kw*c_in <= c_out`` (a few-channel input), mixing first would
    interpolate kh*kw*c_out maps instead of c_in, while the conv of the
    upsampled image is one GEMM over its kh*kw*c_in stacked taps; so that
    input is upsampled first and convolved by :func:`conv2d_valid`.
    """
    n, c, h, w = x.shape
    co, _, kh, kw = k.shape
    if b.shape != (co,):
        raise ValueError("bias shape mismatch")
    if kh * kw * c <= co:
        return conv2d_valid(upsample2(x, kind), k, b)
    hm, vm = _up2_conv_matrices(h, w, kind, kh, kw)
    ho, wo = hm.shape[0], vm.shape[1]
    z = _mix_matrix(k) @ x.reshape(n, c, h * w)  # (n, (p, o, q), (a, b))
    z = z.reshape(n, kh, co * kw, h, w).transpose(0, 3, 1, 2, 4).reshape(n, h * kh, -1)
    y = ((hm @ z).reshape(n * ho * co, kw * w) @ vm).reshape(n, ho, co, wo)
    return np.add(y.transpose(0, 2, 1, 3), b[:, None, None], order="C")


def upsample_conv2d_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray, kind: str):
    """Gradients (gk, gb, gx) of <g, upsample_conv2d(x, k, b, kind)>: the
    forward's three GEMMs transposed, in reverse order (or the composite
    backward, upsampling recomputed, for a few-channel input)."""
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    if kh * kw * c <= co:
        gk, gb, gu = conv2d_valid_backward(upsample2(x, kind), k, g)
        return gk, gb, upsample2_backward(gu, kind)
    hm, vm = _up2_conv_matrices(h, w, kind, kh, kw)
    ho, wo = hm.shape[0], vm.shape[1]
    if g.shape != (n, co, ho, wo):
        raise ValueError("gradient shape mismatch")
    gt = g.transpose(0, 2, 1, 3).reshape(n * ho * co, wo) @ vm.T
    gz = hm.T @ gt.reshape(n, ho, co * kw * w)  # (n, (a, p), (o, q, b))
    gz = gz.reshape(n, h, kh * co * kw, w).transpose(0, 2, 1, 3).reshape(n, -1, h * w)
    km, x2 = _mix_matrix(k), x.reshape(n, c, h * w)
    gk = (gz @ x2.swapaxes(1, 2)).sum(axis=0).reshape(kh, co, kw, ci)
    gx = km.T @ gz
    return (np.ascontiguousarray(gk.transpose(1, 3, 0, 2)), g.sum(axis=(0, 2, 3)),
            gx.reshape(x.shape))


# -- dropout and cropping -------------------------------------------------

def dropout(x: np.ndarray, rate: float, mode: str, rng: np.random.Generator | None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Eval mode is the identity (no rescaling needed).  Returns (y, mask);
    the mask must be fed back to :func:`dropout_backward`.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs a random generator")
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(g: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    if mask is None:
        return g
    return g * mask / (1.0 - rate)


def crop2d(x: np.ndarray, out_hw: tuple[int, int]):
    """Crop rows top-aligned (surface preserved) and columns centered.

    Returns (cropped, column offset); rows are always taken from the top.
    """
    h, w = x.shape[-2], x.shape[-1]
    oh, ow = out_hw
    if oh > h or ow > w:
        raise ValueError(f"cannot crop {h}x{w} down to {oh}x{ow}")
    col_off = (w - ow) // 2
    return x[..., :oh, col_off:col_off + ow], col_off


def crop2d_backward(g: np.ndarray, in_shape, col_off: int) -> np.ndarray:
    gx = np.zeros(in_shape, dtype=float)
    oh, ow = g.shape[-2], g.shape[-1]
    gx[..., :oh, col_off:col_off + ow] = g
    return gx
