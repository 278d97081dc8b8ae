"""Network layer primitives with hand-derived reverse-mode gradients.

All tensors are numpy float64 arrays of shape (batch, channels, height,
width) with batch fixed at 1.  Each forward function has a matching
backward that propagates the exact gradient of a scalar loss; parameters
and inputs are never mutated.
"""

from __future__ import annotations

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
    if g.shape != (w.shape[1],):
        raise ValueError("gradient shape mismatch")
    return np.outer(x, g), g.copy(), w @ g


# -- elementwise ----------------------------------------------------------

def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_backward(x: np.ndarray, g: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return g * np.where(x > 0, 1.0, slope)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(np.asarray(x, dtype=float))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward from the stored output y = sigmoid(x)."""
    return g * y * (1.0 - y)


# -- upsampling -----------------------------------------------------------

def _up2_matrix(n: int, kind: str) -> np.ndarray:
    """Dense (2n, n) matrix that doubles one axis of length n.

    ``bilinear``: output sample i sits at source coordinate (i + 0.5)/2 - 0.5
    (half-pixel centers) and mixes its two edge-clamped neighbours, so every
    row is a convex combination.  ``nearest``: output i copies source i // 2.
    """
    if kind == "nearest":
        return np.repeat(np.eye(n), 2, axis=0)
    if kind != "bilinear":
        raise ValueError(f"unknown upsampler {kind!r}; expected 'bilinear' or 'nearest'")
    src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    i0 = np.floor(src).astype(int)
    w1 = src - i0
    rows = np.arange(2 * n)
    u = np.zeros((2 * n, n))
    # Two statements, so the weights of neighbours clamped to one edge add up.
    u[rows, np.clip(i0, 0, n - 1)] += 1.0 - w1
    u[rows, np.clip(i0 + 1, 0, n - 1)] += w1
    return u


def upsample2(x: np.ndarray, kind: str) -> np.ndarray:
    """Double H and W by a separable interpolation: ``U_h X U_w^T`` per channel."""
    u_h = _up2_matrix(x.shape[-2], kind)
    u_w = _up2_matrix(x.shape[-1], kind)
    return u_h @ x @ u_w.T


def upsample2_backward(g: np.ndarray, kind: str) -> np.ndarray:
    """Exact transpose of :func:`upsample2`: ``U_h^T G U_w``."""
    u_h = _up2_matrix(g.shape[-2] // 2, kind)
    u_w = _up2_matrix(g.shape[-1] // 2, kind)
    return u_h.T @ g @ u_w


def transposed_conv2(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: doubles H and W.

    Kernel k has shape (c_in, c_out, 2, 2); blocks do not overlap, so a
    delta kernel produces a zero-interleaved copy of the input.
    """
    n, c, h, w = x.shape
    if k.ndim != 4 or k.shape[0] != c or k.shape[2:] != (2, 2):
        raise ValueError(f"kernel shape {k.shape} incompatible with input {x.shape}")
    if b.shape != (k.shape[1],):
        raise ValueError("bias shape mismatch")
    y6 = np.einsum("ncij,coab->noiajb", x, k)
    y = y6.reshape(n, k.shape[1], 2 * h, 2 * w)
    return y + b[:, None, None]


def transposed_conv2_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    n, c, h, w = x.shape
    co = k.shape[1]
    if g.shape != (n, co, 2 * h, 2 * w):
        raise ValueError("gradient shape mismatch")
    g6 = g.reshape(n, co, h, 2, w, 2)
    gk = np.einsum("ncij,noiajb->coab", x, g6)
    gb = g.sum(axis=(0, 2, 3))
    gx = np.einsum("noiajb,coab->ncij", g6, k)
    return gk, gb, gx


# -- convolution ----------------------------------------------------------

def conv2d_valid(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation over the valid region only (no padding, stride 1).

    x (n, c_in, h, w); k (c_out, c_in, kh, kw); output (n, c_out, h-kh+1,
    w-kw+1).  Flattened, tap (p, q) sends input pixel t + p*w + q to pixel t
    of a w-wide output: one matmul per tap, and the wrapped columns are cut
    (the backward pass zero-pads g over them).
    """
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    if ci != c:
        raise ValueError(f"kernel expects {ci} channels, input has {c}")
    if h < kh or w < kw:
        raise ValueError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    if b.shape != (co,):
        raise ValueError("bias shape mismatch")
    ho, wo = h - kh + 1, w - kw + 1
    run = (ho - 1) * w + wo
    x2 = x.reshape(n, c, h * w)
    y = np.zeros((n, co, ho * w))
    for p, q in np.ndindex(kh, kw):
        s = p * w + q
        y[..., :run] += k[:, :, p, q] @ x2[..., s:s + run]
    return y.reshape(n, co, ho, w)[..., :wo] + b[:, None, None]


def conv2d_valid_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    if g.shape != (n, co, ho, wo):
        raise ValueError("gradient shape mismatch")
    run = (ho - 1) * w + wo
    x2 = x.reshape(n, c, h * w)
    g2 = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, kw - 1))).reshape(n, co, ho * w)[..., :run]
    gk = np.empty_like(k)
    gx = np.zeros((n, c, h * w))
    for p, q in np.ndindex(kh, kw):
        s = p * w + q
        gk[:, :, p, q] = (g2 @ x2[..., s:s + run].swapaxes(1, 2)).sum(axis=0)
        gx[..., s:s + run] += k[:, :, p, q].T @ g2
    return gk, g.sum(axis=(0, 2, 3)), gx.reshape(x.shape)


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
