"""Model grid rendering to a plain binary pixmap (PPM, P6).

The color ramp is a fixed three-anchor linear blend, dark blue (low) over
white to dark red (high): t in [0, 1] maps to

    t <= 0.5:  (0, 0, 128)   -> (255, 255, 255)   at 2t
    t >  0.5:  (255, 255, 255)-> (128, 0, 0)       at 2t - 1

with channels rounded to the nearest integer.  Grid minimum and maximum
map to the ramp endpoints; a constant grid renders at the midpoint.
"""

from __future__ import annotations

import numpy as np

from .trace import load_grid

_LOW = np.array([0.0, 0.0, 128.0])
_MID = np.array([255.0, 255.0, 255.0])
_HIGH = np.array([128.0, 0.0, 0.0])
_MAX_PIXELS = 2 ** 26  # 192 MiB of RGB


def _ramp_image(norm: np.ndarray) -> np.ndarray:
    t = np.clip(norm, 0.0, 1.0)
    low = t <= 0.5
    rgb = np.empty(t.shape + (3,))
    rgb[low] = _LOW + (2.0 * t[low, None]) * (_MID - _LOW)
    rgb[~low] = _MID + (2.0 * t[~low, None] - 1.0) * (_HIGH - _MID)
    return np.rint(rgb).astype(np.uint8)


def render_grid(grid_path, out_path, vmin: float | None = None,
                vmax: float | None = None, upscale: int = 1,
                pad_x: int = 0, pad_z: int = 0) -> None:
    """Write a P6 pixmap of a model grid file.

    One pixel per cell before ``upscale`` (integer replication).  When the
    padding cell counts are given, the core region is outlined with a
    1-pixel black frame drawn just inside its boundary.  The grid fills in
    a colour limit not given; limits given must be finite and leave
    ``vmin < vmax``.
    """
    values, nx, nz = load_grid(grid_path)
    if upscale < 1:
        raise ValueError("upscale must be >= 1")
    if nx * nz * upscale ** 2 > _MAX_PIXELS:  # refused before the image is allocated
        raise ValueError(f"--upscale {upscale} makes a {nx * upscale} x {nz * upscale} image, "
                         f"over the bound of {_MAX_PIXELS} pixels")
    grid = values.reshape(nz, nx)
    lo = float(grid.min()) if vmin is None else float(vmin)
    hi = float(grid.max()) if vmax is None else float(vmax)
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"colour limits must be finite, got vmin={lo}, vmax={hi}")
    if (vmin, vmax) != (None, None) and not lo < hi:
        raise ValueError(f"colour limits must have vmin < vmax, got vmin={lo}, vmax={hi}")
    if hi > lo:
        half = 0.5 if np.isinf(hi - lo) else 1.0  # a span past the float range, halved
        with np.errstate(over="ignore"):  # a range narrower than the grid: clipped to its ends
            norm = (half * grid - half * lo) / (half * hi - half * lo)
    else:
        norm = np.full(grid.shape, 0.5)
    img = _ramp_image(norm)

    if pad_x or pad_z:
        r0, r1 = 0, nz - pad_z - 1
        c0, c1 = pad_x, nx - pad_x - 1
        if not (0 <= r0 <= r1 < nz and 0 <= c0 <= c1 < nx):
            raise ValueError("padding counts exceed the grid")
        img[r0, c0:c1 + 1] = 0
        img[r1, c0:c1 + 1] = 0
        img[r0:r1 + 1, c0] = 0
        img[r0:r1 + 1, c1] = 0

    if upscale > 1:
        img = np.repeat(np.repeat(img, upscale, axis=0), upscale, axis=1)

    h, w = img.shape[:2]
    with open(out_path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())
