"""The convolutional model generator: a fixed latent vector mapped to a
log-conductivity image.

Topology: dense -> LeakyReLU -> reshape (1, 1, seed rows, seed cols) ->
n upsample+conv(3x3 valid)+LeakyReLU blocks -> conv(3x3 valid) -> sigmoid
-> crop to the mesh shape -> multiply by ``output_scale`` -> flatten
row-major.  With a scale of -8 every output cell lies in (-8, 0), i.e.
conductivities between exp(-8) and 1 S/m.

Each upsample+conv block shrinks nothing but the valid-conv margin, so the
spatial size after n blocks plus the output conv is ``2**n * (seed - 2)``
per axis; :func:`arch_for_mesh` inverts that to pick the smallest seed
covering a mesh.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CheckpointError
from . import layers

UPSAMPLERS = ("bilinear", "nearest", "transposed")

# Default channel plans per hidden-block count.
DEFAULT_CHANNELS = {
    1: (64,),
    2: (64, 8),
    3: (64, 32, 8),
    4: (64, 64, 32, 8),
    5: (64, 64, 64, 32, 8),
}


@dataclass(frozen=True)
class ArchConfig:
    """Architecture descriptor; all shape logic derives from these fields."""

    latent_dim: int = 8
    seed_shape: tuple[int, int] = (6, 29)
    channels: tuple[int, ...] = (64, 32, 8)
    upsampler: str = "bilinear"
    negative_slope: float = 0.2
    output_scale: float = -8.0
    dropout_rate: float = 0.0  # applied after the last hidden block, train mode only

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if len(self.seed_shape) != 2 or min(self.seed_shape) < 1:
            raise ValueError("seed_shape must be two positive integers")
        if not 1 <= len(self.channels) <= 5 or any(c < 1 for c in self.channels):
            raise ValueError("need 1..5 hidden blocks with positive channel counts")
        if self.upsampler not in UPSAMPLERS:
            raise ValueError(f"upsampler must be one of {UPSAMPLERS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        object.__setattr__(self, "seed_shape", tuple(int(v) for v in self.seed_shape))
        object.__setattr__(self, "channels", tuple(int(v) for v in self.channels))

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    @property
    def hidden_width(self) -> int:
        return self.seed_shape[0] * self.seed_shape[1]

    @property
    def pre_crop_shape(self) -> tuple[int, int]:
        n = self.n_blocks
        return (2 ** n * (self.seed_shape[0] - 2), 2 ** n * (self.seed_shape[1] - 2))

    def to_dict(self) -> dict:
        return {
            "latent_dim": self.latent_dim,
            "seed_shape": list(self.seed_shape),
            "channels": list(self.channels),
            "upsampler": self.upsampler,
            "negative_slope": self.negative_slope,
            "output_scale": self.output_scale,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        d = dict(d)
        d["seed_shape"] = tuple(d["seed_shape"])
        d["channels"] = tuple(d["channels"])
        return cls(**d)


def arch_for_mesh(nz: int, nx: int, n_blocks: int = 3, upsampler: str = "bilinear",
                  dropout_rate: float = 0.0, latent_dim: int = 8,
                  output_scale: float = -8.0,
                  channels: tuple[int, ...] | None = None) -> ArchConfig:
    """Smallest seed shape whose generated image covers an (nz, nx) mesh."""
    if channels is None:
        if n_blocks not in DEFAULT_CHANNELS:
            raise ValueError(f"no default channel plan for {n_blocks} blocks")
        channels = DEFAULT_CHANNELS[n_blocks]
    elif len(channels) != n_blocks:
        raise ValueError("channel plan length must equal n_blocks")
    scale = 2 ** n_blocks
    seed = (-(-nz // scale) + 2, -(-nx // scale) + 2)
    return ArchConfig(latent_dim=latent_dim, seed_shape=seed, channels=tuple(channels),
                      upsampler=upsampler, dropout_rate=dropout_rate,
                      output_scale=output_scale)


def sample_latent(rng_seed: int, dim: int = 8, std: float = 10.0) -> np.ndarray:
    """The fixed network input: Gaussian with mean 0 and standard deviation 10."""
    z = std * np.random.default_rng(rng_seed).standard_normal(dim)
    z.setflags(write=False)
    return z


@dataclass
class NetParams:
    """Trainable arrays plus the architecture they belong to."""

    arch: ArchConfig
    arrays: dict[str, np.ndarray]

    def copy(self) -> "NetParams":
        return NetParams(self.arch, {k: v.copy() for k, v in self.arrays.items()})


def _layer_shapes(arch: ArchConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) for every parameter array, in forward order."""
    out = [("fc.w", (arch.latent_dim, arch.hidden_width), arch.latent_dim),
           ("fc.b", (arch.hidden_width,), 0)]
    c_in = 1
    for i, c_out in enumerate(arch.channels, start=1):
        if arch.upsampler == "transposed":
            out.append((f"up{i}.k", (c_in, c_in, 2, 2), c_in * 4))
            out.append((f"up{i}.b", (c_in,), 0))
        out.append((f"conv{i}.k", (c_out, c_in, 3, 3), c_in * 9))
        out.append((f"conv{i}.b", (c_out,), 0))
        c_in = c_out
    out.append(("out.k", (1, c_in, 3, 3), c_in * 9))
    out.append(("out.b", (1,), 0))
    return out


def init_params(rng_seed: int, arch: ArchConfig) -> NetParams:
    """Uniform +-sqrt(1/fan_in) weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    arrays = {}
    for name, shape, fan_in in _layer_shapes(arch):
        if fan_in == 0:
            arrays[name] = np.zeros(shape)
        else:
            bound = np.sqrt(1.0 / fan_in)
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return NetParams(arch=arch, arrays=arrays)


def param_count(params: NetParams) -> int:
    return sum(a.size for a in params.arrays.values())


@dataclass
class _BlockCache:
    up_in: np.ndarray
    conv_in: np.ndarray
    conv_pre: np.ndarray


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation.

    ``params_arrays`` holds references to the parameter arrays as of the
    forward call (the optimizer replaces arrays rather than mutating them,
    so these stay valid even after an update).
    """

    arch: ArchConfig
    mesh_shape: tuple[int, int]
    z: np.ndarray
    fc_pre: np.ndarray
    params_arrays: dict[str, np.ndarray]
    blocks: list[_BlockCache] = field(default_factory=list)
    dropout_mask: np.ndarray | None = None
    out_conv_in: np.ndarray | None = None
    sig_out: np.ndarray | None = None
    col_off: int = 0


def net_forward(params: NetParams, z: np.ndarray, mesh_shape: tuple[int, int],
                mode: str = "eval", rng: np.random.Generator | None = None):
    """Evaluate the generator; returns (model vector, trace for backward).

    ``mesh_shape`` is (nz, nx); the generated image is cropped to it
    (rows top-aligned, columns centered) and flattened row-major,
    shallowest row first.
    """
    arch = params.arch
    a = params.arrays
    nz, nx = mesh_shape
    pre = arch.pre_crop_shape
    if pre[0] < nz or pre[1] < nx:
        raise ValueError(f"network output {pre} smaller than mesh shape {(nz, nx)}")
    z = np.asarray(z, dtype=float)
    if z.shape != (arch.latent_dim,):
        raise ValueError(f"latent vector must have length {arch.latent_dim}")

    trace = ForwardTrace(arch=arch, mesh_shape=(nz, nx), z=z,
                         fc_pre=layers.dense_forward(z, a["fc.w"], a["fc.b"]),
                         params_arrays=dict(a))
    act = layers.leaky_relu(trace.fc_pre, arch.negative_slope)
    t = act.reshape(1, 1, *arch.seed_shape)

    for i in range(1, arch.n_blocks + 1):
        up_in = t
        if arch.upsampler == "transposed":
            u = layers.transposed_conv2(t, a[f"up{i}.k"], a[f"up{i}.b"])
        else:
            u = layers.upsample2(t, arch.upsampler)
        c = layers.conv2d_valid(u, a[f"conv{i}.k"], a[f"conv{i}.b"])
        trace.blocks.append(_BlockCache(up_in=up_in, conv_in=u, conv_pre=c))
        t = layers.leaky_relu(c, arch.negative_slope)

    t, trace.dropout_mask = layers.dropout(t, arch.dropout_rate, mode, rng)
    trace.out_conv_in = t
    o = layers.conv2d_valid(t, a["out.k"], a["out.b"])
    s = layers.sigmoid(o)
    trace.sig_out = s
    cropped, trace.col_off = layers.crop2d(s, (nz, nx))
    m = (arch.output_scale * cropped).reshape(-1)
    return m, trace


def net_backward(trace: ForwardTrace, g: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of <g, net_forward(params)> with respect to every parameter."""
    arch = trace.arch
    a = trace.params_arrays
    nz, nx = trace.mesh_shape
    g = np.asarray(g, dtype=float)
    if g.shape != (nz * nx,):
        raise ValueError(f"model gradient must have length {nz * nx}")
    grads: dict[str, np.ndarray] = {}

    gc = arch.output_scale * g.reshape(1, 1, nz, nx)
    gs = layers.crop2d_backward(gc, trace.sig_out.shape, trace.col_off)
    go = layers.sigmoid_backward(trace.sig_out, gs)
    gk, gb, gt = layers.conv2d_valid_backward(trace.out_conv_in, a["out.k"], go)
    grads["out.k"] = gk
    grads["out.b"] = gb
    gt = layers.dropout_backward(gt, trace.dropout_mask, arch.dropout_rate)

    for i in range(arch.n_blocks, 0, -1):
        blk = trace.blocks[i - 1]
        glr = layers.leaky_relu_backward(blk.conv_pre, gt, arch.negative_slope)
        gk, gb, gu = layers.conv2d_valid_backward(blk.conv_in, a[f"conv{i}.k"], glr)
        grads[f"conv{i}.k"] = gk
        grads[f"conv{i}.b"] = gb
        if arch.upsampler == "transposed":
            guk, gub, gt = layers.transposed_conv2_backward(blk.up_in, a[f"up{i}.k"], gu)
            grads[f"up{i}.k"] = guk
            grads[f"up{i}.b"] = gub
        else:
            gt = layers.upsample2_backward(gu, arch.upsampler)

    gact = gt.reshape(-1)
    gfc = layers.leaky_relu_backward(trace.fc_pre, gact, arch.negative_slope)
    gw, gb, _ = layers.dense_backward(trace.z, a["fc.w"], gfc)
    grads["fc.w"] = gw
    grads["fc.b"] = gb
    return grads


def save_params(path, params: NetParams) -> None:
    """Checkpoint: named arrays plus a JSON architecture descriptor."""
    np.savez(path, __arch__=np.array(json.dumps(params.arch.to_dict())),
             **params.arrays)


def load_params(path) -> NetParams:
    """Read a :func:`save_params` checkpoint; any other file raises
    :class:`~dcinv.errors.CheckpointError` naming it."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise CheckpointError(f"checkpoint {path} is not an .npz archive") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise CheckpointError(f"checkpoint {path} is a single array, not an .npz archive")
    with archive as f:
        if "__arch__" not in f.files:
            raise CheckpointError(f"checkpoint {path} has no __arch__ "
                                  "(architecture) entry")
        try:
            arch = ArchConfig.from_dict(json.loads(str(f["__arch__"])))
            arrays = {k: f[k] for k in f.files if k != "__arch__"}
        except (ValueError, TypeError, KeyError, zipfile.BadZipFile) as e:
            raise CheckpointError(f"checkpoint {path} is unreadable: {e!r}") from None
    expected = {name for name, _, _ in _layer_shapes(arch)}
    if set(arrays) != expected:
        raise CheckpointError(f"checkpoint {path}: arrays do not match the stored "
                              "architecture")
    return NetParams(arch=arch, arrays=arrays)
