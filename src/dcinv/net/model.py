"""The convolutional model generator: a fixed latent vector mapped to a
log-conductivity image.

Topology: dense -> LeakyReLU -> reshape (1, 1, seed rows, seed cols) ->
n upsample+conv(3x3 valid)+LeakyReLU blocks -> conv(3x3 valid) -> sigmoid
-> crop to the mesh shape -> multiply by ``output_scale`` -> flatten
row-major.  With a scale of -8 every output cell lies in (-8, 0), i.e.
conductivities between exp(-8) and 1 S/m.

With ``bilinear`` or ``nearest`` each upsample+conv is one fused operator
(:func:`~dcinv.net.layers.upsample_conv2d`) that never forms the upsampled
image; the ``transposed`` upsampler's learned kernel does not commute with
the conv, so that variant upsamples and then convolves.

Each upsample+conv block shrinks nothing but the valid-conv margin, so the
spatial size after n blocks plus the output conv is ``2**n * (seed - 2)``
per axis; :func:`arch_for_mesh` inverts that to pick the smallest seed
covering a mesh.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import CheckpointError
from ..fileio import from_fields
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
        if not 0.0 <= self.negative_slope <= 1.0:  # the leaky ReLU takes a maximum
            raise ValueError("negative slope must be in [0, 1]")
        if not np.isfinite(self.output_scale):
            raise ValueError("output_scale must be finite")
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
        """The fields in declaration order, tuples as lists (the JSON form)."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def arch_for_mesh(nz: int, nx: int, n_blocks: int = 3, upsampler: str = "bilinear",
                  dropout_rate: float = 0.0, latent_dim: int = 8,
                  channels: tuple[int, ...] | None = None) -> ArchConfig:
    """Smallest seed shape whose generated image covers an (nz, nx) mesh."""
    if channels is None:
        if n_blocks not in DEFAULT_CHANNELS:
            raise ValueError(f"n_blocks must be one of {tuple(DEFAULT_CHANNELS)}, "
                             f"got {n_blocks!r}")
        channels = DEFAULT_CHANNELS[n_blocks]
    elif len(channels) != n_blocks:
        raise ValueError("channel plan length must equal n_blocks")
    scale = 2 ** n_blocks
    seed = (-(-nz // scale) + 2, -(-nx // scale) + 2)
    return ArchConfig(latent_dim=latent_dim, seed_shape=seed, channels=tuple(channels),
                      upsampler=upsampler, dropout_rate=dropout_rate)


def sample_latent(rng_seed: int, dim: int = 8) -> np.ndarray:
    """The fixed network input: Gaussian with mean 0 and standard deviation 10."""
    z = 10.0 * np.random.default_rng(rng_seed).standard_normal(dim)
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


@dataclass
class _BlockCache:
    up_in: np.ndarray  # the block's coarse input
    conv_pre: np.ndarray
    conv_in: np.ndarray | None = None  # the transposed upsampler's output


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
    z = np.asarray(z, dtype=float)  # dense_forward checks its length

    trace = ForwardTrace(arch=arch, mesh_shape=(nz, nx), z=z,
                         fc_pre=layers.dense_forward(z, a["fc.w"], a["fc.b"]),
                         params_arrays=dict(a))
    act = layers.leaky_relu(trace.fc_pre, arch.negative_slope)
    t = act.reshape(1, 1, *arch.seed_shape)

    for i in range(1, arch.n_blocks + 1):
        k, bias = a[f"conv{i}.k"], a[f"conv{i}.b"]
        if arch.upsampler == "transposed":
            u = layers.transposed_conv2(t, a[f"up{i}.k"], a[f"up{i}.b"])
            blk = _BlockCache(up_in=t, conv_pre=layers.conv2d_valid(u, k, bias), conv_in=u)
        else:
            blk = _BlockCache(up_in=t, conv_pre=layers.upsample_conv2d(t, k, bias,
                                                                       arch.upsampler))
        trace.blocks.append(blk)
        t = layers.leaky_relu(blk.conv_pre, arch.negative_slope)

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
        k = a[f"conv{i}.k"]
        if arch.upsampler == "transposed":
            gk, gb, gu = layers.conv2d_valid_backward(blk.conv_in, k, glr)
            guk, gub, gt = layers.transposed_conv2_backward(blk.up_in, a[f"up{i}.k"], gu)
            grads[f"up{i}.k"] = guk
            grads[f"up{i}.b"] = gub
        else:
            gk, gb, gt = layers.upsample_conv2d_backward(blk.up_in, k, glr, arch.upsampler)
        grads[f"conv{i}.k"] = gk
        grads[f"conv{i}.b"] = gb

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
    """Read a :func:`save_params` checkpoint.  Any other file, and a
    checkpoint whose arrays are not the finite float64 arrays of the shapes
    its ``__arch__`` names, raises :class:`~dcinv.errors.CheckpointError`
    naming it; a file that cannot be opened raises ``OSError``."""
    # Damaged bytes make numpy and zipfile raise any of a dozen types
    # (EOFError, OSError, NotImplementedError, RuntimeError, zlib.error, ...),
    # so every failure to parse the opened file is a CheckpointError.
    with open(path, "rb") as fid:
        try:
            archive = np.load(fid, allow_pickle=False)
        except Exception:
            raise CheckpointError(f"checkpoint {path} is not an .npz archive") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(f"checkpoint {path} is a single array, not an .npz archive")
        with archive as f:
            if "__arch__" not in f.files:
                raise CheckpointError(f"checkpoint {path} has no __arch__ "
                                      "(architecture) entry")
            try:
                descriptor = json.loads(str(f["__arch__"]))
                arrays = {k: f[k] for k in f.files if k != "__arch__"}
            except Exception as e:
                raise CheckpointError(f"checkpoint {path} is unreadable: {e!r}") from None
    try:
        arch = from_fields(ArchConfig, descriptor, "__arch__")
    except ValueError as e:
        raise CheckpointError(f"checkpoint {path}: {e}") from None
    shapes = {name: shape for name, shape, _ in _layer_shapes(arch)}
    if set(arrays) != set(shapes):
        raise CheckpointError(f"checkpoint {path}: arrays do not match the stored "
                              "architecture")
    for name, shape in shapes.items():
        a = arrays[name]
        if a.dtype != np.float64 or a.shape != shape:
            raise CheckpointError(f"checkpoint {path}: {name} is {a.dtype} {a.shape}, "
                                  f"the architecture needs float64 {shape}")
        if not np.isfinite(a).all():
            raise CheckpointError(f"checkpoint {path}: {name} holds a non-finite value")
    return NetParams(arch=arch, arrays=arrays)
