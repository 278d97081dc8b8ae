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

The layer sequence is written once, in :func:`net_forward`: each layer puts
a step on a tape (:class:`ForwardTrace`), its backward bound to what it
reads, and :func:`net_backward` replays the tape last first (reverse mode;
Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).

Each upsample+conv block shrinks nothing but the valid-conv margin, so the
spatial size after n blocks plus the output conv is ``2**n * (seed - 2)``
per axis; :func:`arch_for_mesh` inverts that to pick the smallest seed
covering a mesh.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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
class ForwardTrace:
    """The tape of one :func:`net_forward` call.

    ``steps`` holds one ``(names, backward)`` pair per layer, in forward
    order: the parameters the layer trains (none for the pointwise layers,
    the reshape, dropout, crop and output scaling), and a closure taking the
    gradient of the layer's output to theirs and then to its input's.  A
    closure holds what its backward reads: the parameter arrays of the
    forward call (the optimizer replaces arrays, never mutates them), the
    pre-activations, a block's coarse input (never an interpolated image)
    and the transposed upsampler's output.  ``kinks`` lists the leaky-ReLU
    inputs, shallowest first.
    """

    steps: list[tuple[tuple[str, ...], Callable]] = field(default_factory=list)
    kinks: list[np.ndarray] = field(default_factory=list)


def _leaky_relu(trace: ForwardTrace, x: np.ndarray, slope: float) -> np.ndarray:
    """The leaky ReLU of ``x``, with ``x`` kept as a kink and its backward taped."""
    trace.kinks.append(x)
    trace.steps.append(((), lambda g: layers.leaky_relu_backward(x, g, slope)))
    return layers.leaky_relu(x, slope)


def _block(trace: ForwardTrace, arch: ArchConfig, a: dict, i: int, x: np.ndarray) -> np.ndarray:
    """Hidden block ``i`` (upsample, conv, leaky ReLU) of its coarse input ``x``, taped."""
    k, b = a[f"conv{i}.k"], a[f"conv{i}.b"]
    conv = (f"conv{i}.k", f"conv{i}.b")
    if arch.upsampler == "transposed":
        uk = a[f"up{i}.k"]
        u = layers.transposed_conv2(x, uk, a[f"up{i}.b"])
        trace.steps += [((f"up{i}.k", f"up{i}.b"),
                         lambda g: layers.transposed_conv2_backward(x, uk, g)),
                        (conv, lambda g: layers.conv2d_valid_backward(u, k, g))]
        pre = layers.conv2d_valid(u, k, b)
    else:
        pre = layers.upsample_conv2d(x, k, b, arch.upsampler)
        trace.steps.append(
            (conv, lambda g: layers.upsample_conv2d_backward(x, k, g, arch.upsampler)))
    return _leaky_relu(trace, pre, arch.negative_slope)


def net_forward(params: NetParams, z: np.ndarray, mesh_shape: tuple[int, int],
                mode: str = "eval", rng: np.random.Generator | None = None):
    """Evaluate the generator; returns (model vector, its tape for :func:`net_backward`).

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

    trace = ForwardTrace()
    w = a["fc.w"]
    fc = layers.dense_forward(z, w, a["fc.b"])
    trace.steps.append((("fc.w", "fc.b"), lambda g: layers.dense_backward(z, w, g)))
    act = _leaky_relu(trace, fc, arch.negative_slope)
    trace.steps.append(((), lambda g: g.reshape(-1)))
    t = act.reshape(1, 1, *arch.seed_shape)
    for i in range(1, arch.n_blocks + 1):
        t = _block(trace, arch, a, i, t)

    h, mask = layers.dropout(t, arch.dropout_rate, mode, rng)
    k = a["out.k"]
    s = layers.sigmoid(layers.conv2d_valid(h, k, a["out.b"]))
    cropped, col_off = layers.crop2d(s, (nz, nx))
    trace.steps += [((), lambda g: layers.dropout_backward(g, mask, arch.dropout_rate)),
                    (("out.k", "out.b"), lambda g: layers.conv2d_valid_backward(h, k, g)),
                    ((), lambda g: layers.sigmoid_backward(s, g)),
                    ((), lambda g: layers.crop2d_backward(g, s.shape, col_off)),
                    ((), lambda g: arch.output_scale * g.reshape(1, 1, nz, nx))]
    return (arch.output_scale * cropped).reshape(-1), trace


def net_backward(trace: ForwardTrace, g: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of <g, net_forward(params)> with respect to every parameter:
    the tape's steps run last first, each taking the gradient of its layer's
    output to those of the layer's parameters and input."""
    g = np.asarray(g, dtype=float)
    grads: dict[str, np.ndarray] = {}
    for names, backward in reversed(trace.steps):
        g = backward(g)
        if names:
            *trained, g = g
            grads.update(zip(names, trained))
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
