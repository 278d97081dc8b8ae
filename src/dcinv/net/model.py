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

The layers are declared once, in ``_plan``.  :func:`net_forward` puts each
step on a tape (:class:`ForwardTrace`) under its layer's label, its backward
bound to what it reads, and :func:`net_backward` replays the tape last first
(reverse mode; Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).

Each upsample+conv block shrinks nothing but the valid-conv margin, so the
spatial size after n blocks plus the output conv is ``2**n * (seed - 2)``
per axis; :func:`arch_for_mesh` inverts that to pick the smallest seed
covering a mesh.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import CheckpointError
from ..fileio import check_ranges, from_fields, ranged
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

    latent_dim: int = ranged(8, "[1, inf)")
    seed_shape: tuple[int, int] = (6, 29)
    channels: tuple[int, ...] = (64, 32, 8)
    upsampler: str = "bilinear"
    negative_slope: float = ranged(0.2, "[0, 1]")  # the leaky ReLU takes a maximum
    output_scale: float = ranged(-8.0, "(-inf, inf)")
    dropout_rate: float = ranged(0.0, "[0, 1)")  # after the last hidden block, train mode only

    def __post_init__(self):
        check_ranges(self)
        if len(self.seed_shape) != 2 or min(self.seed_shape) < 1:
            raise ValueError("seed_shape must be two positive integers")
        if not 1 <= len(self.channels) <= 5 or any(c < 1 for c in self.channels):
            raise ValueError("need 1..5 hidden blocks with positive channel counts")
        if self.upsampler not in UPSAMPLERS:
            raise ValueError(f"upsampler must be one of {UPSAMPLERS}")
        object.__setattr__(self, "seed_shape", tuple(int(v) for v in self.seed_shape))
        object.__setattr__(self, "channels", tuple(int(v) for v in self.channels))

    @property
    def hidden_width(self) -> int:
        return self.seed_shape[0] * self.seed_shape[1]

    @property
    def pre_crop_shape(self) -> tuple[int, int]:
        n = len(self.channels)
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


_Layer = namedtuple("_Layer", "label params")


def _plan(arch: ArchConfig) -> list[_Layer]:
    """Each layer in forward order: its label (``fc``, ``block1`` ..., ``out``)
    and its parameters' name -> (shape, fan_in), a bias's fan_in 0."""
    h, c_in = arch.hidden_width, 1
    plan = [_Layer("fc", {"fc.w": ((arch.latent_dim, h), arch.latent_dim), "fc.b": ((h,), 0)})]
    for i, c_out in enumerate(arch.channels, start=1):
        up = ({f"up{i}.k": ((c_in, c_in, 2, 2), c_in * 4), f"up{i}.b": ((c_in,), 0)}
              if arch.upsampler == "transposed" else {})
        plan.append(_Layer(f"block{i}", {**up, f"conv{i}.k": ((c_out, c_in, 3, 3), c_in * 9),
                                         f"conv{i}.b": ((c_out,), 0)}))
        c_in = c_out
    plan.append(_Layer("out", {"out.k": ((1, c_in, 3, 3), c_in * 9), "out.b": ((1,), 0)}))
    return plan


def init_params(rng_seed: int, arch: ArchConfig) -> NetParams:
    """Uniform +-sqrt(1/fan_in) weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    arrays = {}
    for layer in _plan(arch):
        for name, (shape, fan_in) in layer.params.items():
            if fan_in == 0:
                arrays[name] = np.zeros(shape)
            else:
                bound = np.sqrt(1.0 / fan_in)
                arrays[name] = rng.uniform(-bound, bound, size=shape)
    return NetParams(arch=arch, arrays=arrays)


@dataclass
class ForwardTrace:
    """The tape of one :func:`net_forward` call.

    ``steps`` holds one ``(label, names, backward)`` per step, in forward
    order: its layer's label, the parameters it trains (none for the
    pointwise steps, the reshape, dropout, crop and output scaling), and a
    closure taking the gradient of its output to theirs and then to its
    input's, holding what that reads: the forward call's parameter arrays
    (never mutated; the optimizer replaces them), the pre-activations, a
    block's coarse input (never an interpolated image) and the transposed
    upsampler's output.  ``kinks`` lists the leaky-ReLU inputs in order.
    """

    steps: list[tuple[str, tuple[str, ...], Callable]] = field(default_factory=list)
    kinks: list[np.ndarray] = field(default_factory=list)


def _leaky_relu(trace: ForwardTrace, label: str, x: np.ndarray, slope: float) -> np.ndarray:
    """The leaky ReLU of ``x``, with ``x`` kept as a kink and its backward taped."""
    trace.kinks.append(x)
    trace.steps.append((label, (), lambda g: layers.leaky_relu_backward(x, g, slope)))
    return layers.leaky_relu(x, slope)


def _block(trace: ForwardTrace, arch: ArchConfig, a: dict, block: _Layer,
           x: np.ndarray) -> np.ndarray:
    """Hidden ``block`` (upsample, conv, leaky ReLU) of its coarse input ``x``, taped."""
    up, conv = tuple(block.params)[:-2], tuple(block.params)[-2:]  # the upsampler's first
    k, b = (a[name] for name in conv)
    if arch.upsampler == "transposed":
        uk, ub = (a[name] for name in up)
        u = layers.transposed_conv2(x, uk, ub)
        trace.steps += [(block.label, up, lambda g: layers.transposed_conv2_backward(x, uk, g)),
                        (block.label, conv, lambda g: layers.conv2d_valid_backward(u, k, g))]
        pre = layers.conv2d_valid(u, k, b)
    else:
        pre = layers.upsample_conv2d(x, k, b, arch.upsampler)
        trace.steps.append((block.label, conv,
                            lambda g: layers.upsample_conv2d_backward(x, k, g, arch.upsampler)))
    return _leaky_relu(trace, block.label, pre, arch.negative_slope)


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
    fc, *blocks, out = _plan(arch)
    w, b = (a[name] for name in fc.params)
    y = layers.dense_forward(z, w, b)
    trace.steps.append((fc.label, tuple(fc.params), lambda g: layers.dense_backward(z, w, g)))
    act = _leaky_relu(trace, fc.label, y, arch.negative_slope)
    trace.steps.append((fc.label, (), lambda g: g.reshape(-1)))
    t = act.reshape(1, 1, *arch.seed_shape)
    for block in blocks:
        t = _block(trace, arch, a, block, t)

    h, mask = layers.dropout(t, arch.dropout_rate, mode, rng)
    k, b = (a[name] for name in out.params)
    s = layers.sigmoid(layers.conv2d_valid(h, k, b))
    cropped, col_off = layers.crop2d(s, (nz, nx))
    trace.steps += [(out.label, (), lambda g: layers.dropout_backward(g, mask, arch.dropout_rate)),
                    (out.label, tuple(out.params),
                     lambda g: layers.conv2d_valid_backward(h, k, g)),
                    (out.label, (), lambda g: layers.sigmoid_backward(s, g)),
                    (out.label, (), lambda g: layers.crop2d_backward(g, s.shape, col_off)),
                    (out.label, (), lambda g: arch.output_scale * g.reshape(1, 1, nz, nx))]
    return (arch.output_scale * cropped).reshape(-1), trace


def net_backward(trace: ForwardTrace, g: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of <g, net_forward(params)> with respect to every parameter:
    the tape's steps run last first, each taking the gradient of its layer's
    output to those of the layer's parameters and input."""
    g = np.asarray(g, dtype=float)
    grads: dict[str, np.ndarray] = {}
    for _, names, backward in reversed(trace.steps):
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
    shapes = {name: shape for layer in _plan(arch) for name, (shape, _) in layer.params.items()}
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
