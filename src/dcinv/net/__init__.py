"""Convolutional model generator: layers, architecture, checkpoints."""

from .layers import (
    conv2d_valid,
    conv2d_valid_backward,
    crop2d,
    crop2d_backward,
    dense_backward,
    dense_forward,
    dropout,
    dropout_backward,
    leaky_relu,
    leaky_relu_backward,
    sigmoid,
    sigmoid_backward,
    transposed_conv2,
    transposed_conv2_backward,
    upsample2,
    upsample2_backward,
    upsample_conv2d,
    upsample_conv2d_backward,
)
from .model import (
    ArchConfig,
    ForwardTrace,
    NetParams,
    arch_for_mesh,
    init_params,
    load_params,
    net_backward,
    net_forward,
    param_count,
    sample_latent,
    save_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
