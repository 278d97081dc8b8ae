"""Convolutional model generator: layers, architecture, checkpoints.

Exports the names that the rest of the package imports as ``dcinv.net``;
the layer primitives are imported from :mod:`dcinv.net.layers`.
"""

from .model import (ArchConfig, NetParams, arch_for_mesh, init_params, load_params,
                    net_backward, net_forward, sample_latent, save_params)
