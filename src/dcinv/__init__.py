"""2D DC resistivity inversion toolkit.

Two inversion flavours over one finite-volume forward operator: a
test-time-learned convolutional reparameterization of the log-conductivity
model, and a conventional Tikhonov/IRLS Gauss-Newton benchmark.
"""

import ctypes
import os


def _keep_freed_heap() -> None:
    """On glibc, keep freed arrays in the heap for the next pass or model.

    glibc's dynamic thresholds give the largest arrays of each pass back to
    the system when they are freed (unmapped or trimmed), so the next pass
    page-faults them in again.  Fixed thresholds (mmap above 32 MiB, trim
    above 64 MiB) keep them.  Other C libraries are left as they are.
    """
    if ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
            and os.confstr("CS_GNU_LIBC_VERSION")):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

# What the README and the benchmark use as ``dcinv.<name>``; everything else
# is imported from its submodule.
from .dip import DipConfig, invert_stage2, pretrain_stage1
from .forward import DCSimulation, chi_factor, weights_from_std
from .net import arch_for_mesh, init_params, load_params, net_forward, sample_latent
from .scenarios import add_noise, build_case1
from .tikhonov import GNConfig, RegularizationConfig, gauss_newton_invert

__version__ = "0.1.0"
