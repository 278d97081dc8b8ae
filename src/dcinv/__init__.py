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

from .adam import AdamState, adam_step, init_adam
from .dip import DipConfig, beta, invert_stage2, pretrain_stage1, surrogate_loss
from .forward import (DataWeights, DCSimulation, build_data_weights, chi_factor,
                      phi_d, weights_from_std)
from .mesh import TensorMesh2D, build_mesh, cell_centers
from .net import (ArchConfig, NetParams, arch_for_mesh, init_params, load_params,
                  net_backward, net_forward, param_count, sample_latent, save_params)
from .scenarios import ScenarioSpec, add_noise, build_case1, build_case2, paint_model
from .survey import Survey, build_dipole_dipole_survey, load_survey, save_survey
from .tikhonov import (DifferenceOperators, GNConfig, IRLSState, RegularizationConfig,
                       gauss_newton, gauss_newton_invert, irls_weights, phi_m,
                       sensitivity_weights, update_irls)
from .trace import EpochRecord, InversionTrace, load_grid, load_trace, save_grid, save_trace

__version__ = "0.1.0"
