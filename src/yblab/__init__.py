"""Numerical laboratory for dynamical Yang-Baxter algebras.

Builds elliptic and six-vertex R-matrices on small spin chains, computes
domain-wall partition functions and Bethe-vector scalar products by
direct contraction, evaluates their multiple-contour-integral
representations by residue summation, and verifies the operator
identities, functional equations, and partial differential equations
connecting them, all to explicit numerical tolerances.
"""

from .errors import (ConfigError, CoincidentPoints, DegreeMismatch, DynamicalPole,
                     InterpolationIllConditioned, NomeTooLarge, NonConvergent,
                     NonFinite, RegimeMismatch, SamplingExhausted, SingularCoefficient,
                     SingularR, SizeMismatch, YbLabError)
from .special_fn import EllipticParams, Regime, f_weight, six_vertex, theta1
from .yb_core import (ABS_FLOOR, ModelContext, monodromy_blocks, r_matrix, residual,
                      verify_dybe, verify_rll)
from .lattice_qty import (check_hw_actions, dwbc_partition, dwbc_partitions,
                          hw_action_residuals, scalar_product_bf)
from .feq import (FxCoefficients, SnadCoefficients, fx_coefficients, fx_residual,
                  snad_coefficients, snad_residuals, verify_identity)
from .residue_int import sn_contour, z_contour
from .pde import (MultiPoly, OmegaActions, dia_apply, dia_realized, fzt_residual,
                  interpolate_zbar, omega_actions, omega_leading_apply)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
