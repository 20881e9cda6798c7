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
                     SingularR, SizeMismatch, YbLabError, ZeroNome)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
