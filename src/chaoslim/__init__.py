"""chaoslim: polynomial-chaos scaling limits of disordered systems.

Subpackages
-----------
chaos    sparse multi-linear polynomial algebra and Lindeberg-type bounds
wiener   white noise on [0, 1] and factorized Wiener-chaos series
simplex  ordered-simplex gap integrals in closed form, and continuum series sums
pinning  disordered pinning model with exact DP oracles
polymer  (long-range) directed polymer with exact DP oracles
ising    critical 2D Ising / RFIM on a rectangle: Z and correlations by one transfer
tilting  exponential tilting with verified quantitative bounds
harness  seeded Monte Carlo studies, KS diagnostics, report emission
"""

from . import chaos, dists, harness, ising, pinning, polymer, simplex, tilting, wiener
from .errors import (
    ChaoslimError,
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    PreconditionError,
    ResourceError,
)

__all__ = [
    "chaos",
    "dists",
    "harness",
    "ising",
    "pinning",
    "polymer",
    "simplex",
    "tilting",
    "wiener",
    "ChaoslimError",
    "ConditioningError",
    "DomainError",
    "InputError",
    "NumericError",
    "PreconditionError",
    "ResourceError",
]

__version__ = "0.1.0"
