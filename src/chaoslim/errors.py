"""Exception types shared across the package, and the sample check that raises one."""

import numpy as np


class ChaoslimError(Exception):
    """Base class for all package errors."""


class InputError(ChaoslimError, ValueError):
    """Malformed or inconsistent input (off-lattice point, missing value, ...)."""


class PreconditionError(ChaoslimError, ValueError):
    """A stated hypothesis of the method is violated; no silent fallback."""


class ConditioningError(ChaoslimError, ZeroDivisionError):
    """Conditioning event has zero probability."""


class DomainError(ChaoslimError, ValueError):
    """Quantity is not defined at the requested point (diagonals, alpha out of range)."""


class ResourceError(ChaoslimError, RuntimeError):
    """Exact computation would exceed the configured size caps."""


class NumericError(ChaoslimError, RuntimeError):
    """A numeric routine failed to converge or lost too much mass."""


def positive_samples(z: np.ndarray, lower: str) -> np.ndarray:
    """``z``, if every partition-function sample in it is finite and
    positive; else a NumericError that names what to ``lower``."""
    bad = np.flatnonzero(~(np.isfinite(z) & (z > 0.0)))
    if bad.size:
        raise NumericError(
            f"{bad.size} of {z.size} partition-function samples are not finite and "
            f"positive (sample {bad[0]} is {float(z[bad[0]])!r}); lower {lower}")
    return z
