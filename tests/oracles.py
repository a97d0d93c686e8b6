"""Reference computations the tests check chaoslim against, built without
the code they check, and the means to compare with them."""

import math
import re
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.special import gammaln, roots_jacobi

from chaoslim.errors import DomainError, InputError, NumericError

# the math module with scipy's gammaln in place of lgamma: patched in as a
# module's ``math``, it runs that module's log-Gamma calls through scipy
SCIPY_GAMMA_MATH = SimpleNamespace(**{**vars(math), "lgamma": gammaln})


def value_or_error(f, *args):
    """``f(*args)``, or the message of the NumericError it raises without the
    partial sum the message quotes."""
    try:
        return f(*args)
    except NumericError as err:
        return re.sub(r"partial sum \S+", "partial sum", str(err))


@lru_cache(maxsize=128)
def _rule_01(order: int, upper: float, lower: float):
    """Nodes u and weights w with  int_0^1 g(u) (1-u)^upper u^lower du = sum w g(u).

    ``upper``/``lower`` are the endpoint exponents absorbed into the rule.
    """
    if upper == 0.0 and lower == 0.0:
        x, w = np.polynomial.legendre.leggauss(order)
    else:
        x, w = roots_jacobi(order, upper, lower)
    u = (x + 1.0) / 2.0
    return u, w * 2.0 ** (-(1.0 + upper + lower))


def _chain_eval(level: int, s: np.ndarray, chi: float, order: int) -> np.ndarray:
    """R_level(s) = int_{0<t_1<...<t_level<s} of the level+1 gap factors.

    R_0(s) = s^{-chi}; R_j(s) = int_0^s R_{j-1}(t) (s-t)^{-chi} dt.  After the
    substitution t = s*u both endpoint singularities u^{-chi}, (1-u)^{-chi}
    are absorbed into a Gauss-Jacobi rule; the residual R_{j-1}(s u) u^{chi}
    is mildly regular, so a moderate fixed order converges fast.
    """
    if level == 0:
        return s ** (-chi)
    u, w = _rule_01(order, -chi, -chi)
    inner = _chain_eval(level - 1, s[..., None] * u, chi, order)
    return s ** (1.0 - chi) * ((inner * u**chi) @ w)


def dirichlet_quadrature(
    k: int, chi: float, conditioned: bool = True, order: int = 32
) -> float:
    """Nested Gauss-Jacobi evaluation of the ordered-simplex gap integral.

    Independent of the Gamma closed form ``simplex.dirichlet_closed_form``:
    the k-dimensional integral is evaluated as k nested one-dimensional
    quadratures with the power-law endpoint weights absorbed into each rule.
    Cost grows like order**k.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    if chi >= 1.0 or chi < 0.0:
        raise DomainError("need 0 <= chi < 1")
    if k == 0:
        return 1.0
    if order**k > 20_000_000:
        raise InputError("order**k too large; lower the order or k")
    u, w = _rule_01(order, -chi if conditioned else 0.0, -chi)
    vals = _chain_eval(k - 1, u, chi, order) * u**chi
    return float(vals @ w)
