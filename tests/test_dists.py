"""Tests for the shared probability laws and the variable family."""

import math

import numpy as np
import pytest

from chaoslim.dists import RADEMACHER, Atoms, StdGaussian, VariableFamily
from chaoslim.errors import InputError


def _log_cosh(t):
    """The closed form the Rademacher disorder law used before it became an
    atom law: log cosh t = |t| + log1p(e^{-2|t|}) - log 2."""
    a = abs(t)
    return a + math.log1p(math.exp(-2 * a)) - math.log(2.0)


def test_rademacher_log_mgf_matches_log_cosh():
    t = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.geomspace(1e-12, 1.0, 200)])
    ref = np.array([_log_cosh(x) for x in t])
    got = np.array([RADEMACHER.log_mgf(x) for x in t])
    # both forms cancel against log 2 near t = 0, so allow one unit of
    # roundoff there on top of 1e-15 relative
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + np.finfo(float).eps)
    far = np.abs(t) >= 0.5
    assert np.all(np.abs(got[far] - ref[far]) <= 1e-15 * ref[far])


SPREAD = Atoms([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1])


@pytest.mark.parametrize("base", [StdGaussian(), RADEMACHER, SPREAD],
                         ids=["gaussian", "rademacher", "four_atoms"])
def test_variable_family_accepts_standardized_laws(base):
    fam = VariableFamily(means=np.zeros(3), sigma2=1.0, base=base)
    assert fam.base is base


@pytest.mark.parametrize("base", [RADEMACHER.shifted(0.1), RADEMACHER.scaled(1.5),
                                  SPREAD.scaled(0.5)],
                         ids=["not_centered", "variance_above_1", "variance_below_1"])
def test_variable_family_rejects_unstandardized_laws(base):
    with pytest.raises(InputError):
        VariableFamily(means=np.zeros(3), sigma2=1.0, base=base)


def test_site_atoms_needs_an_atom_base():
    fam = VariableFamily(means=np.array([0.0, 0.25]), sigma2=4.0, base=RADEMACHER)
    site = fam.site_atoms(1)
    np.testing.assert_array_equal(site.values, [-1.75, 2.25])
    with pytest.raises(InputError):
        VariableFamily(means=np.zeros(2), sigma2=1.0).site_atoms(0)
