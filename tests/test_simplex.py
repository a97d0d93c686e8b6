"""Tests for the ordered-simplex gap integrals."""

import math

import pytest

from chaoslim import simplex
from chaoslim.errors import DomainError
from chaoslim.simplex import dirichlet_closed_form
from oracles import SCIPY_GAMMA_MATH, dirichlet_quadrature


def test_pinned_exact_values():
    # k = 2, chi = 0: the ordered-simplex volume 1/Gamma(3)
    assert dirichlet_closed_form(2, 0.0, conditioned=True) == pytest.approx(0.5)
    # k = 1, chi = 1/2: the Beta(1/2, 1/2) integral
    assert dirichlet_closed_form(1, 0.5, conditioned=True) == pytest.approx(math.pi)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("chi", [0.0, 0.5])
@pytest.mark.parametrize("conditioned", [True, False])
def test_quadrature_oracle_agreement(k, chi, conditioned):
    closed = dirichlet_closed_form(k, chi, conditioned)
    quad = dirichlet_quadrature(k, chi, conditioned, order=32)
    assert abs(quad / closed - 1.0) < 0.01
    refined = dirichlet_quadrature(k, chi, conditioned, order=48)
    assert abs(refined - closed) <= abs(quad - closed) + 1e-12


def test_quadrature_other_exponent():
    closed = dirichlet_closed_form(3, 0.75, conditioned=True)
    quad = dirichlet_quadrature(3, 0.75, conditioned=True, order=64)
    assert abs(quad / closed - 1.0) < 0.01


@pytest.mark.parametrize("conditioned", [True, False])
def test_closed_form_matches_scipy_gammaln(conditioned, monkeypatch):
    points = [(k, chi) for k in range(41) for chi in (-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9)]
    values = [dirichlet_closed_form(k, chi, conditioned) for k, chi in points]
    monkeypatch.setattr(simplex, "math", SCIPY_GAMMA_MATH)
    for (k, chi), value in zip(points, values):
        ref = dirichlet_closed_form(k, chi, conditioned)
        assert abs(value / ref - 1.0) <= 1e-13, (k, chi)


def test_free_variant_small_cases():
    # k = 1 free, chi = 1/2: int_0^1 t^{-1/2} dt = 2
    assert dirichlet_closed_form(1, 0.5, conditioned=False) == pytest.approx(2.0)
    # k = 1 free, chi = 0: unit interval
    assert dirichlet_closed_form(1, 0.0, conditioned=False) == pytest.approx(1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        dirichlet_closed_form(2, 1.0, True)
    with pytest.raises(DomainError):
        dirichlet_quadrature(2, -0.1)
