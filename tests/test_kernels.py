import math

import numpy as np
import pytest

from delaystab.kernels import (
    Dirac,
    Exponential,
    Gamma,
    KernelPoleError,
    Uniform,
    kernel_from_dict,
    kernel_to_dict,
    laplace,
    laplace_derivative,
)

ALL_KERNELS = [
    Dirac(0.5),
    Dirac(0.0),
    Uniform(0.0, 1.0),
    Uniform(0.3, 2.5),
    Gamma(1, 0.7),
    Gamma(4, 1.3),
    pytest.param(Exponential(0.9), id="Exponential(T=0.9)"),
]


@pytest.mark.parametrize("k", ALL_KERNELS, ids=str)
def test_total_mass_exact(k):
    assert laplace(k, 0.0) == 1.0 + 0.0j


@pytest.mark.parametrize("k", ALL_KERNELS, ids=str)
def test_modulus_bound_right_half_plane(k):
    rng = np.random.default_rng(1234)
    r = 10.0 * np.sqrt(rng.uniform(size=1000))
    phi = rng.uniform(-np.pi / 2, np.pi / 2, size=1000)
    lam = r * np.exp(1j * phi)  # Re >= 0, |lam| <= 10
    assert np.all(np.abs(laplace(k, lam)) <= 1.0 + 1e-12)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=str)
def test_derivative_matches_finite_differences(k):
    rng = np.random.default_rng(99)
    lam = rng.uniform(0, 3, 50) + 1j * rng.uniform(-5, 5, 50)
    h = 1e-5
    fd = (laplace(k, lam + h) - laplace(k, lam - h)) / (2 * h)
    an = laplace_derivative(k, lam)
    assert np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-12)) < 1e-6


def test_exponential_is_gamma_one_bitwise():
    T = 1.7
    assert Exponential(T) == Gamma(1, T)
    assert kernel_from_dict({"kind": "exponential", "T": T}) == Gamma(1, T)
    # shape 1 takes the float operations of the closed form 1/(1 + lam T)
    lam = np.array([0.0, 1.0, 0.3 + 2.1j, -0.2 + 0.7j, 5.0 - 3.0j])
    base = 1.0 + lam * T
    assert np.array_equal(laplace(Exponential(T), lam), base ** (-1))
    assert np.array_equal(laplace_derivative(Exponential(T), lam), -T * base ** (-2))


def test_closed_form_values():
    assert laplace(Dirac(0.5), 0.0) == 1.0
    # (1 + i/2)^2 = 0.75 + i, reciprocal = 0.48 - 0.64i
    assert laplace(Gamma(2, 1.0), 1j) == pytest.approx(0.48 - 0.64j, abs=1e-15)
    assert laplace(Dirac(0.5), 1j * np.pi) == pytest.approx(-1j, abs=1e-15)


def test_derivative_closed_form_values():
    assert laplace_derivative(Dirac(0.5), 0.0) == pytest.approx(-0.5)
    assert laplace_derivative(Gamma(1, 0.7), 0.0) == pytest.approx(-0.7)  # mean of the density
    expect = -((1 + 0.5j) ** -3)
    got = laplace_derivative(Gamma(2, 1.0), 1j)
    assert got == pytest.approx(expect, abs=1e-12)
    h = 1e-5
    fd = (laplace(Gamma(2, 1.0), 1j + h) - laplace(Gamma(2, 1.0), 1j - h)) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-8)


def test_uniform_series_and_direct_branches_agree():
    from delaystab.kernels import _uniform_g, _uniform_g_prime

    # at and above the switch the two branch formulas must agree; below it
    # the direct quotient already shows the cancellation the series avoids
    for x in (1e-4, 2e-4, 1e-3):
        series_g = 1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0
        direct_g = (1.0 - np.exp(-x)) / x
        assert abs(series_g - direct_g) < 1e-13
        assert abs(complex(_uniform_g(x)) - direct_g) < 1e-13
        series_gp = -0.5 + x / 3.0 - x**2 / 8.0 + x**3 / 30.0
        direct_gp = (np.exp(-x) * (1.0 + x) - 1.0) / x**2
        assert abs(series_gp - direct_gp) < 2e-9
        assert abs(complex(_uniform_g_prime(x)) - series_gp) < 2e-9


def test_gamma_pole_raises():
    with pytest.raises(KernelPoleError):
        laplace(Gamma(2, 1.0), -2.0)
    with pytest.raises(KernelPoleError):
        laplace_derivative(Exponential(0.5), -2.0)


def test_validation():
    with pytest.raises(ValueError):
        Dirac(-0.1)
    with pytest.raises(ValueError):
        Uniform(0.0, 0.0)
    with pytest.raises(ValueError):
        Gamma(0, 1.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)
    # NaN and inf fail too: their transforms would be NaN
    for make in (Dirac, lambda x: Uniform(x, 1.0), lambda x: Uniform(0.0, x), lambda x: Gamma(1, x)):
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                make(x)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=str)
def test_json_roundtrip(k):
    assert kernel_from_dict(kernel_to_dict(k)) == k


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        kernel_from_dict({"kind": "cauchy", "T": 1.0})


def test_transform_rounds_scalar_and_array_alike():
    # the curve tracer tabulates many frequencies at once: each entry must
    # carry the bits of the transform at that one frequency
    rng = np.random.default_rng(4)
    lam = np.concatenate([1j * rng.uniform(-20, 20, 200), rng.normal(size=100) + 5j * rng.normal(size=100)])
    for k in (Dirac(0.5), Uniform(0.2, 0.8), Gamma(1, 0.5), Gamma(2, 1.5), Gamma(3, 0.7)):
        assert np.array_equal(laplace(k, lam), [laplace(k, complex(x)) for x in lam])
        assert np.array_equal(laplace_derivative(k, lam), [laplace_derivative(k, complex(x)) for x in lam])
