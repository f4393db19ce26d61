"""Delay distribution kernels and their Laplace transforms.

Three closed-form families are supported: a point mass (discrete delay), a
uniform density on an interval, and a Gamma (Erlang) density.  The
exponential density is the Gamma density of shape 1; ``Exponential(T)``
builds ``Gamma(1, T)``, and configs may name it ``"exponential"``.  Every
kernel integrates to one, so its transform satisfies hhat(0) = 1 and
|hhat(lam)| <= 1 whenever Re(lam) >= 0.  Transforms are evaluated in closed
form and accept scalar or numpy-array arguments for ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .schema import NONNEG, POS, check, integer, obj, tagged

__all__ = [
    "DelayKernel",
    "Dirac",
    "Uniform",
    "Gamma",
    "Exponential",
    "KernelPoleError",
    "KERNEL",
    "laplace",
    "laplace_derivative",
    "kernel_to_dict",
    "kernel_from_dict",
]

# Below this value of |lam|*A the uniform-kernel transform switches to a
# 4-term Taylor series to avoid cancellation in (exp(-a*lam)-exp(-(a+A)*lam)).
_UNIFORM_SERIES_CUTOFF = 1e-4


class KernelPoleError(ZeroDivisionError):
    """Transform evaluated at a pole (Gamma family at lam = -n/T)."""


@dataclass(frozen=True)
class Dirac:
    """Point mass at delay ``tau``: a single discrete delay."""

    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"Dirac delay must be nonnegative, got {self.tau}")


@dataclass(frozen=True)
class Uniform:
    """Uniform density 1/A on the interval [a, a+A]."""

    a: float
    A: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"Uniform offset must be nonnegative, got {self.a}")
        if self.A <= 0:
            raise ValueError(f"Uniform width must be positive, got {self.A}")


@dataclass(frozen=True)
class Gamma:
    """Gamma (Erlang) density with shape ``n`` and mean ``T``.

    Density n^n/((n-1)! T^n) tau^(n-1) exp(-n tau / T); the transform is
    (1 + lam*T/n)^(-n).
    """

    n: int
    T: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"Gamma shape must be a positive integer, got {self.n}")
        if self.T <= 0:
            raise ValueError(f"Gamma mean must be positive, got {self.T}")


def Exponential(T: float) -> Gamma:
    """Exponential density with mean ``T``: the Gamma density of shape 1."""
    return Gamma(1, T)


DelayKernel = Union[Dirac, Uniform, Gamma]


def _uniform_g(x):
    """(1 - exp(-x))/x with a series branch near x = 0."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < _UNIFORM_SERIES_CUTOFF
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (1.0 - np.exp(-xs)) / np.where(small, 1.0, xs)
    series = 1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0
    return np.where(small, series, direct)


def _uniform_g_prime(x):
    """Derivative of (1 - exp(-x))/x, series branch near x = 0."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < _UNIFORM_SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(-xs) * (1.0 + xs) - 1.0) / xs**2
    series = -0.5 + x / 3.0 - x**2 / 8.0 + x**3 / 30.0
    return np.where(small, series, direct)


def _gamma_base(n: int, T: float, lam):
    base = 1.0 + np.asarray(lam, dtype=complex) * (T / n)
    if np.any(base == 0.0):
        raise KernelPoleError(f"Gamma transform pole at lam = {-n / T}")
    return base


def laplace(kernel: DelayKernel, lam):
    """Evaluate the kernel's Laplace transform at ``lam`` (scalar or array).

    All three families have entire or rational transforms, so evaluation is
    permitted anywhere except the Gamma-family pole at lam = -n/T.
    """
    lam = np.asarray(lam, dtype=complex)
    if isinstance(kernel, Dirac):
        out = np.exp(-lam * kernel.tau)
    elif isinstance(kernel, Uniform):
        out = np.exp(-kernel.a * lam) * _uniform_g(kernel.A * lam)
    elif isinstance(kernel, Gamma):
        # np.power rounds a scalar and an array alike; ``array ** -1`` takes
        # numpy's reciprocal shortcut, which rounds differently from 1/x
        out = np.power(_gamma_base(kernel.n, kernel.T, lam), -kernel.n)
    else:
        raise TypeError(f"not a delay kernel: {kernel!r}")
    return out[()] if out.ndim == 0 else out


def laplace_derivative(kernel: DelayKernel, lam):
    """d/dlam of the transform, in closed form per family."""
    # a scalar goes through the array loops too: numpy multiplies two complex
    # scalars with rounding that can differ from its array loop
    scalar = np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if isinstance(kernel, Dirac):
        out = -kernel.tau * np.exp(-lam * kernel.tau)
    elif isinstance(kernel, Uniform):
        a, A = kernel.a, kernel.A
        g = _uniform_g(A * lam)
        gp = _uniform_g_prime(A * lam)
        out = np.exp(-a * lam) * (A * gp - a * g)
    elif isinstance(kernel, Gamma):
        base = _gamma_base(kernel.n, kernel.T, lam)
        out = -kernel.T * base ** (-kernel.n - 1)
    else:
        raise TypeError(f"not a delay kernel: {kernel!r}")
    return out[0] if scalar else out


def kernel_to_dict(kernel: DelayKernel) -> dict:
    if isinstance(kernel, Dirac):
        return {"kind": "dirac", "tau": kernel.tau}
    if isinstance(kernel, Uniform):
        return {"kind": "uniform", "a": kernel.a, "A": kernel.A}
    if isinstance(kernel, Gamma):
        return {"kind": "gamma", "n": int(kernel.n), "T": kernel.T}
    raise TypeError(f"not a delay kernel: {kernel!r}")


# each kind's schema, and its builder
_FROM_DICT = {
    "dirac": (obj(tau=NONNEG), lambda d: Dirac(tau=float(d["tau"]))),
    "uniform": (obj(a=NONNEG, A=POS), lambda d: Uniform(a=float(d["a"]), A=float(d["A"]))),
    "gamma": (obj(n=integer(1), T=POS), lambda d: Gamma(n=int(d["n"]), T=float(d["T"]))),
    "exponential": (obj(T=POS), lambda d: Gamma(n=1, T=float(d["T"]))),
}
KERNEL = tagged("kind", {k: s for k, (s, _) in _FROM_DICT.items()})


def kernel_from_dict(d: dict) -> DelayKernel:
    """Build a kernel from its dict form ``{"kind": ..., <fields>}``; ValueError unless it matches KERNEL."""
    check(d, KERNEL, "kernel")
    return _FROM_DICT[d["kind"]][1](d)
