"""Network matrices, spectra, and closed-form critical parameters.

Covers the coupling matrices of the three applications: directed ring and
leader chain for velocity-matching vehicles, arbitrary row-sum-zero
weighted couplings, and noise-perturbed self-negative feedback J = -R I +
alpha Xi with i.i.d. uniform entries.  Ring and chain spectra are closed
form; the rest come from LAPACK.  Critical delays and the
critical noise strength follow from the polar geometry of the relevant
crossing curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from . import presets
from .eigen import eigvals
from .kernels import Gamma
from .regions import Membership, OnSccError, membership, nu_contour
from .schema import NONNEG, POS, check, integer, obj, tagged

__all__ = [
    "Ring",
    "Chain",
    "Laplacian",
    "RandomNet",
    "NetworkSpec",
    "NETWORK",
    "Spectrum",
    "MarginalSpectrumError",
    "AnchorUnstableError",
    "network_matrix",
    "spectrum",
    "circular_law_circle",
    "msf_consensus_check",
    "carfollowing_Tc",
    "carfollowing_Tc_numeric",
    "chain_Tc",
    "mas_scc",
    "mas_theta",
    "mas_r",
    "mas_Tc1",
    "mas_Tc2",
    "alpha_c",
    "network_to_dict",
    "network_from_dict",
]


class MarginalSpectrumError(RuntimeError):
    """An eigenvalue sits on a crossing curve: undecidable at tolerance."""


class AnchorUnstableError(ValueError):
    """The zero-noise anchor -R is not strictly inside the stability region."""


@dataclass(frozen=True)
class Ring:
    """Directed ring of N agents, each following its successor with gain alpha."""

    N: int
    alpha: float

    def __post_init__(self):
        if not self.N >= 2:
            raise ValueError("ring needs at least two agents")
        if not self.alpha > 0:
            raise ValueError("coupling gain must be positive")


@dataclass(frozen=True)
class Chain:
    """Leader chain: agent 1 uncoupled, the rest follow with gain alpha."""

    N: int
    alpha: float

    def __post_init__(self):
        if not self.N >= 2:
            raise ValueError("chain needs at least two agents")
        if not self.alpha > 0:
            raise ValueError("coupling gain must be positive")


@dataclass(frozen=True)
class Laplacian:
    """Row-sum-zero coupling built from nonnegative off-diagonal weights."""

    weights: tuple  # nested tuples, zero diagonal on input

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weights must be square")
        if np.any(np.diag(W) != 0.0):
            raise ValueError("weights must have a zero diagonal; row sums are set internally")
        if not np.all(W >= 0.0):
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class RandomNet:
    """J = -R I + alpha Xi with Xi entries i.i.d. uniform on [-1, 1]."""

    N: int
    R: float
    alpha: float
    seed: int

    def __post_init__(self):
        if not self.N >= 1:
            raise ValueError("network size must be positive")
        if not self.R > 0:
            raise ValueError("self-feedback strength must be positive")
        if not self.alpha >= 0:
            raise ValueError("noise strength must be nonnegative")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")


NetworkSpec = Union[Ring, Chain, Laplacian, RandomNet]


def network_matrix(net: NetworkSpec) -> np.ndarray:
    if isinstance(net, Ring):
        J = -net.alpha * np.eye(net.N)
        J[np.arange(net.N), (np.arange(net.N) + 1) % net.N] = net.alpha
        return J
    if isinstance(net, Chain):
        J = -net.alpha * np.eye(net.N)
        J[np.arange(net.N), (np.arange(net.N) + 1) % net.N] = net.alpha
        J[0, :] = 0.0
        return J
    if isinstance(net, Laplacian):
        W = np.asarray(net.weights, dtype=float)
        J = W.copy()
        np.fill_diagonal(J, -W.sum(axis=1))
        return J
    if isinstance(net, RandomNet):
        rng = np.random.default_rng(net.seed)
        Xi = rng.uniform(-1.0, 1.0, size=(net.N, net.N))
        return -net.R * np.eye(net.N) + net.alpha * Xi
    raise TypeError(f"not a network spec: {net!r}")


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    method: str  # "closed_form" | "lapack" | "circular_law_approx"


def spectrum(net: NetworkSpec) -> Spectrum:
    """Eigenvalues of the coupling matrix.

    Ring and chain use the closed forms (the ring spectrum contains zero
    exactly once); other specs go through LAPACK (``eigen.eigvals``).
    """
    if isinstance(net, Ring):
        ls = np.arange(net.N)
        mu = net.alpha * (np.exp(2j * np.pi * ls / net.N) - 1.0)
        mu[0] = 0.0
        return Spectrum(mu, "closed_form")
    if isinstance(net, Chain):
        mu = np.full(net.N, -net.alpha, dtype=complex)
        mu[0] = 0.0
        return Spectrum(mu, "closed_form")
    return Spectrum(eigvals(network_matrix(net)), "lapack")


def circular_law_circle(N: int, R: float, alpha: float) -> Tuple[complex, float]:
    """Limit support of the RandomNet spectrum: center -R, radius alpha*sqrt(N/3)."""
    if N < 1:
        raise ValueError("N must be positive")
    return complex(-R), float(alpha) * math.sqrt(N / 3.0)


def msf_consensus_check(
    net: Union[NetworkSpec, Spectrum],
    member: Callable[[complex], Membership],
) -> Tuple[bool, List[complex]]:
    """Check whether every transverse mode of the network is stable.

    When the spectrum contains a zero eigenvalue (row-sum-zero coupling),
    that mode evolves along the agreement manifold and is excluded; the
    check then decides consensus.  Without a zero eigenvalue it is a plain
    stability check over all modes.  Returns (ok, offending eigenvalues).
    """
    spec = net if isinstance(net, Spectrum) else spectrum(net)
    mus = np.asarray(spec.eigenvalues)
    has_zero = np.abs(mus) <= 1e-9
    check = mus[~has_zero] if has_zero.any() else mus
    offending = []
    for mu in check:
        verdict = member(complex(mu))
        if verdict.verdict == "on_curve":
            raise MarginalSpectrumError(f"eigenvalue {mu:.6g} marginal, undecidable at tolerance")
        if verdict.verdict != "stable":
            offending.append(complex(mu))
    return (len(offending) == 0, offending)


def carfollowing_Tc(n: int, N: int, alpha: float) -> float:
    """Critical mean delay for ring-network velocity consensus.

    n tan(pi/(N n)) [1 + tan^2(pi/(N n))]^(n/2) / (2 alpha sin(pi/N)).
    """
    if n < 1 or N < 2 or alpha <= 0:
        raise ValueError("need n >= 1, N >= 2, alpha > 0")
    t = math.tan(math.pi / (N * n))
    return n * t * (1.0 + t * t) ** (n / 2.0) / (2.0 * alpha * math.sin(math.pi / N))


_TC_REL_TOL = 1e-8  # relative width of the final delay bracket


def carfollowing_Tc_numeric(n: int, N: int, alpha: float) -> float:
    """Search counterpart of carfollowing_Tc: bisect on the membership oracle.

    Finds the delay at which the slowest rotating mode of the ring leaves
    the stability region of the pure coupling dynamics, without using the
    closed-form answer.
    """
    mu1 = complex(alpha * (np.exp(2j * np.pi / N) - 1.0))

    def is_stable(T: float) -> Optional[bool]:
        # a tight on-axis guard keeps the marginal band well below _TC_REL_TOL
        F = presets.coupling_mode(Gamma(n, T))
        try:
            nu = nu_contour(F, mu1, on_scc_tol=1e-11)
        except OnSccError:
            return None
        return nu == 0

    lo, hi = 1e-6, 0.5
    for _ in range(60):
        s = is_stable(hi)
        if s is None:
            return hi
        if not s:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("no instability found while expanding the delay bracket")
    while (hi - lo) > _TC_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        s = is_stable(mid)
        if s is None:
            return mid
        if s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chain_Tc(n: int, alpha: float) -> float:
    """Critical mean delay for the leader chain; +inf at n = 1."""
    if n < 1 or alpha <= 0:
        raise ValueError("need n >= 1, alpha > 0")
    if n == 1:
        return math.inf
    t = math.tan(math.pi / (2 * n))
    return (n / alpha) * t * (1.0 + t * t) ** (n / 2.0)


def mas_scc(a, b, k1, k2, T, beta):
    """Crossing curve of the PD-coupled second-order agent mode.

    L(beta) = (-beta^2 - b - i a beta)(1 + i beta T) / (k1 + i k2 beta), for T >= 0.
    """
    if T < 0:
        raise ValueError(f"PD coupling delay must be nonnegative, got T={T}")
    if k1 == 0:
        raise ZeroDivisionError("k1 must be nonzero")
    beta = np.asarray(beta, dtype=float)
    num = (-(beta**2) - b - 1j * a * beta) * (1.0 + 1j * beta * T)
    out = num / (k1 + 1j * k2 * beta)
    return out[()] if out.ndim == 0 else out


def mas_theta(a, b, k1, k2, T, beta):
    """Unwrapped polar angle of the PD crossing curve (diagnostic form)."""
    beta = np.asarray(beta, dtype=float)
    out = (
        np.pi
        + np.arctan(a * beta / (beta**2 + b))
        + np.arctan(beta * T)
        - np.arctan(k2 * beta / k1)
    )
    return out[()] if out.ndim == 0 else out


def mas_r(a, b, k1, k2, T, beta):
    """Polar radius of the PD crossing curve (diagnostic form)."""
    beta = np.asarray(beta, dtype=float)
    out = (
        np.sqrt((beta**2 + b) ** 2 + (a * beta) ** 2)
        * np.sqrt(1.0 + (beta * T) ** 2)
        / np.sqrt(k1**2 + (k2 * beta) ** 2)
    )
    return out[()] if out.ndim == 0 else out


def mas_Tc1(a, b, k1, k2):
    """Delay at which the curve direction at beta = 0 flips: k2/k1 - a/b.

    Exact for exact (e.g. Fraction) inputs.
    """
    return k2 / k1 - a / b


def mas_Tc2(a, k1, k2):
    """Delay beyond which the stability region vanishes: 1/(a + k1/k2)."""
    denom = a + k1 / k2
    if denom <= 0:
        raise ValueError("requires a + k1/k2 > 0")
    return 1 / denom


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
        if hi - lo < 1e-13 * max(1.0, abs(lo) + abs(hi)):
            break
    return 0.5 * (lo + hi)


def alpha_c(a: float, b: float, k1: float, k2: float, T: float, R: float, N: int) -> float:
    """Critical noise strength for the random PD network.

    sqrt(3/N) times the distance from -R to the PD crossing curve, located
    by a coarse frequency grid plus golden-section refinement of each local
    basin.  Requires -R strictly inside the zero-noise stability region.
    """
    F = presets.pd_agent_mode(a, b, k1, k2, T)
    v = membership(F, complex(-R))
    if v.verdict == "on_curve":
        return 0.0  # the anchor sits on a crossing curve: zero distance
    if v.verdict != "stable":
        raise AnchorUnstableError(f"anchor unstable at alpha=0: -R={-R} is {v.verdict}")

    W = 50.0 * max(1.0, abs(a), abs(b), abs(k1), abs(k2), abs(T), abs(R))
    grid = np.linspace(-W, W, 10_001)
    dvals = np.abs(mas_scc(a, b, k1, k2, T, grid) + R)

    def dist(beta: float) -> float:
        return float(abs(mas_scc(a, b, k1, k2, T, beta) + R))

    best = float(np.min(dvals))
    interior = np.nonzero((dvals[1:-1] <= dvals[:-2]) & (dvals[1:-1] <= dvals[2:]))[0] + 1
    for i in interior:
        best = min(best, dist(_golden_min(dist, grid[i - 1], grid[i + 1])))
    return math.sqrt(3.0 / N) * best


def network_to_dict(net: NetworkSpec) -> dict:
    if isinstance(net, Ring):
        return {"kind": "ring", "n": net.N, "alpha": net.alpha}
    if isinstance(net, Chain):
        return {"kind": "chain", "n": net.N, "alpha": net.alpha}
    if isinstance(net, Laplacian):
        return {"kind": "laplacian", "weights": [list(row) for row in net.weights]}
    if isinstance(net, RandomNet):
        return {"kind": "random", "n": net.N, "R": net.R, "alpha": net.alpha, "seed": net.seed}
    raise TypeError(f"not a network spec: {net!r}")


# each kind's schema, and its builder
_FROM_DICT = {
    "ring": (obj(n=integer(2), alpha=POS), lambda d: Ring(N=int(d["n"]), alpha=float(d["alpha"]))),
    "chain": (obj(n=integer(2), alpha=POS), lambda d: Chain(N=int(d["n"]), alpha=float(d["alpha"]))),
    "laplacian": (obj(weights={"type": "array", "items": {"type": "array", "items": NONNEG}}),
                  lambda d: Laplacian(weights=tuple(tuple(row) for row in d["weights"]))),
    "random": (obj(n=integer(1), R=POS, alpha=NONNEG, seed=integer(0)),
               lambda d: RandomNet(N=int(d["n"]), R=float(d["R"]), alpha=float(d["alpha"]), seed=int(d["seed"]))),
}
NETWORK = tagged("kind", {k: s for k, (s, _) in _FROM_DICT.items()})


def network_from_dict(d: dict) -> NetworkSpec:
    """Build a network from its dict form ``{"kind": ..., <fields>}``; ValueError unless it matches NETWORK."""
    check(d, NETWORK, "network")
    return _FROM_DICT[d["kind"]][1](d)
