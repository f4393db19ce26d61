"""Network matrices, spectra, and closed-form critical parameters.

Covers the coupling matrices of the three applications: directed ring and
leader chain for velocity-matching vehicles, arbitrary row-sum-zero
weighted couplings, and noise-perturbed self-negative feedback J = -R I +
alpha Xi with i.i.d. uniform entries.  Ring and chain spectra are closed
form; the rest come from LAPACK.  Critical delays have closed forms; they
and the critical noise strength are also read off the traced crossing
curves (``scc.curve_zeros``) over a beta range certified by ``radius_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from . import presets
from .charfun import CharFun, radius_bound
from .eigen import eigvals, poly_roots
from .kernels import Gamma
from .regions import Membership, membership
from .scc import SccBranch, crossing_at, curve_zeros, trace
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
    if isinstance(net, (Ring, Chain)):
        J = -net.alpha * np.eye(net.N)
        J[np.arange(net.N), (np.arange(net.N) + 1) % net.N] = net.alpha
        if isinstance(net, Chain):
            J[0, :] = 0.0  # the leader follows no one
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
    method: str  # "closed_form" | "lapack"


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
    offending = []
    for mu in mus[~(np.abs(mus) <= 1e-9)]:
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


def carfollowing_Tc_numeric(n: int, N: int, alpha: float) -> float:
    """Traced counterpart of carfollowing_Tc, without using the closed form.

    The ring's slowest mode mu_1 at delay T has the roots of the delay-1 mode at gain T mu_1,
    divided by T: Tc = t / |mu_1| for the first t at which the delay-1 count rises along the
    ray t mu_1 / |mu_1|.
    """
    mu1 = complex(alpha * (np.exp(2j * np.pi / N) - 1.0))
    return _ray_crossing(presets.coupling_mode(Gamma(n, 1.0)), mu1 / abs(mu1)) / abs(mu1)


def _disk_trace(F: CharFun, center: complex, radius: float) -> List[SccBranch]:
    """The crossing curves of F over a beta range that holds every crossing point within the disk."""
    B = radius_bound(F, center, radius)
    return trace(F, -B, B, B / 256.0,
                 window=(center.real - radius, center.real + radius, center.imag - radius, center.imag + radius))


def _ray_crossing(F: CharFun, u: complex) -> float:
    """Least t > 0 at which the unstable-root count of F rises (``crossing_at``) along the ray t u, |u| = 1.

    The curves meet the ray's line where Im(conj(u) L) = 0.  The disk on the
    segment up to r is traced, and r doubles from 1 until a crossing lies in it.
    """
    for r in (2.0**k for k in range(60)):
        zeros = curve_zeros(_disk_trace(F, 0.5 * r * u, 0.5 * r), lambda L, Lp: np.imag(np.conj(u) * L))
        ts = [t for br, beta, L in zeros
              if 0.0 < (t := float(np.real(np.conj(u) * L))) <= r and crossing_at(br, beta).jump_ray == 1]
        if ts:
            return min(ts)
    raise RuntimeError(f"no crossing found along the ray up to t = {r:.3g}")


def chain_Tc(n: int, alpha: float) -> float:
    """Critical mean delay for the leader chain; +inf at n = 1."""
    if n < 1 or alpha <= 0:
        raise ValueError("need n >= 1, alpha > 0")
    if n == 1:
        return math.inf
    t = math.tan(math.pi / (2 * n))
    return (n / alpha) * t * (1.0 + t * t) ** (n / 2.0)


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


def alpha_c(a: float, b: float, k1: float, k2: float, T: float, R: float, N: int) -> float:
    """Critical noise strength for the random PD network.

    sqrt(3/N) times the distance from -R to the traced crossing curves of the
    PD agent mode.  Requires -R strictly inside the zero-noise stability region.
    """
    F = presets.pd_agent_mode(a, b, k1, k2, T)
    v = membership(F, complex(-R))
    if v.verdict == "on_curve":
        return 0.0  # the anchor sits on a crossing curve: zero distance
    if v.verdict != "stable":
        raise AnchorUnstableError(f"anchor unstable at alpha=0: -R={-R} is {v.verdict}")
    return math.sqrt(3.0 / N) * _distance(F, complex(-R))


def _distance(F: CharFun, c: complex) -> float:
    """Least distance from c to the crossing curves of F: over the nodes and where Re(conj(L - c) L') = 0.

    The curve points at beta = 0 give a first distance d, and one trace covers the disk of radius d about c.
    """
    d = float(np.min(np.abs(poly_roots(F.lpoly(0.0)) - c), initial=np.inf))
    if not d < np.inf:
        raise ValueError("no crossing curve point at beta = 0 to bound the distance")
    brs = _disk_trace(F, c, d)
    return min([d, *(abs(L - c) for _, _, L in curve_zeros(brs, lambda L, Lp: np.real(np.conj(L - c) * Lp)))]
               + [float(np.min(np.abs(br.L - c))) for br in brs])


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
