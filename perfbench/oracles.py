"""Exact answers for the benchmark's checks, computed without delaystab.

Every function here works from the closed-form characteristic equation of
a model, never from delaystab's CharFun tables, contours or integrators:

* discrete delay, lam = A + L exp(-lam tau): the roots are
  lam = A + W_k(L tau exp(-A tau)) / tau over the Lambert-W branches k
  (Corless et al., Adv. Comput. Math. 5, 1996);
* Gamma and exponential kernels: clearing (1 + lam T/n)^n turns the
  equation into a polynomial whose roots are all the characteristic roots
  (the kernel pole -n/T is not a root);
* linear networks: dense eigenvalues of the full state matrix.

Polynomial roots are eigenvalues of the companion matrix, which is what
numpy.roots computes; here the companion matrices are stacked so one
LAPACK call serves a whole map.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize_scalar
from scipy.special import lambertw

# Lambert-W branches used for discrete-delay roots: k = -KMAX..KMAX.
KMAX = 60


class OracleError(RuntimeError):
    """The oracle cannot certify its own answer (e.g. truncation too short)."""


# ------------------------------------------------------------------ polynomials

def poly_roots(coeffs) -> np.ndarray:
    """Roots of polynomials with descending coefficients, batched.

    ``coeffs`` has shape (..., deg + 1) with a nonzero leading coefficient;
    the result has shape (..., deg).  Same companion form as numpy.roots.
    """
    c = np.asarray(coeffs, dtype=complex)
    deg = c.shape[-1] - 1
    if deg < 1:
        return np.zeros(c.shape[:-1] + (0,), dtype=complex)
    if np.any(c[..., 0] == 0):
        raise OracleError("leading coefficient vanishes")
    comp = np.zeros(c.shape[:-1] + (deg, deg), dtype=complex)
    comp[..., 0, :] = -c[..., 1:] / c[..., :1]
    comp[..., np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _with_constant(base: np.ndarray, const) -> np.ndarray:
    """Stack copies of ``base`` (descending) with ``const`` added to the constant term."""
    const = np.asarray(const, dtype=complex)
    out = np.broadcast_to(base.astype(complex), const.shape + base.shape).copy()
    out[..., -1] += const
    return out


def gamma_poly(a: complex, n: int, T: float, L) -> np.ndarray:
    """Coefficients of (lam - a)(1 + lam T/n)^n - L, one row per gain."""
    base = np.polymul([1.0, -a], np.poly1d([T / n, 1.0]) ** n)
    return _with_constant(np.asarray(base), -np.asarray(L))


def pd_poly(a, b, k1, k2, T, L) -> np.ndarray:
    """Coefficients of (lam^2 - a lam - b)(1 + lam T) - L (k1 + k2 lam)."""
    L = np.asarray(L, dtype=complex)
    base = np.polymul([1.0, -a, -b], [T, 1.0]).astype(complex)
    out = np.broadcast_to(base, L.shape + base.shape).copy()
    out[..., -2] -= L * k2
    out[..., -1] -= L * k1
    return out


def coupling_poly(n: int, T: float, mu) -> np.ndarray:
    """Coefficients of lam (1 + lam T/n)^n - mu (one car-following mode)."""
    base = np.polymul([1.0, 0.0], np.poly1d([T / n, 1.0]) ** n)
    return _with_constant(np.asarray(base), -np.asarray(mu))


def nu_poly(coeffs) -> np.ndarray:
    """Number of roots with nonnegative real part, per polynomial."""
    return np.sum(poly_roots(coeffs).real >= 0.0, axis=-1)


def abscissa_poly(coeffs) -> np.ndarray:
    """Largest real part of the roots, per polynomial."""
    return poly_roots(coeffs).real.max(axis=-1)


# ------------------------------------------------------------- discrete delays

def lambert_roots(A, L, tau: float, kmax: int = KMAX) -> np.ndarray:
    """Roots of lam - A - L exp(-lam tau) on the branches |k| <= kmax.

    ``A`` and ``L`` broadcast; the branch index is the last axis.  At L = 0
    only the principal branch is finite (lam = A); the others are -inf.
    """
    A = np.asarray(A, dtype=complex)
    L = np.asarray(L, dtype=complex)
    z = L * tau * np.exp(-A * tau)
    k = np.arange(-kmax, kmax + 1)
    with np.errstate(all="ignore"):
        return A[..., None] + lambertw(z[..., None], k) / tau


def _certified(lam: np.ndarray) -> np.ndarray:
    """Check that the outermost branches lie in the open left half-plane.

    Re W_k decreases like -log(2 pi |k|) on the outer branches, so once the
    two outermost branches on each side are stable, so are all the ones the
    truncation leaves out.
    """
    edge = lam[..., [0, 1, -2, -1]].real
    if np.any(edge >= 0.0):
        raise OracleError(f"Lambert-W truncation at |k| = {KMAX} reaches the right half-plane")
    return lam


def nu_discrete(A, L, tau: float) -> np.ndarray:
    """Exact unstable-root count of lam = A + L exp(-lam tau)."""
    lam = _certified(lambert_roots(A, L, tau))
    return np.sum(lam.real >= 0.0, axis=-1)


def abscissa_discrete(A, L, tau: float) -> np.ndarray:
    """Real part of the rightmost root of lam = A + L exp(-lam tau)."""
    lam = _certified(lambert_roots(A, L, tau))
    return np.where(np.isfinite(lam.real), lam.real, -np.inf).max(axis=-1)


# ----------------------------------------------------------- closed-form F

def residual_discrete(A, tau, lam, L):
    return lam - A - L * np.exp(-lam * tau)


def residual_drift_difference(c, lam, L):
    """lam - (c - L) - L exp(-lam): complex drift with difference coupling, tau = 1."""
    return lam - c + L - L * np.exp(-lam)


def residual_gamma(a, n, T, lam, L):
    return lam - a - L * (1.0 + lam * T / n) ** (-n)


def residual_pd(a, b, k1, k2, T, lam, L):
    return lam**2 - a * lam - b - L * (k1 + k2 * lam) / (1.0 + lam * T)


# ------------------------------------------------------------------ networks

def pd_network_matrix(J: np.ndarray, a, b, k1, k2, T) -> np.ndarray:
    """State matrix of x' = v, v' = a v + b x + J(k1 px + k2 pv), p' = (. - p)/T."""
    N = J.shape[0]
    I = np.eye(N)
    Z = np.zeros((N, N))
    return np.block([
        [Z, I, Z, Z],
        [b * I, a * I, k1 * J, k2 * J],
        [I / T, Z, -I / T, Z],
        [Z, I / T, Z, -I / T],
    ])


def spectral_abscissa(M: np.ndarray) -> float:
    return float(np.linalg.eigvals(M).real.max())


def multiset_distance(x, y) -> float:
    """Largest distance in the best one-to-one pairing of two point sets."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        return math.inf
    cost = np.abs(x[:, None] - y[None, :])
    i, j = linear_sum_assignment(cost)
    return float(cost[i, j].max())


def pd_crossing(a, b, k1, k2, T, beta):
    """Gain on the PD crossing curve at frequency beta (root lam = i beta)."""
    lam = 1j * np.asarray(beta, dtype=float)
    return (lam**2 - a * lam - b) * (1.0 + lam * T) / (k1 + k2 * lam)


def alpha_c(a, b, k1, k2, T, R, N, *, beta_max: float = 200.0) -> float:
    """sqrt(3/N) times the distance from -R to the PD crossing curve.

    A grid over [-beta_max, beta_max] finds the basins; bounded
    minimize_scalar polishes the five lowest.  The anchor -R must be stable
    (checked on the cubic), and the curve must leave the neighbourhood of
    -R well before the grid ends (|L| grows like beta^2 T / k2).
    """
    if np.any(nu_poly(pd_poly(a, b, k1, k2, T, complex(-R))) != 0):
        raise OracleError(f"anchor -R = {-R} is not stable")
    grid = np.linspace(-beta_max, beta_max, 400_001)
    d = np.abs(pd_crossing(a, b, k1, k2, T, grid) + R)
    if min(d[0], d[-1]) < 10.0 * d.min():
        raise OracleError("frequency grid too short for the distance minimum")
    h = grid[1] - grid[0]
    best = float(d.min())
    for i in np.argsort(d)[:5]:
        res = minimize_scalar(
            lambda x: float(abs(pd_crossing(a, b, k1, k2, T, x) + R)),
            bounds=(grid[i] - h, grid[i] + h),
            method="bounded",
            options={"xatol": 1e-13},
        )
        best = min(best, float(res.fun))
    return math.sqrt(3.0 / N) * best


def ring_modes(N: int, alpha: float) -> np.ndarray:
    """Transverse eigenvalues alpha (exp(2 pi i l / N) - 1), l = 1..N-1."""
    l = np.arange(1, N)
    return alpha * (np.exp(2j * np.pi * l / N) - 1.0)


def carfollowing_rate(n: int, N: int, alpha, T) -> np.ndarray:
    """Slowest transverse mode rate: max over l != 0 of Re roots of lam(1 + lam T/n)^n - mu_l.

    ``alpha`` and ``T`` broadcast; modes are the last axis before roots.
    """
    alpha = np.asarray(alpha, dtype=float)
    T = np.asarray(T, dtype=float)
    alpha, T = np.broadcast_arrays(alpha, T)
    out = np.empty(alpha.shape)
    for idx in np.ndindex(alpha.shape):
        mus = ring_modes(N, float(alpha[idx]))
        out[idx] = abscissa_poly(coupling_poly(n, float(T[idx]), mus)).max()
    return out


def carfollowing_Tc(n: int, N: int, alpha: float, *, rel_tol: float = 1e-12) -> float:
    """Smallest mean delay at which the slowest transverse mode reaches the axis.

    Bisection on the sign of the mode abscissa, starting from a stable
    small delay and doubling until the ring loses consensus.
    """
    def unstable(T):
        return carfollowing_rate(n, N, alpha, T)[()] >= 0.0

    lo, hi = 1e-6, 0.5
    if unstable(lo):
        raise OracleError("unstable at the smallest delay")
    while not unstable(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise OracleError("no instability found")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------- oscillators

def order_parameter(phases: np.ndarray) -> np.ndarray:
    """|mean exp(i theta)| per row."""
    return np.abs(np.exp(1j * np.asarray(phases)).mean(axis=-1))
