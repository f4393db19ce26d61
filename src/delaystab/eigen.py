"""Complex eigenvalues and polynomial roots.

Dense eigenvalues come from LAPACK (``geev`` through ``numpy.linalg``,
which balances the matrix first).  Polynomial roots come from the
companion matrix of the monic normalization; degrees one and two are
solved in closed form.  A stack of polynomials is solved in one batch:
closed forms over all rows of degree one or two, and the companion
matrices of each higher degree stacked into one LAPACK call (Edelman &
Murakami, Math. Comp. 64, 1995).
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigvals", "poly_roots"]


def eigvals(A) -> np.ndarray:
    """All eigenvalues of a square matrix as a complex array, unordered."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got shape {A.shape}")
    return np.linalg.eigvals(A).astype(complex)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product with each real product and sum rounded on its own.

    numpy rounds a product of two complex scalars this way, but its array
    loop may fuse a multiply and an add; batches use this form to keep the
    bits of one-at-a-time arithmetic.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| rounded as for a complex scalar (``np.abs`` on an array may differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def poly_roots(coeffs) -> np.ndarray:
    """Roots of one polynomial (1-D) or of a stack of them (2-D, one per row).

    Coefficients are ascending and complex.  Trailing (leading-degree)
    coefficients of negligible relative size are trimmed from each
    polynomial first; a constant polynomial has no roots.  One polynomial
    gives the array of its roots.  A stack of m polynomials of length n + 1
    gives an (m, n) array whose row i holds the roots of polynomial i and
    then NaN, one for each trimmed degree.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise ValueError(f"coefficients must be a nonempty 1-D or 2-D array, got shape {c.shape}")
    stack = np.atleast_2d(c)
    scale = np.max(np.abs(stack), axis=1)
    if np.any(scale == 0.0):
        raise ValueError("zero polynomial has no well-defined roots")
    kept = ~(_cabs(stack) <= 1e-14 * scale[:, None])
    deg = stack.shape[1] - 1 - np.argmax(kept[:, ::-1], axis=1)
    out = np.full((len(stack), stack.shape[1] - 1), np.nan, dtype=complex)
    one = deg == 1
    if one.any():
        out[one, 0] = -stack[one, 0] / stack[one, 1]
    two = deg == 2
    if two.any():
        a2, a1, a0 = stack[two, 2], stack[two, 1], stack[two, 0]
        disc = np.sqrt(_cmul(a1, a1) - _cmul(4.0 * a2, a0) + 0.0j)
        # pick the sign that avoids cancellation in -a1 -+ disc
        q = -0.5 * np.where(_cabs(a1 + disc) >= _cabs(a1 - disc), a1 + disc, a1 - disc)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[two, :2] = np.where((q == 0.0)[:, None], 0.0, np.stack([q / a2, a0 / q], axis=1))
    for d in np.unique(deg[deg >= 3]):
        rows = deg == d
        monic = stack[rows, : d + 1] / stack[rows, d, None]
        comp = np.zeros((len(monic), d, d), dtype=complex)
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, d - 1] = -monic[:, :d]
        out[rows, :d] = np.linalg.eigvals(comp)
    return out if c.ndim == 2 else out[0, : deg[0]]
