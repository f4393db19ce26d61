"""Complex eigenvalues and polynomial roots.

Dense eigenvalues come from LAPACK (``geev`` through ``numpy.linalg``,
which balances the matrix first).  Polynomial roots come from the
companion matrix of the monic normalization; degrees one and two are
solved in closed form.
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


def poly_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given ascending complex coefficients.

    Trailing (leading-degree) coefficients of negligible relative size are
    trimmed first; a constant polynomial has no roots.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0:
        raise ValueError("empty coefficient array")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise ValueError("zero polynomial has no well-defined roots")
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) <= 1e-14 * scale:
        deg -= 1
    c = c[: deg + 1]
    if deg == 0:
        return np.zeros(0, dtype=complex)
    if deg == 1:
        return np.array([-c[0] / c[1]])
    if deg == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0 + 0.0j)
        # pick the sign that avoids cancellation in -a1 -+ disc
        if abs(a1 + disc) >= abs(a1 - disc):
            q = -0.5 * (a1 + disc)
        else:
            q = -0.5 * (a1 - disc)
        if q == 0.0:
            return np.zeros(2, dtype=complex)
        return np.array([q / a2, a0 / q])
    monic = c / c[deg]
    comp = np.zeros((deg, deg), dtype=complex)
    comp[np.arange(1, deg), np.arange(deg - 1)] = 1.0
    comp[:, deg - 1] = -monic[:deg]
    return eigvals(comp)
