"""Characteristic functions of complex-gain delay systems.

A system ``zdot = Q(L) z + B(L) * integral(z(t - tau) h(tau) dtau)`` with
q-dimensional state and matrix entries polynomial in the complex gain L has
characteristic function

    F(lam, L) = lam^q - sum_{k,j,d} C[k, j, d] lam^k hhat(lam)^j L^d,

where hhat is the kernel transform, 0 <= k < q and k + j <= q.  A CharFun is
that one dense complex tensor C, of shape (q, q + 1, D) for L-degree D - 1.
``build_charfun`` fills it by cofactor expansion of det[lam I - Q - B hhat];
``eval``, ``d_lambda`` and ``d_L`` broadcast over arrays of lam and L;
``outer`` tabulates F over contour points times gains for the root counter;
``lpoly`` tabulates the polynomials in L at fixed lam that the curve tracer solves;
``radius_bound`` is the semicircle radius outside which F cannot vanish in
the closed right half-plane (the bound that makes root counting valid).
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from .kernels import DelayKernel, kernel_from_dict, kernel_to_dict, laplace, laplace_derivative

__all__ = [
    "CharFun",
    "build_charfun",
    "radius_bound",
    "charfun_to_dict",
    "charfun_from_dict",
]


def _coeffs(entry) -> np.ndarray:
    """A scalar or an ascending coefficient sequence as a 1-D complex array."""
    return np.atleast_1d(np.asarray(entry, dtype=complex))


def _horner(c: np.ndarray, L) -> np.ndarray:
    """sum_d c[..., d] L^d for every leading index of c, broadcast against L."""
    L = np.asarray(L, dtype=complex)
    c = c.reshape(c.shape[:-1] + (1,) * L.ndim + c.shape[-1:])
    acc = c[..., -1]
    for d in range(c.shape[-1] - 2, -1, -1):
        acc = acc * L + c[..., d]
    return acc


class CharFun:
    """Characteristic function as the coefficient tensor C[k, j, d].

    ``terms`` maps (k, j) to the coefficients of P_{k,j}(L), the factor of
    lam^k hhat^j: a scalar or a sequence ascending in L.  A transform factor
    on the top degree (j >= 1 at k = q) means neutral-type dynamics, for
    which contour root counting breaks down; such tables are rejected.
    ``support`` lists the (k, j) of nonzero P_{k,j} by descending k, then
    ascending j, as the cofactor expansion produces them; every method sums
    the terms in that order.
    """

    def __init__(self, q: int, kernel: DelayKernel, terms: Mapping[Tuple[int, int], Sequence[complex]]):
        if q < 1:
            raise ValueError(f"system dimension must be >= 1, got {q}")
        rows = {}
        for (k, j), entry in terms.items():
            c = np.trim_zeros(_coeffs(entry), "b")
            if not c.size:
                continue
            if k == q and j >= 1:
                raise ValueError(
                    "top-degree term lam^q carries a transform factor: neutral-type "
                    "dynamics are outside the supported system class"
                )
            if k >= q:
                raise ValueError(f"term lam^{k} conflicts with the monic leading term (q={q})")
            if k < 0 or j < 0 or k + j > q:
                raise ValueError(f"term exponents out of range: k={k}, j={j}, q={q}")
            rows[(k, j)] = c
        C = np.zeros((q, q + 1, max(map(len, rows.values()), default=1)), dtype=complex)
        for (k, j), c in rows.items():
            C[k, j, : len(c)] = c
        C.setflags(write=False)
        self.q = q
        self.kernel = kernel
        self.C = C
        self._dC = np.zeros_like(C)  # coefficients of dP_{k,j}/dL
        self._dC[..., :-1] = C[..., 1:] * np.arange(1, C.shape[2])
        self.support = [(k, j) for k in range(q - 1, -1, -1) for j in range(q + 1) if C[k, j].any()]

    def delay_free(self) -> bool:
        """True when no term involves the kernel transform."""
        return not self.C[:, 1:].any()

    def eval(self, lam, L):
        """F(lam, L); ``lam`` and ``L`` may be scalars or broadcastable arrays."""
        lam = np.asarray(lam, dtype=complex)
        hh = laplace(self.kernel, lam)
        P = _horner(self.C, L)
        acc = lam**self.q
        for k, j in self.support:
            acc = acc - P[k, j] * lam**k * hh**j
        return acc[()] if np.ndim(acc) == 0 else acc

    def outer(self, lam, L) -> np.ndarray:
        """F(lam_p, L_c) for every point p of ``lam`` and gain c of ``L``, shape (len(lam), len(L)).

        F is linear in the values P_{k,j}(L): the table is lam^q - Basis @ P(L)
        with Basis[p, t] = lam_p^k hhat(lam_p)^j over ``support``, one matrix product.
        """
        lam, L = np.asarray(lam, dtype=complex), np.asarray(L, dtype=complex)
        k, j = np.array(self.support, dtype=int).reshape(-1, 2).T
        basis = lam[:, None] ** k * laplace(self.kernel, lam)[:, None] ** j
        out = basis @ np.broadcast_to(_horner(self.C[k, j], L), (len(k), len(L)))  # also for an L-free table
        return np.subtract((lam**self.q)[:, None], out, out=out)  # in place: no second large temporary

    def d_lambda(self, lam, L):
        """Partial derivative of F in lam."""
        lam = np.asarray(lam, dtype=complex)
        hh = laplace(self.kernel, lam)
        hhp = laplace_derivative(self.kernel, lam)
        P = _horner(self.C, L)
        acc = self.q * lam ** (self.q - 1)
        for k, j in self.support:
            term = 0.0
            if k > 0:
                term = term + k * lam ** (k - 1) * hh**j
            if j > 0:
                term = term + lam**k * j * hh ** (j - 1) * hhp
            acc = acc - P[k, j] * term
        return acc[()] if np.ndim(acc) == 0 else acc

    def d_L(self, lam, L):
        """Partial derivative of F in L."""
        lam = np.asarray(lam, dtype=complex)
        hh = laplace(self.kernel, lam)
        dP = _horner(self._dC, L)
        acc = np.zeros(lam.shape, dtype=complex)
        for k, j in self.support:
            acc = acc - dP[k, j] * lam**k * hh**j
        return acc[()] if np.ndim(acc) == 0 else acc

    def term_size(self, lam, L):
        """|lam|^q + sum |P_{k,j}(L) lam^k hhat^j|: the scale of F's rounding error."""
        lam = np.asarray(lam, dtype=complex)
        hh = np.abs(laplace(self.kernel, lam))
        P = np.abs(_horner(self.C, L))
        r = np.abs(lam)
        acc = r**self.q
        for k, j in self.support:
            acc = acc + P[k, j] * r**k * hh**j
        return acc

    def lpoly(self, lam) -> np.ndarray:
        """Coefficients (ascending in L) of L -> F(lam, L) at fixed lam, solved at lam = i*beta.

        A 1-D array of m values of lam gives an (m, D) table, one row per value;
        a scalar lam gives one row as a 1-D array.
        """
        lam = np.asarray(lam, dtype=complex)
        lams = lam.reshape(-1)
        hh = laplace(self.kernel, lams)
        out = np.zeros((lams.size, self.C.shape[2]), dtype=complex)
        out[:, 0] = np.power(lams, self.q)  # np.power rounds a scalar and an array alike; ** may not
        for k, j in self.support:
            out -= self.C[k, j] * np.power(lams, k)[:, None] * np.power(hh, j)[:, None]
        return out[0] if lam.ndim == 0 else out

    def __repr__(self) -> str:
        return f"CharFun(q={self.q}, kernel={self.kernel!r}, terms={self.support})"


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials in (lam, hhat, L) held as dense [k, j, d] arrays,
    truncated to their shape (sized for the largest degree the determinant reaches)."""
    K, J, D = a.shape
    out = np.zeros_like(a)
    for k, j, d in np.argwhere(a):
        out[k:, j:, d:] += a[k, j, d] * b[: K - k, : J - j, : D - d]
    return out


def _det(M: np.ndarray) -> np.ndarray:
    """Cofactor expansion along the first column of a grid M[r, c, k, j, d]."""
    if len(M) == 1:
        return M[0, 0]
    out = np.zeros_like(M[0, 0])
    for r in range(len(M)):
        if M[r, 0].any():
            term = _mul(M[r, 0], _det(np.delete(M[:, 1:], r, axis=0)))
            out = out - term if r % 2 else out + term
    return out


def build_charfun(Q, B, kernel: DelayKernel) -> CharFun:
    """Expand det[lam I - Q(L) - B(L) * hhat(lam)] into a CharFun.

    Each matrix entry is a scalar or a sequence of coefficients ascending in
    L.  ``lam`` and hhat are independent indeterminates during the expansion;
    cofactor recursion is fine at the small dimensions used here.
    """
    Q, B = ([[_coeffs(e) for e in row] for row in X] for X in (Q, B))
    if any(not X or any(len(row) != len(X) for row in X) for X in (Q, B)):
        raise ValueError("matrix entries must form a nonempty square grid")
    q = len(Q)
    if len(B) != q:
        raise ValueError(f"dimension mismatch: Q is {q}x{q}, B is {len(B)}x{len(B)}")
    deg = max(len(c) for row in Q + B for c in row) - 1
    M = np.zeros((q, q, q + 1, q + 1, q * max(deg, 0) + 1), dtype=complex)
    for r in range(q):
        M[r, r, 1, 0, 0] = 1.0
        for c in range(q):
            M[r, c, 0, 0, : len(Q[r][c])] = -Q[r][c]
            M[r, c, 0, 1, : len(B[r][c])] = -B[r][c]
    det = _det(M)
    det[q, 0, 0] -= 1.0  # the lam^q coefficient must be exactly the unit
    if np.abs(det[q]).max() > 1e-12:
        raise ValueError("determinant expansion is not monic in lam^q")
    C = 0.0 - det[:q]  # 0 - x, not -x, so that zero coefficients stay +0
    return CharFun(q, kernel, {(k, j): C[k, j] for k in range(q) for j in range(q + 1)})


def radius_bound(F: CharFun, center: complex, radius: float) -> float:
    """Radius R with |F(lam, L)| >= |lam|^q / 2 for |lam| >= R, Re lam >= 0.

    Valid for every L in the disk |L - center| <= radius.  Uses the
    triangle inequality with |hhat| <= 1 on the closed right half-plane and
    coefficient-sum bounds for each P_{k,j} on the disk, then doubles R
    until the residual sum drops below one half.
    """
    if radius < 0 or not np.isfinite(radius) or not np.isfinite(center):
        raise ValueError("window must be bounded: finite center, nonnegative radius")
    rho = abs(center) + radius
    m = np.sum(np.abs(F.C) * rho ** np.arange(F.C.shape[2]), axis=2)
    R = 1.0
    for _ in range(200):
        total = sum(m[k, j] * R ** (k - F.q) for k, j in F.support)
        if total <= 0.5:
            return R
        R *= 2.0
    raise RuntimeError("radius bound search failed to converge")


def charfun_to_dict(F: CharFun) -> dict:
    return {
        "q": F.q,
        "kernel": kernel_to_dict(F.kernel),
        "terms": [
            {"k": k, "j": j, "poly": [[float(c.real), float(c.imag)] for c in np.trim_zeros(F.C[k, j], "b")]}
            for k, j in sorted(F.support)
        ],
    }


def charfun_from_dict(d: dict) -> CharFun:
    terms = {(int(t["k"]), int(t["j"])): [complex(re, im) for re, im in t["poly"]] for t in d["terms"]}
    return CharFun(int(d["q"]), kernel_from_dict(d["kernel"]), terms)
