"""NU maps against exact root counts that share no code with the contour counter.

A discrete delay, lam = A + L exp(-lam tau), has the roots
lam = A + W_k(L tau exp(-A tau)) / tau over the Lambert-W branches k
(Corless et al., Adv. Comput. Math. 5, 1996); the drift-difference system
is the case A = c - L, tau = 1.  For a Gamma kernel, clearing
(1 + lam T/n)^n turns lam - a - L (1 + lam T/n)^-n into a polynomial of
degree n + 1 whose roots are all the characteristic roots.
"""

import numpy as np
import pytest
from scipy.special import lambertw

from delaystab import presets
from delaystab.regions import nu_map, trace_covering

KMAX = 60  # Lambert-W branches k = -KMAX..KMAX


def nu_discrete(A, L, tau):
    """Roots with Re >= 0 of lam = A + L exp(-lam tau), per gain."""
    A = np.asarray(A, dtype=complex)
    z = np.asarray(L, dtype=complex) * tau * np.exp(-A * tau)
    with np.errstate(all="ignore"):  # W_k(0) = -inf for k != 0
        lam = A[..., None] + lambertw(z[..., None], np.arange(-KMAX, KMAX + 1)) / tau
    # Re W_k falls like -log(2 pi |k|): stable outermost branches bound the ones left out
    assert np.all(lam[..., [0, 1, -2, -1]].real < 0.0)
    return np.sum(lam.real >= 0.0, axis=-1)


def gamma_poly(a, n, T, L):
    """Descending coefficients of (lam - a)(1 + lam T/n)^n - L, one row per gain."""
    base = np.asarray(np.polymul([1.0, -a], np.poly1d([T / n, 1.0]) ** n), dtype=complex)
    L = np.asarray(L, dtype=complex)
    out = np.broadcast_to(base, L.shape + base.shape).copy()
    out[..., -1] -= L
    return out


def nu_poly(coeffs):
    """Roots with Re >= 0 per polynomial, from stacked companion matrices (as numpy.roots)."""
    c = np.asarray(coeffs, dtype=complex)
    deg = c.shape[-1] - 1
    comp = np.zeros(c.shape[:-1] + (deg, deg), dtype=complex)
    comp[..., 0, :] = -c[..., 1:] / c[..., :1]
    comp[..., np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return np.sum(np.linalg.eigvals(comp).real >= 0.0, axis=-1)


# criterion 1's eight systems: preset, window and exact count
CASES = {
    "growth-feedback": (presets.growth_with_feedback(), (-4.0, 4.0, -4.0, 4.0),
                        lambda L: nu_discrete(1.0, L, 0.5)),
    "drift-difference": (presets.drift_difference_coupling(), (-1.0, 1.0, -1.0, 1.0),
                         lambda L: nu_discrete(0.1 + 0.1j - L, L, 1.0)),
    "point-delay a*tau<1": (presets.scalar_discrete(1.0, 0.0, 0.5), (-3.5, 0.5, -2.0, 2.0),
                            lambda L: nu_discrete(1.0, L, 0.5)),
    "point-delay a*tau>1": (presets.scalar_discrete(1.0, 0.0, 1.5), (-3.0, 3.0, -3.0, 3.0),
                            lambda L: nu_discrete(1.0, L, 1.5)),
    "gamma n=1 aT<1": (presets.scalar_gamma(1.0, 1, 0.5), (-6.0, 2.0, -4.0, 4.0),
                       lambda L: nu_poly(gamma_poly(1.0, 1, 0.5, L))),
    "gamma n=1 aT>1": (presets.scalar_gamma(1.0, 1, 1.5), (-4.0, 4.0, -4.0, 4.0),
                       lambda L: nu_poly(gamma_poly(1.0, 1, 1.5, L))),
    "gamma n=2 aT<1": (presets.scalar_gamma(1.0, 2, 0.5), (-7.0, 3.0, -5.0, 5.0),
                       lambda L: nu_poly(gamma_poly(1.0, 2, 0.5, L))),
    "gamma n=2 aT>1": (presets.scalar_gamma(1.0, 2, 1.5), (-4.0, 4.0, -4.0, 4.0),
                       lambda L: nu_poly(gamma_poly(1.0, 2, 1.5, L))),
}


def test_oracles_on_known_cases():
    # lam = 1 + L exp(-lam/2): one unstable root at L = 0, two at L = -3, none at L = -1.5
    assert nu_discrete(1.0, np.array([0.0, -3.0, -1.5]), 0.5).tolist() == [1, 2, 0]
    # (lam - 1)(1 + lam/2) - L at L = -1: lam^2/2 + lam/2 = 0, roots 0 and -1
    assert gamma_poly(1.0, 1, 0.5, -1.0).tolist() == [0.5, 0.5, 0.0]
    assert nu_poly([[1.0, 0.0, -1.0], [1.0, 2.0, 2.0], [1.0, -3.0, 2.0]]).tolist() == [1, 0, 2]


@pytest.mark.parametrize("case", list(CASES))
def test_maps_equal_exact_counts(case):
    F, window, exact = CASES[case]
    branches = trace_covering(F, window)
    m = nu_map(F, window, (41, 41), branches)
    mo = nu_map(F, window, (41, 41), branches, full_oracle=True)
    xs, ys = m.cell_centers()
    open_cells = m.component_ids >= 0
    want = exact((xs[None, :] + 1j * ys[:, None])[open_cells])
    assert open_cells.sum() > 1000
    assert np.array_equal(m.labels[open_cells], want)
    assert np.array_equal(mo.labels[open_cells], want)
