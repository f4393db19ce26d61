import numpy as np
import pytest

from delaystab.eigen import eigvals, poly_roots


def _match_error(got, expected):
    got = list(got)
    worst = 0.0
    for e in expected:
        i = int(np.argmin([abs(e - g) for g in got]))
        worst = max(worst, abs(e - got.pop(i)))
    return worst


@pytest.mark.parametrize("n", [2, 8, 20, 50])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trace_and_determinant_invariants(n, kind):
    rng = np.random.default_rng(100 * n + (kind == "complex"))
    A = rng.standard_normal((n, n))
    if kind == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    ev = eigvals(A)
    assert len(ev) == n
    assert abs(ev.sum() - np.trace(A)) <= 1e-6 * max(1.0, abs(np.trace(A)))
    det = np.linalg.det(A)  # LU-based oracle
    assert abs(np.prod(ev) - det) <= 1e-6 * abs(det)


def test_ring_spectrum_closed_form():
    N, alpha = 10, 1.0
    J = -alpha * np.eye(N)
    J[np.arange(N), (np.arange(N) + 1) % N] = alpha
    expected = alpha * (np.exp(2j * np.pi * np.arange(N) / N) - 1.0)
    assert _match_error(eigvals(J), expected) < 1e-10


def test_diagonalizable_with_known_spectrum():
    rng = np.random.default_rng(11)
    d = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    A = Q @ np.diag(d) @ Q.conj().T
    assert _match_error(eigvals(A), d) < 1e-9


def test_jordan_block():
    J = 2.0 * np.eye(6) + np.eye(6, k=1)
    ev = eigvals(J)
    assert np.max(np.abs(ev - 2.0)) < 1e-2  # defective: eigenvalues split O(eps^(1/6))
    assert abs(ev.sum() - 12.0) < 1e-8


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigvals(np.zeros((2, 3)))


def test_small_sizes():
    assert eigvals(np.array([[3.0 + 1j]]))[0] == 3.0 + 1j
    ev = np.sort_complex(eigvals(np.array([[0.0, 1.0], [-2.0, 0.0]])))
    assert np.allclose(ev, np.sort_complex(np.array([1j * np.sqrt(2), -1j * np.sqrt(2)])))


def test_poly_roots_factored():
    r = np.sort_complex(poly_roots([6.0, -5.0, 1.0]))
    assert np.allclose(r, [2.0, 3.0])
    r = np.sort_complex(poly_roots([-6.0, 11.0, -6.0, 1.0]))
    assert np.allclose(r, [1.0, 2.0, 3.0], atol=1e-10)


def test_poly_roots_residuals():
    rng = np.random.default_rng(2)
    for deg in (3, 4, 6):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        roots = poly_roots(c)
        assert len(roots) == deg
        vals = np.polynomial.polynomial.polyval(roots, c)
        assert np.max(np.abs(vals)) < 1e-8 * np.max(np.abs(c))


def test_poly_roots_degree_trim():
    assert len(poly_roots([3.0, 1e-20])) == 0  # constant after trimming
    assert len(poly_roots([3.0, 2.0, 1e-22])) == 1


def test_poly_roots_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots([0.0, 0.0])


def test_quadratic_cancellation_safe():
    # roots 1e8 and 1e-8: naive formula loses the small root
    r = np.sort_complex(poly_roots([1.0, -(1e8 + 1e-8), 1.0]))
    assert abs(r[0] - 1e-8) < 1e-16
    assert abs(r[1] - 1e8) < 1.0


def test_real_spectrum_comes_back_complex():
    # LAPACK returns a real array when every eigenvalue of a real matrix is real
    ev = eigvals(np.diag([1.0, 2.0, 3.0]))
    assert ev.dtype == complex
    assert np.array_equal(np.sort(ev.real), [1.0, 2.0, 3.0]) and not ev.imag.any()


def test_poly_roots_stack_rows():
    # degrees 0 to 4 after trimming, closed forms and companions mixed in one stack
    rng = np.random.default_rng(5)
    c = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    deg = np.arange(12) % 5
    c[np.arange(5) > deg[:, None]] = 0.0
    c[3, 4] = 1e-20  # trimmed: degree 3
    roots = poly_roots(c)
    assert roots.shape == (12, 4)
    for row, r, d in zip(c, roots, np.where(np.arange(12) == 3, 3, deg)):
        assert np.isnan(r[d:]).all() and not np.isnan(r[:d]).any()
        assert np.array_equal(r[:d], poly_roots(row))
        vals = np.polynomial.polynomial.polyval(r[:d], row)
        assert np.max(np.abs(vals), initial=0.0) < 1e-8 * np.max(np.abs(row))
    with pytest.raises(ValueError):
        poly_roots(np.vstack([c, np.zeros(5)]))
