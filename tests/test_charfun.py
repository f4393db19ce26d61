import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaystab import presets
from delaystab.charfun import (
    CharFun,
    build_charfun,
    charfun_from_dict,
    charfun_to_dict,
    radius_bound,
)
from delaystab.eigen import poly_roots
from delaystab.kernels import Dirac, Gamma, Uniform, laplace


def _random_system(rng, q):
    """Random polynomial Q, B grids of dimension q (degree <= 1 entries)."""
    def grid():
        return [
            [
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for _ in range(q)
            ]
            for _ in range(q)
        ]

    return grid(), grid()


SYSTEMS = [
    presets.growth_with_feedback(),
    presets.drift_difference_coupling(),
    presets.scalar_discrete(1.0, 2.5, 0.5),
    presets.scalar_gamma(1.0, 2, 0.8),
    presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, 0.2),
    presets.coupling_mode(Gamma(2, 0.6)),
    presets.coupling_mode(Uniform(0.2, 0.5)),
    # a custom q = 3 system with complex entries up to cubic in L
    build_charfun(
        [[[0.2j, -1.0], 1.0, 0.0], [0.0, [0.5, 0.0, 0.3 - 0.1j], 1.0], [-0.4, 0.0, [-1.0, 0.0, 0.0, 0.2]]],
        [[0.0, 0.0, 0.0], [[0.0, 0.3j], 0.0, 0.0], [[0.1, 0.7], [0.0, 0.0, 0.5], [0.0, -0.6 + 0.2j]]],
        Dirac(0.4),
    ),
]


def test_growth_feedback_formula():
    F = presets.growth_with_feedback()
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        L = complex(rng.standard_normal(), rng.standard_normal())
        assert F.eval(lam, L) == pytest.approx(lam - 1 - L * np.exp(-lam / 2), rel=1e-14)


def test_term_size_growth_feedback():
    F = presets.growth_with_feedback()
    lam, L = 0.3 - 2.0j, 4.0 + 1.0j
    expect = abs(lam) + 1.0 + abs(L) * abs(np.exp(-lam / 2))
    assert F.term_size(lam, L) == pytest.approx(expect, rel=1e-14)


def test_drift_difference_formula():
    F = presets.drift_difference_coupling()
    rng = np.random.default_rng(6)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        L = complex(rng.standard_normal(), rng.standard_normal())
        expect = lam - 0.1 * (1 + 1j) - L * (np.exp(-lam) - 1)
        assert F.eval(lam, L) == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_pd_agent_formula():
    F = presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, 0.3)
    lam, L = 0.4 - 1.1j, -2.0 + 0.5j
    hh = 1.0 / (1.0 + lam * 0.3)
    expect = lam**2 - lam - 1 - (1 + 1.1 * lam) * L * hh
    assert F.eval(lam, L) == pytest.approx(expect, rel=1e-13)


def test_eval_plugin_values():
    F1 = presets.growth_with_feedback()
    assert F1.eval(0.0, 0.0) == pytest.approx(-1.0)
    F2 = presets.drift_difference_coupling()
    for L in (0.0, 3.0 - 2.0j, 100.0j):
        assert F2.eval(0.0, L) == pytest.approx(-0.1 - 0.1j, abs=1e-12)


def test_crossing_curve_roots_vanish():
    F1 = presets.growth_with_feedback()
    for b in np.linspace(-9, 9, 25):
        L = np.exp(1j * b / 2) * (1j * b - 1)
        assert abs(F1.eval(1j * b, L)) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_determinant_expansion_matches_direct(q):
    rng = np.random.default_rng(42 + q)
    Q, B = _random_system(rng, q)
    kernel = Gamma(2, 0.7)
    F = build_charfun(Q, B, kernel)

    def value(grid, L):
        return np.array([[np.polyval(e[::-1], L) for e in row] for row in grid])

    for _ in range(200 // q):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        L = complex(rng.standard_normal(), rng.standard_normal())
        direct = np.linalg.det(lam * np.eye(q) - value(Q, L) - value(B, L) * laplace(kernel, lam))
        built = F.eval(lam, L)
        assert abs(built - direct) <= 1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize("F", SYSTEMS, ids=lambda f: f"q{f.q}")
def test_partials_match_finite_differences(F):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        L = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        fd_l = (F.eval(lam + h, L) - F.eval(lam - h, L)) / (2 * h)
        fd_L = (F.eval(lam, L + h) - F.eval(lam, L - h)) / (2 * h)
        assert abs(F.d_lambda(lam, L) - fd_l) <= 1e-6 * max(1.0, abs(fd_l))
        assert abs(F.d_L(lam, L) - fd_L) <= 1e-6 * max(1.0, abs(fd_L))


def test_hand_derivatives():
    F = presets.growth_with_feedback()
    # dF/dlam = 1 + (L/2) e^{-lam/2}
    assert F.d_lambda(0.0, 2.0) == pytest.approx(2.0)
    # dF/dL = -e^{-lam/2}
    assert F.d_L(0.0, 123.0 + 4j) == pytest.approx(-1.0)
    assert F.d_L(2.0, 0.0) == pytest.approx(-np.exp(-1.0))


def test_radius_bound_single_term():
    # F = lam - c with |c| <= 1 on the window
    F = CharFun(1, Dirac(0.0), {(0, 0): [0.6 + 0.8j]})
    R = radius_bound(F, 0.0, 0.0)
    assert R <= 4.0


def test_radius_bound_growth_feedback():
    F = presets.growth_with_feedback()
    R = radius_bound(F, 0.0, 3.0)
    assert R <= 8.0


@pytest.mark.parametrize("F", SYSTEMS, ids=lambda f: f"q{f.q}")
def test_radius_bound_excludes_roots(F):
    # |F| >= R^q/2 on the right arc and at window corners
    center, radius = 0.5 - 0.5j, 3.0
    R = radius_bound(F, center, radius)
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 720)
    lam = R * np.exp(1j * thetas)
    for corner in (
        center + radius,
        center - radius,
        center + 1j * radius,
        center - 1j * radius,
        center + radius * (1 + 1j) / np.sqrt(2),
    ):
        vals = np.abs(F.eval(lam, corner))
        assert np.min(vals) >= (R**F.q / 2.0) * (1.0 - 1e-9)


_unit = st.floats(0.05, 2.0)
_CERTIFIED_SYSTEMS = st.one_of(
    st.builds(presets.scalar_discrete, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), _unit),
    st.builds(presets.scalar_gamma, st.floats(-2.0, 2.0), st.integers(1, 4), _unit),
    st.builds(presets.pd_agent_mode, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _unit, _unit, st.floats(0.0, 1.0)),
    st.builds(lambda a, A: presets.coupling_mode(Uniform(a, A)), st.floats(0.0, 1.0), _unit),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(F=_CERTIFIED_SYSTEMS, cre=st.floats(-8.0, 8.0), cim=st.floats(-8.0, 8.0), radius=st.floats(0.0, 8.0))
def test_radius_bound_certifies_no_crossing_beyond_it(F, cre, cim, radius):
    # no gain in the disk puts a root at i beta with R <= |beta| <= 4R: every L-root lies outside it
    center = complex(cre, cim)
    R = radius_bound(F, center, radius)
    beta = np.concatenate([-np.geomspace(R, 4.0 * R, 101), np.geomspace(R, 4.0 * R, 101)])
    roots = poly_roots(F.lpoly(1j * beta))
    assert not (np.abs(roots - center) <= radius).any()


def test_neutral_type_rejected():
    with pytest.raises(ValueError, match="neutral"):
        CharFun(1, Dirac(1.0), {(1, 1): [0, 1]})
    with pytest.raises(ValueError):
        CharFun(2, Dirac(1.0), {(2, 0): [1.0]})


def test_term_range_validation():
    with pytest.raises(ValueError):
        CharFun(2, Dirac(1.0), {(1, 2): [1.0]})  # k + j > q


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        build_charfun([[1.0]], [[0.0, 0.0], [0.0, 0.0]], Dirac(1.0))


def test_lpoly_consistency():
    rng = np.random.default_rng(3)
    for F in SYSTEMS:
        for _ in range(10):
            beta = rng.uniform(-4, 4)
            L = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            coeffs = F.lpoly(1j * beta)
            horner = 0.0 + 0.0j
            for c in coeffs[::-1]:
                horner = horner * L + c
            assert abs(horner - F.eval(1j * beta, L)) < 1e-10 * max(1.0, abs(horner))



def test_lpoly_table_rows_match_single_lam():
    lam = 1j * np.linspace(-4.0, 4.0, 9)
    for F in SYSTEMS:
        table = F.lpoly(lam)
        assert table.shape == (9, F.C.shape[2])
        assert all(np.array_equal(row, F.lpoly(x)) for row, x in zip(table, lam))

def test_json_roundtrip():
    for F in SYSTEMS:
        doc = json.loads(json.dumps(charfun_to_dict(F)))
        G = charfun_from_dict(doc)
        lam, L = 0.3 + 0.9j, -1.1 + 0.4j
        assert G.q == F.q
        assert G.eval(lam, L) == pytest.approx(F.eval(lam, L), rel=1e-14)


@pytest.mark.parametrize("F", SYSTEMS, ids=lambda f: f"q{f.q}")
def test_array_calls_match_elementwise(F):
    rng = np.random.default_rng(23)
    lam = rng.uniform(-1, 1, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
    L = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
    for method in (F.eval, F.d_lambda, F.d_L):
        for a, b in ((lam, L), (lam, L[0, 0]), (lam[0, 0], L), (lam[:, :1], L[:1, :])):
            got = method(a, b)
            a_b, b_b = np.broadcast_arrays(a, b)
            assert got.shape == a_b.shape
            want = np.array([method(x, y) for x, y in zip(a_b.ravel(), b_b.ravel())]).reshape(a_b.shape)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1e-300))


def test_tensor_layout():
    F = presets.pd_agent_mode(1.0, 2.0, 3.0, 4.0, 0.5)
    # F = lam^2 - lam - 2 - (3 + 4 lam) L hhat
    assert F.C.shape == (2, 3, 2)
    assert F.support == [(1, 0), (1, 1), (0, 0), (0, 1)]
    assert F.C[0, 0].tolist() == [2.0, 0.0]
    assert F.C[1, 0].tolist() == [1.0, 0.0]
    assert F.C[0, 1].tolist() == [0.0, 3.0]
    assert F.C[1, 1].tolist() == [0.0, 4.0]
    # trailing zero coefficients are trimmed, and serialization drops them
    G = CharFun(1, Dirac(1.0), {(0, 0): [1.0, 0.0, 0.0], (0, 1): 0.0})
    assert G.C.shape == (1, 2, 1) and G.support == [(0, 0)]
    assert charfun_to_dict(G)["terms"] == [{"k": 0, "j": 0, "poly": [[1.0, 0.0]]}]
