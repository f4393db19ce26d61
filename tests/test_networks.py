import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from delaystab import networks as nw
from delaystab import presets
from delaystab.kernels import Gamma
from delaystab.regions import membership


def test_ring_spectrum_closed_form():
    s = nw.spectrum(nw.Ring(4, 1.0))
    assert s.method == "closed_form"
    expect = {0.0, -1.0 + 1.0j, -2.0, -1.0 - 1.0j}
    for mu in expect:
        assert min(abs(mu - e) for e in s.eigenvalues) < 1e-12
    assert np.sum(np.abs(s.eigenvalues) < 1e-15) == 1  # zero exactly once


def test_ring_trace_invariant():
    for N, alpha in ((10, 1.0), (7, 2.5)):
        s = nw.spectrum(nw.Ring(N, alpha))
        assert abs(s.eigenvalues.sum() - (-N * alpha)) < 1e-9


def test_chain_spectrum():
    s = nw.spectrum(nw.Chain(10, 2.0))
    vals = np.sort(s.eigenvalues.real)
    assert vals[-1] == 0.0
    assert np.allclose(vals[:-1], -2.0)


def test_random_zero_noise_degenerates():
    s = nw.spectrum(nw.RandomNet(100, 2.0, 0.0, seed=3))
    assert np.max(np.abs(s.eigenvalues + 2.0)) < 1e-8


def test_qr_spectrum_trace_det():
    for N in (8, 30, 50):
        J = nw.network_matrix(nw.RandomNet(N, 2.0, 0.7, seed=N))
        ev = nw.spectrum(nw.RandomNet(N, 2.0, 0.7, seed=N)).eigenvalues
        assert abs(ev.sum() - np.trace(J)) < 1e-6 * max(1.0, abs(np.trace(J)))
        det = np.linalg.det(J)
        assert abs(np.prod(ev) - det) < 1e-6 * abs(det)


def test_laplacian_rows_sum_to_zero():
    W = ((0.0, 1.0, 2.0), (0.5, 0.0, 0.0), (1.0, 1.0, 0.0))
    J = nw.network_matrix(nw.Laplacian(W))
    assert np.allclose(J.sum(axis=1), 0.0)
    s = nw.spectrum(nw.Laplacian(W))
    assert min(abs(s.eigenvalues)) < 1e-10
    with pytest.raises(ValueError):
        nw.Laplacian(((1.0, 0.0), (0.0, 0.0)))  # nonzero diagonal


def test_circular_law_circle_values():
    c, r = nw.circular_law_circle(3, 0.0, 1.0)
    assert (c, r) == (0.0, pytest.approx(1.0))
    c, r = nw.circular_law_circle(100, 2.0, 0.5)
    assert c == -2.0
    assert r == pytest.approx(0.5 * math.sqrt(100 / 3))


def test_circular_law_empirical_quick():
    inside = total = 0
    for seed in range(5):
        s = nw.spectrum(nw.RandomNet(100, 2.0, 0.5, seed=seed))
        c, r = nw.circular_law_circle(100, 2.0, 0.5)
        inside += int(np.sum(np.abs(s.eigenvalues - c) <= 1.05 * r))
        total += len(s.eigenvalues)
    assert inside / total >= 0.95


def test_carfollowing_Tc_high_precision():
    mpmath.mp.dps = 50
    for n, N, alpha in ((1, 10, 1.0), (2, 5, 0.5), (2, 10, 2.0)):
        t = mpmath.tan(mpmath.pi / (N * n))
        oracle = n * t * (1 + t**2) ** (mpmath.mpf(n) / 2) / (2 * alpha * mpmath.sin(mpmath.pi / N))
        assert nw.carfollowing_Tc(n, N, alpha) == pytest.approx(float(oracle), rel=1e-14)
    # recomputed value for the headline case (tan18 * sec18 / (2 sin18))
    assert nw.carfollowing_Tc(1, 10, 1.0) == pytest.approx(0.5527864045000421, rel=1e-12)


def test_carfollowing_Tc_large_N_limit():
    # 2*alpha*Tc -> 1 as N grows (n = 1)
    val = 2.0 * 1.0 * nw.carfollowing_Tc(1, 10_000, 1.0)
    assert abs(val - 1.0) < 0.01


def test_carfollowing_Tc_numeric_agrees():
    tc = nw.carfollowing_Tc(1, 10, 1.0)
    tcn = nw.carfollowing_Tc_numeric(1, 10, 1.0)
    assert abs(tcn - tc) / tc < 1e-6


def test_chain_Tc():
    assert math.isinf(nw.chain_Tc(1, 0.3))
    assert nw.chain_Tc(2, 1.0) == pytest.approx(4.0)
    assert nw.chain_Tc(2, 2.0) == pytest.approx(2.0)


def test_msf_consensus_ring():
    tc = nw.carfollowing_Tc(1, 10, 1.0)
    F = presets.coupling_mode(Gamma(1, 0.9 * tc))
    ok, off = nw.msf_consensus_check(nw.Ring(10, 1.0), lambda mu: membership(F, mu))
    assert ok and off == []
    F = presets.coupling_mode(Gamma(1, 1.1 * tc))
    ok, off = nw.msf_consensus_check(nw.Ring(10, 1.0), lambda mu: membership(F, mu))
    assert not ok
    mu1 = 1.0 * (np.exp(2j * np.pi / 10) - 1)
    assert any(abs(m - mu1) < 1e-9 for m in off)
    assert any(abs(m - np.conj(mu1)) < 1e-9 for m in off)


def test_msf_consensus_chain():
    # n = 2: finite critical delay (n/alpha) tan(pi/4) (1 + tan^2(pi/4))
    tc = nw.chain_Tc(2, 1.0)
    F = presets.coupling_mode(Gamma(2, 1.1 * tc))
    ok, off = nw.msf_consensus_check(nw.Chain(6, 1.0), lambda mu: membership(F, mu))
    assert not ok
    assert all(abs(m + 1.0) < 1e-12 for m in off)
    F = presets.coupling_mode(Gamma(2, 0.9 * tc))
    ok, _ = nw.msf_consensus_check(nw.Chain(6, 1.0), lambda mu: membership(F, mu))
    assert ok


def test_mas_critical_values():
    assert nw.mas_Tc1(Fraction(1), Fraction(1), Fraction(1), Fraction(11, 10)) == Fraction(1, 10)
    assert nw.mas_Tc2(1.0, 1.0, 1.1) == pytest.approx(1.1 / 2.1, abs=1e-15)
    assert nw.mas_scc(1.0, 1.0, 1.0, 1.1, 0.2, 0.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        nw.mas_Tc2(-10.0, 1.0, 1.0)


def test_mas_polar_forms_match_cartesian():
    beta = np.linspace(0.1, 5.0, 40)
    a, b, k1, k2, T = 1.0, 1.0, 1.0, 1.1, 0.3
    L = nw.mas_scc(a, b, k1, k2, T, beta)
    assert np.allclose(np.abs(L), nw.mas_r(a, b, k1, k2, T, beta), rtol=1e-12)
    theta = nw.mas_theta(a, b, k1, k2, T, beta)
    assert np.allclose(np.exp(1j * theta), L / np.abs(L), atol=1e-12)


def test_alpha_c_against_dense_grid():
    a, b, k1, k2, T, R, N = 1.0, 1.0, 1.0, 1.1, 0.0, 2.0, 100
    got = nw.alpha_c(a, b, k1, k2, T, R, N)
    beta = np.arange(-50.0, 50.0, 1e-4)
    oracle = math.sqrt(3.0 / N) * np.min(np.abs(nw.mas_scc(a, b, k1, k2, T, beta) + R))
    assert got == pytest.approx(float(oracle), abs=1e-9)


def test_alpha_c_scaling_and_edges():
    base = nw.alpha_c(1.0, 1.0, 1.0, 1.1, 0.05, 2.0, 100)
    assert nw.alpha_c(1.0, 1.0, 1.0, 1.1, 0.05, 2.0, 400) == pytest.approx(base / 2.0, rel=1e-12)
    # anchor exactly on the curve: the distance (and threshold) is zero
    assert nw.alpha_c(1.0, 1.0, 1.0, 1.1, 0.05, 1.0, 100) == 0.0
    with pytest.raises(nw.AnchorUnstableError):
        nw.alpha_c(1.0, 1.0, 1.0, 1.1, 0.05, 0.5, 100)


def test_negative_pd_delay_rejected():
    for fn in (lambda T: presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, T),
               lambda T: nw.mas_scc(1.0, 1.0, 1.0, 1.1, T, 0.5),
               lambda T: nw.alpha_c(1.0, 1.0, 1.0, 1.1, T, 2.0, 50)):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-0.5)
        fn(0.0)  # T = 0 stays the undelayed coupling


def test_network_json_roundtrip():
    specs = [
        nw.Ring(10, 1.0),
        nw.Chain(5, 2.0),
        nw.Laplacian(((0.0, 1.0), (2.0, 0.0))),
        nw.RandomNet(50, 2.0, 0.3, seed=7),
    ]
    for s in specs:
        assert nw.network_from_dict(nw.network_to_dict(s)) == s


def test_validation():
    with pytest.raises(ValueError):
        nw.Ring(1, 1.0)
    with pytest.raises(ValueError):
        nw.Chain(5, -1.0)
    with pytest.raises(ValueError):
        nw.RandomNet(10, 0.0, 0.1, seed=1)


_NAN = float("nan")


@pytest.mark.parametrize("d", [
    {"kind": "ring", "n": 5.7, "alpha": 1.0},  # a fractional count
    {"kind": "ring", "n": True, "alpha": 1.0},  # a bool count
    {"kind": "ring", "n": 5, "alpha": 1.0, "extra": 1},  # an unknown field
    {"kind": "ring", "n": 5},  # a missing field
    {"kind": "chain", "n": 5, "alpha": _NAN},
    {"kind": "chain", "n": 5, "alpha": "1"},
    {"kind": "chain", "n": 5, "alpha": 1e400},
    {"kind": "random", "n": 10, "R": _NAN, "alpha": 0.1, "seed": 1},
    {"kind": "random", "n": 10, "R": 2.0, "alpha": 0.1, "seed": 1.9},
    {"kind": "random", "n": 10, "R": 2.0, "alpha": 0.1, "seed": False},
    {"kind": "random", "n": 10, "R": 2.0, "alpha": float("inf"), "seed": 1},
    {"kind": "random", "n": 10, "R": 2.0, "alpha": 0.1, "seed": -1},
    {"kind": "laplacian", "weights": [[0.0, _NAN], [1.0, 0.0]]},
    {"kind": "laplacian", "weights": [[0.0, True], [1.0, 0.0]]},
    {"kind": "laplacian", "weights": [[0.0, 1.0], [1.0, 0.0]], "n": 2},
    {"kind": "torus", "n": 5, "alpha": 1.0},
    {"n": 5, "alpha": 1.0},
    "ring",
])
def test_network_from_dict_rejects(d):
    with pytest.raises(ValueError):
        nw.network_from_dict(d)


def test_network_from_dict_takes_whole_float_counts():
    assert nw.network_from_dict({"kind": "ring", "n": 5.0, "alpha": 1}) == nw.Ring(5, 1.0)
    assert nw.network_from_dict({"kind": "random", "n": 3.0, "R": 2, "alpha": 0, "seed": 4.0}) == nw.RandomNet(3, 2.0, 0.0, 4)


@pytest.mark.parametrize("make", [
    lambda: nw.Ring(5, _NAN),
    lambda: nw.Chain(5, _NAN),
    lambda: nw.RandomNet(5, _NAN, 0.1, seed=1),
    lambda: nw.RandomNet(5, 1.0, _NAN, seed=1),
    lambda: nw.Laplacian(((0.0, _NAN), (1.0, 0.0))),
])
def test_specs_reject_nan(make):
    with pytest.raises(ValueError):
        make()
