import numpy as np
import pytest
from scipy.optimize import brentq

from delaystab import presets
from delaystab.charfun import CharFun, build_charfun
from delaystab.kernels import Dirac
from delaystab.regions import nu_contour
from delaystab.scc import (
    IdenticallySingularError,
    SccBranch,
    crossing_at,
    self_intersection,
    trace,
)


@pytest.fixture(scope="module")
def growth_branch():
    F = presets.growth_with_feedback()
    brs = trace(F, -12.0, 12.0, 0.05, window=(-4, 4, -4, 4))
    assert len(brs) == 1
    return F, brs[0]


@pytest.fixture(scope="module")
def leaf_branch():
    # a=1, tau=0.5, d=0: same curve family, leaf between -2.54 and -1
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    brs = trace(F, -12.0, 12.0, 0.05, window=(-3.5, 0.5, -2, 2))
    assert len(brs) == 1
    return F, brs[0]


def synthetic_circle(beta_hi=4 * np.pi, n=600):
    beta = np.linspace(0.0, beta_hi, n)
    L = np.exp(1j * beta)
    nanv = np.full(n, np.nan)
    return SccBranch(
        beta=beta,
        L=L,
        tangent=1j * L,
        r=np.abs(L),
        theta=np.unwrap(np.angle(L)),
        theta_prime=np.ones(n),
        tangent_ok=np.ones(n, dtype=bool),
        polar_ok=np.ones(n, dtype=bool),
        root_index=0,
    )


def test_growth_feedback_closed_form(growth_branch):
    F, br = growth_branch
    closed = np.exp(1j * br.beta / 2) * (1j * br.beta - 1)
    assert np.max(np.abs(br.L - closed)) < 1e-9
    i0 = np.argmin(np.abs(br.beta))
    assert br.L[i0] == pytest.approx(-1.0, abs=1e-12)


def test_residual_invariant(growth_branch, leaf_branch):
    for F, br in (growth_branch, leaf_branch):
        res = np.abs([F.eval(1j * b, L) for b, L in zip(br.beta, br.L)])
        assert np.max(res) < 1e-9


def test_residual_bound_scales_with_large_gains():
    # the q = 3 system of test_charfun: |L| grows past 20 over beta in [-20, 20],
    # so Newton-converged nodes leave absolute residuals above 1e-9
    F = build_charfun(
        [[[0.2j, -1.0], 1.0, 0.0], [0.0, [0.5, 0.0, 0.3 - 0.1j], 1.0], [-0.4, 0.0, [-1.0, 0.0, 0.0, 0.2]]],
        [[0.0, 0.0, 0.0], [[0.0, 0.3j], 0.0, 0.0], [[0.1, 0.7], [0.0, 0.0, 0.5], [0.0, -0.6 + 0.2j]]],
        Dirac(0.4),
    )
    brs = trace(F, -20.0, 20.0, 0.05, window=(-3, 3, -3, 3))
    assert brs
    for br in brs:
        lam = 1j * br.beta
        res = np.abs(F.eval(lam, br.L))
        assert np.max(res / np.maximum(1.0, F.term_size(lam, br.L))) < 1e-13
    worst = max(np.max(np.abs(F.eval(1j * br.beta, br.L))) for br in brs)
    assert worst > 1e-9  # the absolute bound alone would reject this trace


def test_tangent_two_routes_agree(growth_branch):
    F, br = growth_branch
    # direct derivative of the parametric form vs implicit-function formula
    for b in (0.0, 0.7, -2.3):
        direct = np.exp(1j * b / 2) * (0.5j * (1j * b - 1) + 1j)
        implicit = br.tangent_at(b)
        assert abs(direct - implicit) < 1e-9
    assert br.tangent_at(0.0) == pytest.approx(0.5j, abs=1e-10)


def test_tangent_matches_finite_differences():
    # centered differences are second order only on evenly spaced triples,
    # so test at a step fine enough for the 1e-4 relative target
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    br = trace(F, -6.0, 6.0, 0.015, window=(-3.5, 0.5, -2, 2))[0]
    d = np.diff(br.beta)
    uniform = np.abs(d[1:] - d[:-1]) < 1e-12 * np.maximum(d[1:], d[:-1])
    mid = (br.L[2:] - br.L[:-2]) / (br.beta[2:] - br.beta[:-2])
    analytic = br.tangent[1:-1]
    ok = uniform & np.isfinite(analytic)
    rel = np.abs(mid[ok] - analytic[ok]) / np.maximum(np.abs(analytic[ok]), 1e-12)
    assert np.max(rel) < 1e-4


def test_drift_difference_branches_and_formula():
    F = presets.drift_difference_coupling()
    brs = trace(F, -13.0, 13.0, 0.05, window=(-1, 1, -1, 1))
    # the curve blows up at beta in 2*pi*Z; branches must not straddle those
    for br in brs:
        for k in (-2, -1, 0, 1, 2):
            pole = 2 * np.pi * k
            assert not (br.beta[0] < pole - 1e-6 and br.beta[-1] > pole + 1e-6)
    br = next(b for b in brs if b.beta[0] >= 0 and b.beta[-1] <= 2 * np.pi + 1e-6)
    mask = (br.beta > 0.3) & (br.beta < 2 * np.pi - 0.3)
    closed = (1j * br.beta[mask] - 0.1 * (1 + 1j)) / (np.exp(-1j * br.beta[mask]) - 1)
    assert np.max(np.abs(br.L[mask] - closed)) < 1e-9


def test_scalar_discrete_closed_form():
    a, d, tau = 1.0, 2.5, 0.5
    F = presets.scalar_discrete(a, d, tau)
    brs = trace(F, d - 9, d + 9, 0.05, window=(-3.5, 3.5, -3.5, 3.5))
    assert len(brs) == 1
    br = brs[0]
    closed = -np.exp(1j * br.beta * tau) * (a - 1j * (br.beta - d))
    assert np.max(np.abs(br.L - closed)) < 1e-9


def test_theta_unwrapped(leaf_branch):
    _, br = leaf_branch
    assert np.max(np.abs(np.diff(br.theta))) < np.pi


def test_polar_profile_scalar_discrete(leaf_branch):
    F, br = leaf_branch
    r, tp = br.r, br.theta_prime
    a, tau, d = 1.0, 0.5, 0.0
    expect_tp = tau - a / (a**2 + (br.beta - d) ** 2)
    ok = np.isfinite(tp)
    assert np.max(np.abs(tp[ok] - expect_tp[ok])) < 1e-9
    i0 = np.argmin(np.abs(br.beta - d))
    assert tp[i0] == pytest.approx(tau - 1 / a, abs=1e-12)
    assert np.nanmin(tp) == pytest.approx(tau - 1 / a, abs=1e-9)
    expect_r = np.sqrt(a**2 + (br.beta - d) ** 2)
    assert np.max(np.abs(r - expect_r)) < 1e-9


def test_polar_profile_gamma_at_zero():
    a, n, T = 1.0, 1, 0.5
    F = presets.scalar_gamma(a, n, T)
    brs = trace(F, -8.0, 8.0, 0.05, window=(-6, 2, -4, 4))
    br = brs[0]
    tp = br.theta_prime
    i0 = np.argmin(np.abs(br.beta))
    assert tp[i0] == pytest.approx(T - 1 / a, abs=1e-10)


def test_conjugate_symmetry_real_coefficients(leaf_branch):
    F, br = leaf_branch
    for b in (0.4, 1.7, 2.9):
        assert abs(br.eval(-b) - np.conj(br.eval(b))) < 1e-10
    # complex-coefficient system must NOT be conjugate symmetric
    Fc = presets.scalar_discrete(1.0, 2.5, 0.5)
    brc = trace(Fc, -6, 6, 0.05, window=(-3.5, 3.5, -3.5, 3.5))[0]
    assert abs(brc.eval(-1.0) - np.conj(brc.eval(1.0))) > 1e-3


def test_crossing_report_growth(growth_branch):
    F, br = growth_branch
    rep = crossing_at(F, br, 0.0)
    assert rep.flag is None
    assert rep.L_star == pytest.approx(-1.0, abs=1e-10)
    assert rep.normal == pytest.approx(1j * 0.5j, abs=1e-10)  # i * L'(0)
    assert rep.jump_normal == -1
    assert rep.theta_prime == pytest.approx(-0.5, abs=1e-10)
    assert rep.jump_ray == -1


def test_crossing_degenerate_flags(leaf_branch):
    # a*tau = 1 at beta = d: the lam-derivative of F vanishes (double root),
    # so no regular crossing exists there
    F = presets.scalar_discrete(1.0, 0.0, 1.0)
    brs = trace(F, -6, 6, 0.05, window=(-3, 1, -2, 2))
    rep = crossing_at(F, brs[0], 0.0)
    assert rep.flag == "regular-crossing hypothesis fails"
    assert rep.jump_normal is None
    # on the tau = 0.5 leaf, theta' vanishes at beta = 1 while the crossing
    # itself stays regular: the ray rule must refuse to pick a sign
    Fl, br = leaf_branch
    rep = crossing_at(Fl, br, 1.0)
    assert rep.flag == "ray degenerate"
    assert rep.jump_ray == 0
    assert rep.jump_normal == -1


def test_empirical_normal_and_ray_rules(leaf_branch):
    F, br = leaf_branch
    rng = np.random.default_rng(8)
    betas = rng.uniform(-2.0, 2.0, 20)
    for b in betas:
        rep = crossing_at(F, br, float(b))
        if rep.flag is not None:
            continue
        n_hat = rep.normal / abs(rep.normal)
        eps = 1e-3 * max(1.0, abs(rep.L_star))
        hi = nu_contour(F, rep.L_star + eps * n_hat)
        lo = nu_contour(F, rep.L_star - eps * n_hat)
        assert hi - lo == -1
        # radial rule
        u = rep.L_star / abs(rep.L_star)
        out_v = nu_contour(F, rep.L_star + eps * u)
        in_v = nu_contour(F, rep.L_star - eps * u)
        assert out_v - in_v == rep.jump_ray


def test_self_intersection_leaf(leaf_branch):
    F, br = leaf_branch
    hits = self_intersection(br)
    beta_star = brentq(lambda x: 0.5 * x - np.arctan(x), 1.0, 5.0, xtol=1e-14)
    L_star = -np.sqrt(1.0 + beta_star**2)
    best = min(hits, key=lambda h: abs(h[2] - L_star))
    assert best[0] == pytest.approx(-beta_star, abs=1e-7)
    assert best[1] == pytest.approx(beta_star, abs=1e-7)
    assert best[2] == pytest.approx(L_star, abs=1e-6)


def test_self_intersection_gamma_n2():
    a, n, T = 1.0, 2, 0.5
    F = presets.scalar_gamma(a, n, T)
    brs = trace(F, -10.0, 10.0, 0.02, window=(-7, 3, -5, 5))
    hits = self_intersection(brs[0])
    beta_star = brentq(lambda x: n * np.arctan(x * T / n) - np.arctan(x / a), 0.5, 8.0, xtol=1e-14)
    best = min(hits, key=lambda h: abs(h[1] - beta_star))
    assert best[1] == pytest.approx(beta_star, abs=1e-6)
    assert best[0] == pytest.approx(-beta_star, abs=1e-6)


def test_self_intersection_circle():
    br = synthetic_circle()
    hits = self_intersection(br, tol=1e-6)
    assert hits, "periodic curve must self-intersect"
    for b1, b2, L in hits:
        assert b2 - b1 == pytest.approx(2 * np.pi, abs=1e-3)
        assert abs(abs(L) - 1.0) < 1e-3


def test_identically_singular_frequency():
    # F = lam - 2i has no L dependence; at beta = 2 it vanishes identically
    F = CharFun(1, Dirac(0.0), {(0, 0): [2j]})
    with pytest.raises(IdenticallySingularError):
        trace(F, 2.0, 2.5, 0.1)


def test_no_roots_node_skipped():
    # same system away from the singular frequency: constant != 0, no curve
    F = CharFun(1, Dirac(0.0), {(0, 0): [2j]})
    assert trace(F, 3.0, 4.0, 0.1) == []


def test_trace_validation():
    F = presets.growth_with_feedback()
    with pytest.raises(ValueError):
        trace(F, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        trace(F, 1.0, 1.0, 0.1)


def test_branch_eval_outside_range(growth_branch):
    _, br = growth_branch
    with pytest.raises(ValueError):
        br.eval(99.0)
