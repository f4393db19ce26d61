import warnings
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, fsolve

from delaystab import presets, scc
from delaystab.charfun import CharFun, build_charfun, radius_bound
from delaystab.kernels import Dirac, Uniform, laplace
from delaystab.regions import nu_contour, trace_covering
from delaystab.scc import (
    IdenticallySingularError,
    SccBranch,
    crossing_at,
    curve_zeros,
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
        theta=np.unwrap(np.angle(L)),
        theta_prime=np.ones(n),
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
    r, tp = np.abs(br.L), br.theta_prime
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
    _, br = growth_branch
    rep = crossing_at(br, 0.0)
    assert rep.flag is None
    assert rep.L_star == pytest.approx(-1.0, abs=1e-10)
    assert rep.normal == pytest.approx(1j * 0.5j, abs=1e-10)  # i * L'(0)
    assert rep.theta_prime == pytest.approx(-0.5, abs=1e-10)
    assert rep.jump_ray == -1


def test_crossing_degenerate_flags(leaf_branch):
    # a*tau = 1 at beta = d: the lam-derivative of F vanishes (double root),
    # so no regular crossing exists there
    F = presets.scalar_discrete(1.0, 0.0, 1.0)
    brs = trace(F, -6, 6, 0.05, window=(-3, 1, -2, 2))
    rep = crossing_at(brs[0], 0.0)
    assert rep.flag == "regular-crossing hypothesis fails"
    assert np.isnan(rep.normal)
    # on the tau = 0.5 leaf, theta' vanishes at beta = 1 while the crossing
    # itself stays regular: the ray rule must refuse to pick a sign
    _, br = leaf_branch
    rep = crossing_at(br, 1.0)
    assert rep.flag == "ray degenerate"
    assert rep.jump_ray == 0
    assert rep.normal == 1j * br.tangent_at(1.0)


def test_empirical_normal_and_ray_rules(leaf_branch):
    F, br = leaf_branch
    rng = np.random.default_rng(8)
    betas = rng.uniform(-2.0, 2.0, 20)
    for b in betas:
        rep = crossing_at(br, float(b))
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


def test_self_intersection_finds_every_hit():
    # z' = z + L z(t - 1.5): L(beta) = (i beta - 1) e^{1.5 i beta} is real where
    # tan(1.5 beta) = beta, and L(-beta) = conj(L(beta)), so each positive root
    # beta_k is one hit (-beta_k, beta_k); five of them lie below 12
    F = presets.scalar_discrete(1.0, 0.0, 1.5)
    brs = trace(F, -12.0, 12.0, 0.05, window=(-13, 13, -13, 13))
    roots = [brentq(lambda x, k=k: 1.5 * x - np.arctan(x) - k * np.pi, 0.1, 12.0, xtol=1e-14) for k in range(1, 6)]
    assert roots[-1] < 12.0 < brentq(lambda x: 1.5 * x - np.arctan(x) - 6 * np.pi, 0.1, 20.0)
    hits = self_intersection(brs)
    assert len(hits) == 5
    for (b1, b2, L), bk in zip(hits, roots[::-1]):
        Lk = (1j * bk - 1) * np.exp(1.5j * bk)
        assert b1 == pytest.approx(-bk, abs=1e-9) and b2 == pytest.approx(bk, abs=1e-9)
        assert abs(Lk.imag) < 1e-12 and abs(L - Lk) < 1e-9


def test_self_intersection_reuses_the_converged_gains(monkeypatch):
    # the last Newton step of each hit evaluates both curve points at the final
    # betas: the 5 hits of the tau = 1.5 curve take 30 evaluations (40 when both
    # points were evaluated again), and each hit's gain is the mean of those two
    F = presets.scalar_discrete(1.0, 0.0, 1.5)
    brs = trace(F, -12.0, 12.0, 0.05, window=(-13, 13, -13, 13))
    evaluate, calls = SccBranch.eval, []
    monkeypatch.setattr(SccBranch, "eval", lambda br, beta: calls.append(beta) or evaluate(br, beta))
    hits = self_intersection(brs)
    monkeypatch.undo()
    assert len(hits) == 5 and len(calls) == 30
    for b1, b2, L in hits:
        (bA,), (bB,) = ([br for br in brs if br.beta[0] <= b <= br.beta[-1]] for b in (b1, b2))
        assert L == 0.5 * (bA.eval(b1) + bB.eval(b2))


def test_curve_zeros_on_the_real_axis(growth_branch):
    # L(beta) = (i beta - 1) e^{i beta / 2} is real at beta = 0 (a node, where
    # Im L is exactly zero) and where tan(beta / 2) = beta: 2.33 and 9.21 below 12
    F, br = growth_branch
    roots = [brentq(lambda x: np.tan(x / 2) - x, lo, hi, xtol=1e-15) for lo, hi in ((1.0, 3.0), (7.0, 3 * np.pi - 1e-9))]
    expect = [-roots[1], -roots[0], 0.0, roots[0], roots[1]]
    zeros = curve_zeros(br, lambda L, Lp: L.imag)
    assert [z[0] for z in zeros] == [br] * 5
    for (_, beta, L), bk in zip(zeros, expect):
        assert beta == pytest.approx(bk, abs=1e-13)
        assert abs(L - (1j * bk - 1) * np.exp(0.5j * bk)) < 1e-12 and abs(L.imag) < 1e-13
    assert zeros[2][1:] == (0.0, -1.0 + 0j)


def test_self_intersection_across_branches():
    # drift-difference: L(beta) = (i beta - c)/(e^{-i beta} - 1) with
    # c = 0.1 (1 + i); branches 0 and 1 meet near beta = -7.626 and -0.026
    F = presets.drift_difference_coupling()
    brs = trace(F, -13.0, 13.0, 0.05, window=(-1, 1, -1, 1))
    c = 0.1 * (1 + 1j)

    def gap(b):
        g = (1j * b[0] - c) / (np.exp(-1j * b[0]) - 1) - (1j * b[1] - c) / (np.exp(-1j * b[1]) - 1)
        return [g.real, g.imag]

    b1, b2 = fsolve(gap, [-7.6, -0.03], xtol=1e-14)
    hit = min(self_intersection(brs), key=lambda h: abs(h[0] - b1))
    assert brs[0].beta[0] <= hit[0] <= brs[0].beta[-1] and brs[1].beta[0] <= hit[1] <= brs[1].beta[-1]
    assert hit[0] == pytest.approx(b1, abs=1e-9) and hit[1] == pytest.approx(b2, abs=1e-9)
    assert abs(hit[2] - (1j * b1 - c) / (np.exp(-1j * b1) - 1)) < 1e-9


def test_branch_without_charfun_cannot_evaluate():
    br = synthetic_circle()
    for f in (br.eval, br.tangent_at):
        with pytest.raises(ValueError):
            f(1.0)


def test_self_intersection_circle():
    br = synthetic_circle()
    hits = self_intersection(br)
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


# --- reference: the depth-first tracer with a scalar solve per frequency ---


def _reference_lpoly(F, lam):
    lam = complex(lam)
    hh = laplace(F.kernel, lam)
    out = np.zeros(F.C.shape[2], dtype=complex)
    out[0] = lam**F.q
    for k, j in F.support:
        out -= F.C[k, j] * lam**k * hh**j
    return out


def _reference_poly_roots(c):
    scale = np.max(np.abs(c))
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
        q = -0.5 * (a1 + disc) if abs(a1 + disc) >= abs(a1 - disc) else -0.5 * (a1 - disc)
        return np.zeros(2, dtype=complex) if q == 0.0 else np.array([q / a2, a0 / q])
    comp = np.zeros((deg, deg), dtype=complex)
    comp[np.arange(1, deg), np.arange(deg - 1)] = 1.0
    comp[:, deg - 1] = -(c / c[deg])[:deg]
    return np.linalg.eigvals(comp)


def _reference_newton_polish(coeffs, L):
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))

    def horner(c, x):
        acc = 0.0 + 0.0j
        for ci in c[::-1]:
            acc = acc * x + ci
        return acc

    for _ in range(12):
        g = horner(coeffs, L)
        if abs(g) <= 1e-13 * max(1.0, abs(L)):
            break
        gp = horner(dcoeffs, L)
        if gp == 0.0:
            break
        L = L - g / gp
    return L


def _reference_solve_nodes(F, beta):
    coeffs = _reference_lpoly(F, 1j * beta)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0 or not np.isfinite(scale):
        raise IdenticallySingularError(f"identically singular at beta={beta}")
    return np.array([_reference_newton_polish(coeffs, r) for r in _reference_poly_roots(coeffs)], dtype=complex)


def _greedy_match(prev: np.ndarray, new: np.ndarray) -> List[Tuple[int, int, float]]:
    """Minimal-distance greedy assignment between two small point sets."""
    pairs = sorted(
        ((abs(p - q), i, j) for i, p in enumerate(prev) for j, q in enumerate(new)),
        key=lambda t: t[0],
    )
    used_i, used_j, out = set(), set(), []
    for d, i, j in pairs:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        out.append((i, j, d))
    return out


def _reference_needs_split(b0, r0, b1, r1, min_step, far_cutoff, refine_tol):
    if b1 - b0 <= min_step:
        return False
    if len(r0) != len(r1):
        return True
    if len(r0) == 0:
        return False
    if min(np.min(np.abs(r0)), np.min(np.abs(r1))) > far_cutoff:
        return False
    for i, j, d in _greedy_match(r0, r1):
        if d > refine_tol:
            return True
        a, b = r0[i], r1[j]
        if abs(a) > scc._POLAR_RADIUS_FLOOR and abs(b) > scc._POLAR_RADIUS_FLOOR:
            if abs(np.angle(b / a)) > np.pi / 2:
                return True
    return False


def _reference_stitch(solved, refine_tol, far_cutoff):
    open_branches, done, next_slot = [], [], 0
    for b, roots in solved:
        if len(roots) == 0:
            done.extend(open_branches)
            open_branches = []
            continue
        if not open_branches:
            for r in roots:
                open_branches.append({"beta": [b], "L": [r], "slot": next_slot})
                next_slot += 1
            continue
        heads = np.array([br["L"][-1] for br in open_branches])
        matched_i, matched_j, survivors = set(), set(), []
        for i, j, d in _greedy_match(heads, roots):
            br = open_branches[i]
            motion = abs(br["L"][-1] - br["L"][-2]) if len(br["L"]) >= 2 else refine_tol
            if d > 10.0 * max(motion, refine_tol * 0.1):
                continue
            lo_mag = min(abs(heads[i]), abs(roots[j]))
            if lo_mag > far_cutoff and d > 0.5 * lo_mag:
                continue
            br["beta"].append(b)
            br["L"].append(roots[j])
            matched_i.add(i)
            matched_j.add(j)
            survivors.append(br)
        done.extend(br for i, br in enumerate(open_branches) if i not in matched_i)
        open_branches = survivors
        for j, r in enumerate(roots):
            if j not in matched_j:
                open_branches.append({"beta": [b], "L": [r], "slot": next_slot})
                next_slot += 1
    done.extend(open_branches)
    return done


def _reference_trace(F, beta_lo, beta_hi, step, *, window=None, refine_frac=0.02):
    n_base = max(int(np.ceil((beta_hi - beta_lo) / step)) + 1, 2)
    base = np.linspace(beta_lo, beta_hi, n_base)
    if window is not None:
        re_lo, re_hi, im_lo, im_hi = window
        diag = float(np.hypot(re_hi - re_lo, im_hi - im_lo))
        far_cutoff = abs(complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)) + 2.0 * diag
    else:
        sample = [r for b in base[:: max(1, n_base // 32)] for r in _reference_solve_nodes(F, b)]
        finite = np.array([x for x in sample if np.isfinite(x)], dtype=complex)
        if finite.size:
            diag = max(float(abs(np.ptp(finite.real) + 1j * np.ptp(finite.imag))), 1.0)
            far_cutoff = float(np.max(np.abs(finite))) + 2.0 * diag
        else:
            diag, far_cutoff = 1.0, 10.0
    refine_tol = refine_frac * diag
    min_step = step / 2.0**scc._MAX_DEPTH

    solved = [(base[0], _reference_solve_nodes(F, base[0]))]
    stack = [(base[i], base[i + 1]) for i in range(n_base - 2, -1, -1)]
    cache = {base[0]: solved[0][1]}
    while stack:
        b0, b1 = stack.pop()
        r0 = cache[b0] if b0 in cache else _reference_solve_nodes(F, b0)
        cache[b0] = r0
        r1 = cache[b1] if b1 in cache else _reference_solve_nodes(F, b1)
        cache[b1] = r1
        if _reference_needs_split(b0, r0, b1, r1, min_step, far_cutoff, refine_tol):
            mid = 0.5 * (b0 + b1)
            stack.append((mid, b1))
            stack.append((b0, mid))
        else:
            solved.append((b1, r1))
        if len(solved) > scc._MAX_NODES:
            raise RuntimeError(f"trace exceeded {scc._MAX_NODES} nodes")
    solved.sort(key=lambda t: t[0])

    done = _reference_stitch(solved, refine_tol, far_cutoff)
    branches = [scc._finalize_branch(F, br) for br in done if len(br["beta"]) >= 2]
    branches.sort(key=lambda br: (br.beta[0], br.root_index))
    return branches


def _region_maps_system(kind, **p):
    if kind == "discrete":
        return presets.scalar_discrete(p["a"], p["d"], p["tau"])
    if kind == "drift-difference":
        return presets.drift_difference_coupling()
    return presets.scalar_gamma(p["a"], p["n"], p["T"])


def _covering_range(F, window):
    """The beta half-range regions.trace_covering traces for a window: radius_bound on its circumscribed disk."""
    re_lo, re_hi, im_lo, im_hi = window
    return radius_bound(F, complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi)),
                        0.5 * float(np.hypot(re_hi - re_lo, im_hi - im_lo)))


# (name, system, window, step, refine_frac)
_PARITY_CASES = [
    ("growth-feedback", ("discrete", dict(a=1.0, d=0.0, tau=0.5)), (-4.0, 4.0, -4.0, 4.0), 0.05, 0.02),
    ("drift-difference", ("drift-difference", {}), (-1.0, 1.0, -1.0, 1.0), 0.05, 0.02),
    ("point-delay-atau<1", ("discrete", dict(a=1.0, d=0.0, tau=0.5)), (-3.5, 0.5, -2.0, 2.0), 0.05, 0.02),
    ("point-delay-atau>1", ("discrete", dict(a=1.0, d=0.0, tau=1.5)), (-3.0, 3.0, -3.0, 3.0), 0.05, 0.02),
    ("gamma-n1-aT<1", ("gamma", dict(a=1.0, n=1, T=0.5)), (-6.0, 2.0, -4.0, 4.0), 0.05, 0.02),
    ("gamma-n1-aT>1", ("gamma", dict(a=1.0, n=1, T=1.5)), (-4.0, 4.0, -4.0, 4.0), 0.05, 0.02),
    ("gamma-n2-aT<1", ("gamma", dict(a=1.0, n=2, T=0.5)), (-7.0, 3.0, -5.0, 5.0), 0.05, 0.02),
    ("gamma-n2-aT>1", ("gamma", dict(a=1.0, n=2, T=1.5)), (-4.0, 4.0, -4.0, 4.0), 0.05, 0.02),
    ("rotated-point-delay", ("discrete", dict(a=1.0, d=2.5, tau=0.5)), (-3.5, 3.5, -3.5, 3.5), 0.05, 0.02),
    ("pd-agent-T0.05", ("pd", dict(T=0.05)), (-6.0, 1.0, -3.0, 3.0), 0.01, 0.002),
    ("pd-agent-T0.3", ("pd", dict(T=0.3)), (-6.0, 1.0, -3.0, 3.0), 0.01, 0.002),
    ("pd-agent-T0.6", ("pd", dict(T=0.6)), (-6.0, 1.0, -3.0, 3.0), 0.01, 0.002),
    # L-degree 2: the closed-form quadratic
    ("dirac-2x2", ("matrix", dict(Q=[[[0.0, 1.0], 1.0], [-0.5, [0.2, 0.0]]],
                                  B=[[0.0, 0.0], [[0.3, 0.5], [0.0, 1.0]]], kernel=Dirac(0.7))),
     (-3.0, 3.0, -3.0, 3.0), 0.05, 0.02),
    # L-degree 3: stacked companion matrices
    ("uniform-3x3", ("matrix", dict(Q=[[[-0.5, 1.0], 1.0, 0.0], [0.0, [-1.0, 0.5], 1.0], [-0.2, 0.0, [-1.5, 0.25]]],
                                    B=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.4, 0.0, 0.0]], kernel=Uniform(0.2, 0.8))),
     (-3.0, 3.0, -3.0, 3.0), 0.05, 0.02),
]


def _parity_charfun(kind, p):
    if kind == "pd":
        return presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, p["T"])
    if kind == "matrix":
        return build_charfun(p["Q"], p["B"], p["kernel"])
    return _region_maps_system(kind, **p)


def _assert_same_trace(got, want):
    # the batch keeps each node's scalar arithmetic, so the gains match bit for bit
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.beta, w.beta)
        assert g.root_index == w.root_index
        assert g.L.tobytes() == w.L.tobytes()


@pytest.mark.parametrize("case", _PARITY_CASES, ids=[c[0] for c in _PARITY_CASES])
def test_trace_matches_depth_first_reference(case):
    _, (kind, p), window, step, refine_frac = case
    F = _parity_charfun(kind, p)
    b = _covering_range(F, window)
    got = trace(F, -b, b, step, window=window, refine_frac=refine_frac)
    _assert_same_trace(got, _reference_trace(F, -b, b, step, window=window, refine_frac=refine_frac))


@pytest.mark.parametrize("case", _PARITY_CASES[:12], ids=[c[0] for c in _PARITY_CASES[:12]])
def test_trace_covering_is_one_certified_trace_without_warning(case):
    # the twelve benchmark maps: one trace over [-R, R], R from radius_bound, and nothing to warn about
    _, (kind, p), window, step, refine_frac = case
    F = _parity_charfun(kind, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trace_covering(F, window, step=step, refine_frac=refine_frac)
    b = _covering_range(F, window)
    _assert_same_trace(got, trace(F, -b, b, step, window=window, refine_frac=refine_frac))


def test_trace_without_window_matches_reference():
    F = presets.scalar_discrete(1.0, 0.0, 1.5)
    _assert_same_trace(trace(F, -8.0, 8.0, 0.05), _reference_trace(F, -8.0, 8.0, 0.05))


def test_node_cap_matches_reference(monkeypatch):
    F = presets.scalar_discrete(1.0, 0.0, 1.5)
    window = (-3.0, 3.0, -3.0, 3.0)
    n_nodes = sum(len(br) for br in trace(F, -8.0, 8.0, 0.05, window=window))
    monkeypatch.setattr(scc, "_MAX_NODES", n_nodes)
    assert len(trace(F, -8.0, 8.0, 0.05, window=window)) == len(_reference_trace(F, -8.0, 8.0, 0.05, window=window))
    monkeypatch.setattr(scc, "_MAX_NODES", n_nodes - 1)
    for tracer in (trace, _reference_trace):
        with pytest.raises(RuntimeError):
            tracer(F, -8.0, 8.0, 0.05, window=window)


@pytest.mark.parametrize("step", [1e-7, 1e-300, 1e-320])
def test_node_cap_checked_before_the_base_grid(monkeypatch, step):
    # 1e-7 would allocate gigabytes first; 1e-300 overflows numpy's array size and 1e-320 the node count itself
    def no_solve(*args):
        raise AssertionError("the base grid was solved")

    monkeypatch.setattr(scc, "_solve_nodes", no_solve)
    with pytest.raises(RuntimeError, match="trace exceeded"):
        trace(presets.growth_with_feedback(), -2.0, 2.0, step)


# half-unit lattice points: exact ties between distances and duplicate points
_lattice = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
_point = st.builds(complex, _lattice, _lattice)


def _padded(rows, n=4):
    out = np.full((len(rows), n), np.nan, dtype=complex)
    for r, pts in enumerate(rows):
        out[r, : len(pts)] = pts
    return out, np.array([len(pts) for pts in rows])


_equal_sets = st.integers(1, 4).flatmap(lambda k: st.tuples(st.lists(_point, min_size=k, max_size=k),
                                                            st.lists(_point, min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_equal_sets, st.tuples(st.lists(_point, max_size=4), st.lists(_point, max_size=4))),
                min_size=1, max_size=5))
def test_vectorized_greedy_match_equals_scalar(sets):
    p, kp = _padded([a for a, _ in sets])
    q, kq = _padded([b for _, b in sets])
    I, J, D = scc._greedy_match_rows(p, q, kp, kq)
    for r, (a, b) in enumerate(sets):
        want = _greedy_match(np.array(a, dtype=complex), np.array(b, dtype=complex))
        k = min(kp[r], kq[r])
        assert [(i, j) for i, j, _ in want] == list(zip(I[r, :k].tolist(), J[r, :k].tolist()))
        assert [d for _, _, d in want] == D[r, :k].tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4).flatmap(lambda k: st.tuples(
           st.lists(_point, min_size=k, max_size=k),
           st.one_of(st.lists(_point, min_size=k, max_size=k), st.lists(_point, max_size=4)),  # mostly equal counts
           st.sampled_from([0.5, 1.0, 2.0]))), min_size=1, max_size=5),
       st.sampled_from([0.5, 1.0, 1.6, 3.0]), st.sampled_from([0.4, 0.5, 1.2, 3.0]))  # 3 exceeds every distance
def test_vectorized_split_equals_scalar(intervals, far_cutoff, refine_tol):
    min_step = 1e-3
    r0, k0 = _padded([a for a, _, _ in intervals])
    r1, k1 = _padded([b for _, b, _ in intervals])
    width = np.array([w * min_step for _, _, w in intervals])
    got = scc._needs_split(width, r0, k0, r1, k1, min_step=min_step, far_cutoff=far_cutoff, refine_tol=refine_tol)
    want = [_reference_needs_split(0.0, np.array(a, dtype=complex), w * min_step, np.array(b, dtype=complex),
                                   min_step, far_cutoff, refine_tol) for a, b, w in intervals]
    assert got.tolist() == want


def _random_node_table(rng):
    """Random walks of up to three roots over 2-40 nodes, with every rejection of the stitch in play.

    Counts run from 0 (an empty node) to 3, steps range from far below
    ``refine_tol`` to far above ten times it, and some whole nodes sit 50
    times farther out, beyond ``far_cutoff``.
    """
    m = int(rng.integers(2, 40))
    K = np.where(rng.random(m) < 0.3, rng.integers(0, 4, size=m), rng.integers(1, 4))
    step = rng.choice([0.01, 0.1, 0.5, 3.0], size=(m, 3)) * (rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3)))
    walk = rng.normal(size=3) + 1j * rng.normal(size=3) + np.cumsum(step, axis=0)
    walk[rng.random(m) < 0.2] *= 50.0
    R = np.where(np.arange(3) < K[:, None], walk, np.nan)
    return np.cumsum(rng.random(m)), R, K, float(rng.choice([3.0, 5.0, 20.0])), float(rng.choice([0.05, 0.1, 0.3]))


def _long_reference_branches(B, R, K, far_cutoff, refine_tol):
    done = _reference_stitch([(B[i], R[i, : K[i]]) for i in range(len(B))], refine_tol, far_cutoff)
    return sorted((br for br in done if len(br["beta"]) >= 2), key=lambda br: br["slot"])


def test_stitch_matches_reference_loop():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        B, R, K, far_cutoff, refine_tol = _random_node_table(rng)
        got = scc._stitch(B, R, K, far_cutoff=far_cutoff, refine_tol=refine_tol)
        want = _long_reference_branches(B, R, K, far_cutoff, refine_tol)
        assert [br["slot"] for br in got] == [br["slot"] for br in want]
        for g, w in zip(got, want):
            assert np.array_equal(g["beta"], w["beta"])
            assert g["L"].tobytes() == np.array(w["L"], dtype=complex).tobytes()


def test_stitch_breaks_exact_ties_by_root_order():
    # Node 2 holds a double root.  Only the second branch enters it, so its
    # root 0 starts branch 2.  The lone root at node 3 is equally near both,
    # and the tie goes to root 0, the lower root index of node 2.
    B = np.arange(4.0)
    R = np.array([[0.0, 3.0], [0.01, 2.1], [0.51, 0.51], [0.56, np.nan]], dtype=complex)
    K = np.array([2, 2, 2, 1])
    got = scc._stitch(B, R, K, far_cutoff=100.0, refine_tol=0.1)
    assert [(br["slot"], br["beta"].tolist()) for br in got] == [(0, [0.0, 1.0]), (1, [0.0, 1.0, 2.0]), (2, [2.0, 3.0])]
    # the per-node loop took heads in branch order, and branch 1 came first there
    want = _long_reference_branches(B, R, K, 100.0, 0.1)
    assert [(br["slot"], br["beta"]) for br in want] == [(0, [0.0, 1.0]), (1, [0.0, 1.0, 2.0, 3.0])]
