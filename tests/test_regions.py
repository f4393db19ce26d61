import tracemalloc
import warnings

import numpy as np
import pytest

from delaystab import presets
from delaystab.charfun import CharFun
from delaystab.kernels import Dirac
from delaystab.regions import (
    OnSccError,
    membership,
    nu_contour,
    nu_map,
    stability_region,
    trace_covering,
)
from delaystab.scc import trace


@pytest.fixture(scope="module")
def growth_map():
    F = presets.growth_with_feedback()
    window = (-4.0, 4.0, -4.0, 4.0)
    branches = trace_covering(F, window)
    return F, window, branches


def test_nu_contour_examples():
    assert nu_contour(presets.growth_with_feedback(), 0.0) == 1
    assert nu_contour(presets.drift_difference_coupling(), 0.0) == 1
    # zdot = -z: no delay influence, single stable root
    F = CharFun(1, Dirac(0.0), {(0, 0): [-1.0]})
    for L in (0.0, 5.0, -3.0 + 2.0j):
        assert nu_contour(F, L) == 0


def test_nu_contour_counts_multiple_roots():
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    assert nu_contour(F, 0.0) == 1
    assert nu_contour(F, -3.0) == 2
    assert nu_contour(F, -1.5) == 0


def test_on_scc_guard():
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    with pytest.raises(OnSccError):
        nu_contour(F, -1.0)  # curve crosses the real axis at -a


def test_membership_examples():
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    assert membership(F, -1.5).verdict == "stable"
    m = membership(F, -3.0)
    assert (m.verdict, m.nu) == ("unstable", 2)
    m = membership(F, 0.0)
    assert (m.verdict, m.nu) == ("unstable", 1)
    assert membership(F, -1.0).verdict == "on_curve"


def test_membership_robust_to_tiny_perturbations():
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    rng = np.random.default_rng(4)
    for L in (-1.5, -3.0, 0.5 + 0.5j, -2.0 + 0.9j):
        base = membership(F, L).verdict
        scale = 1e-6 * 8.0  # 1e-6 of the window scale
        for _ in range(5):
            d = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert membership(F, L + d).verdict == base


def test_numap_origin_component(growth_map):
    F, window, branches = growth_map
    m = nu_map(F, window, (41, 41), branches)
    xs, ys = m.cell_centers()
    ix, iy = np.argmin(np.abs(xs)), np.argmin(np.abs(ys))
    assert m.labels[iy, ix] == 1
    assert np.all(m.labels >= -1)
    # anchor certificate reproducible
    L0, nu0, method = m.anchor
    assert method == "contour"
    assert nu_contour(F, L0) == nu0


def test_numap_propagation_matches_oracle(growth_map):
    F, window, branches = growth_map
    m = nu_map(F, window, (21, 21), branches)
    mo = nu_map(F, window, (21, 21), branches, full_oracle=True)
    assert np.array_equal(m.labels, mo.labels)


def test_numap_drift_difference_labels():
    F = presets.drift_difference_coupling()
    window = (-1.0, 1.0, -1.0, 1.0)
    branches = trace(F, -13.0, 13.0, 0.03, window=window)
    m = nu_map(F, window, (41, 41), branches)
    present = set(m.labels[m.labels >= 0].ravel().tolist())
    assert {0, 1, 2} <= present
    # the three-unstable-root region sits farther out (nearest point ~ 4.8i)
    wide = (-6.0, 6.0, -6.0, 6.0)
    branches_w = trace(F, -26.0, 26.0, 0.05, window=wide)
    mw = nu_map(F, wide, (33, 33), branches_w)
    assert 3 in set(mw.labels.ravel().tolist())


def test_numap_no_stable_region_when_product_exceeds_one():
    # a*tau > 1: no stability region anywhere
    F = presets.scalar_discrete(1.0, 0.0, 1.5)
    window = (-3.0, 3.0, -3.0, 3.0)
    branches = trace_covering(F, window)
    m = nu_map(F, window, (41, 41), branches)
    assert not np.any(m.labels == 0)
    assert stability_region(m) == []


def test_conjugate_symmetric_labels(growth_map):
    F, window, branches = growth_map
    m = nu_map(F, window, (32, 32), branches)
    flipped = m.labels[::-1, :]
    assert np.array_equal(m.labels, flipped)


def test_stability_region_leaf(growth_map):
    F, window, branches = growth_map
    m = nu_map(F, window, (41, 41), branches)
    regs = stability_region(m)
    assert len(regs) == 1
    leaf = regs[0]
    assert not leaf.clipped
    assert leaf.boundary, "leaf must carry bordering curve segments"
    xs, ys = m.cell_centers()
    pts = xs[leaf.cells[:, 1]] + 1j * ys[leaf.cells[:, 0]]
    assert np.all(pts.real < -0.8)
    assert np.all(np.abs(pts.imag) < 1.2)


def test_stability_region_unbounded_is_clipped():
    F = presets.scalar_gamma(1.0, 1, 0.5)
    window = (-6.0, 2.0, -4.0, 4.0)
    branches = trace_covering(F, window)
    m = nu_map(F, window, (41, 41), branches)
    regs = stability_region(m)
    assert len(regs) == 1
    assert regs[0].clipped


def test_anchor_polynomial_method_for_delay_free():
    F = CharFun(2, Dirac(0.0), {(0, 0): [1.0], (1, 0): [0.5]})
    # F = lam^2 - 0.5 lam - 1: one positive, one negative root, no L dependence
    m = nu_map(F, (-1.0, 1.0, -1.0, 1.0), (8, 8), [])
    assert m.anchor[1] == 1
    assert m.anchor[2] == "polynomial"
    assert np.all(m.labels == 1)


def test_numap_rejects_bad_inputs(growth_map):
    F, window, branches = growth_map
    with pytest.raises(ValueError):
        nu_map(F, (1.0, -1.0, -1.0, 1.0), (8, 8), branches)
    with pytest.raises(ValueError):
        nu_map(F, window, (1, 8), branches)


def test_coverage_warning():
    F = presets.growth_with_feedback()
    branches = trace(F, -2.0, 2.0, 0.05)  # far too narrow for this window
    with pytest.warns(UserWarning):
        nu_map(F, (-4.0, 4.0, -4.0, 4.0), (15, 15), branches)


def _brute_force_regions(numap):
    """Bordering polylines from every node-to-cell distance of each component."""
    nx, ny = numap.resolution
    re_lo, re_hi, im_lo, im_hi = numap.window
    cell_diag = np.hypot((re_hi - re_lo) / nx, (im_hi - im_lo) / ny)
    xs, ys = numap.cell_centers()
    comp = numap.component_ids
    out = []
    for cid in np.unique(comp[comp >= 0]):
        cells = np.argwhere(comp == cid)
        if numap.labels[cells[0][0], cells[0][1]] != 0:
            continue
        cs = xs[cells[:, 1]] + 1j * ys[cells[:, 0]]
        polylines = []
        for br in numap.branches:
            near = np.array([np.min(np.abs(L - cs)) <= 1.5 * cell_diag for L in br.L])
            runs = np.split(np.arange(len(near)), np.nonzero(np.diff(near))[0] + 1)
            polylines += [br.L[run] for run in runs if near[run[0]] and len(run) >= 2]
        out.append((cells, polylines))
    return out


# the eight oracle-equivalence systems of the acceptance suite
ORACLE_CASES = [
    (presets.growth_with_feedback(), (-4.0, 4.0, -4.0, 4.0)),
    (presets.drift_difference_coupling(), (-1.0, 1.0, -1.0, 1.0)),
    (presets.scalar_discrete(1.0, 0.0, 0.5), (-3.5, 0.5, -2.0, 2.0)),
    (presets.scalar_discrete(1.0, 0.0, 1.5), (-3.0, 3.0, -3.0, 3.0)),
    (presets.scalar_gamma(1.0, 1, 0.5), (-6.0, 2.0, -4.0, 4.0)),
    (presets.scalar_gamma(1.0, 1, 1.5), (-4.0, 4.0, -4.0, 4.0)),
    (presets.scalar_gamma(1.0, 2, 0.5), (-7.0, 3.0, -5.0, 5.0)),
    (presets.scalar_gamma(1.0, 2, 1.5), (-4.0, 4.0, -4.0, 4.0)),
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_stability_region_polylines_match_brute_force(case):
    F, window = ORACLE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        branches = trace_covering(F, window)
    m = nu_map(F, window, (41, 41), branches)
    regs = stability_region(m)
    ref = _brute_force_regions(m)
    assert len(regs) == len(ref)
    for reg, (cells, polylines) in zip(regs, ref):
        assert np.array_equal(reg.cells, cells)
        assert len(reg.boundary) == len(polylines)
        for got, want in zip(reg.boundary, polylines):
            assert np.array_equal(got, want)


def test_stability_region_memory_bounded():
    # one NU = 0 component of 16074 cells against about 6000 branch nodes;
    # a nodes x cells distance block per branch peaked near 800 MB here
    F = presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, 0.3)
    window = (-6.0, 1.0, -3.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        branches = trace_covering(F, window, step=0.01, refine_frac=0.002)
    m = nu_map(F, window, (141, 601), branches)
    tracemalloc.start()
    try:
        regs = stability_region(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(regs) == 1 and regs[0].boundary
    assert peak < 100e6
