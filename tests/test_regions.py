import functools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaystab import presets, regions
from delaystab.charfun import CharFun, radius_bound
from delaystab.kernels import Dirac, Uniform
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


# ------------------------------------------------ the per-cell loops as references

def _reference_rasterize(branches, window, nx, ny):
    """Sentinel cells, one curve segment at a time: every cell whose centre lies
    within half a cell diagonal of a sampled point, by brute force over the
    rows and columns whose centres are that close in one coordinate."""
    re_lo, re_hi, im_lo, im_hi = window
    dx, dy = (re_hi - re_lo) / nx, (im_hi - im_lo) / ny
    xs = re_lo + (np.arange(nx) + 0.5) * (re_hi - re_lo) / nx
    ys = im_lo + (np.arange(ny) + 0.5) * (im_hi - im_lo) / ny
    half_diag = 0.5 * np.hypot(dx, dy)
    step = 0.25 * min(dx, dy)
    sentinel = np.zeros((ny, nx), dtype=bool)
    pad = 2.0 * half_diag
    for br in branches:
        P = br.L
        for seg in range(len(P) - 1):
            p0, p1 = P[seg], P[seg + 1]
            if max(p0.real, p1.real) < re_lo - pad or min(p0.real, p1.real) > re_hi + pad:
                continue
            if max(p0.imag, p1.imag) < im_lo - pad or min(p0.imag, p1.imag) > im_hi + pad:
                continue
            n_sub = max(int(np.ceil(abs(p1 - p0) / step)), 1)
            pts = p0 + (p1 - p0) * np.linspace(0.0, 1.0, n_sub + 1)
            cols = np.nonzero((np.abs(xs[None, :] - pts.real[:, None]) <= half_diag).any(axis=0))[0]
            rows = np.nonzero((np.abs(ys[None, :] - pts.imag[:, None]) <= half_diag).any(axis=0))[0]
            for iy in rows:
                for ix in cols:
                    if np.any(np.abs(pts - complex(xs[ix], ys[iy])) <= half_diag):
                        sentinel[iy, ix] = True
    return sentinel


def _reference_bfs_rank(seed_mask):
    """Multi-source BFS over the 4-neighbor grid, one frontier cell at a time."""
    ny, nx = seed_mask.shape
    rank = np.full((ny, nx), -1, dtype=int)
    frontier = list(zip(*np.nonzero(seed_mask)))
    for y, x in frontier:
        rank[y, x] = 0
    d = 0
    while frontier:
        nxt = []
        for y, x in frontier:
            for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if 0 <= yy < ny and 0 <= xx < nx and rank[yy, xx] < 0:
                    rank[yy, xx] = d + 1
                    nxt.append((yy, xx))
        frontier = nxt
        d += 1
    return rank


def _reference_components(open_mask):
    """Depth-first flood fill from each unvisited open cell in row-major order."""
    ny, nx = open_mask.shape
    comp = np.full((ny, nx), -1, dtype=int)
    cid = 0
    for y0 in range(ny):
        for x0 in range(nx):
            if not open_mask[y0, x0] or comp[y0, x0] >= 0:
                continue
            stack = [(y0, x0)]
            comp[y0, x0] = cid
            while stack:
                y, x = stack.pop()
                for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= yy < ny and 0 <= xx < nx and open_mask[yy, xx] and comp[yy, xx] < 0:
                        comp[yy, xx] = cid
                        stack.append((yy, xx))
            cid += 1
    return comp


def _reference_full_oracle(F, m):
    """Labels of a full-oracle map: one nu_contour per open cell."""
    xs, ys = m.cell_centers()
    labels = np.full(m.labels.shape, -1, dtype=int)
    for iy, ix in zip(*np.nonzero(m.component_ids >= 0)):
        labels[iy, ix] = nu_contour(F, complex(xs[ix], ys[iy]))
    return labels


def _assert_passes_match(branches, window, res):
    nx, ny = res
    sentinel = regions._rasterize_sentinels(branches, window, nx, ny)
    assert np.array_equal(sentinel, _reference_rasterize(branches, window, nx, ny))
    _assert_grid_passes_match(sentinel)


def _assert_grid_passes_match(sentinel):
    for got, want in ((regions._components(~sentinel), _reference_components(~sentinel)),
                      (regions._bfs_rank(sentinel), _reference_bfs_rank(sentinel))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _oracle_branches(case):
    F, window = ORACLE_CASES[case]
    return trace_covering(F, window)


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_grid_passes_and_full_oracle_match_references(case):
    F, window = ORACLE_CASES[case]
    branches = _oracle_branches(case)
    _assert_passes_match(branches, window, (41, 41))
    mo = nu_map(F, window, (41, 41), branches, full_oracle=True)
    assert np.array_equal(mo.labels, _reference_full_oracle(F, mo))


@pytest.mark.parametrize("T", [0.05, 0.3, 0.6])
def test_pd_agent_grid_passes_match_references(T):
    F = presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, T)
    window = (-6.0, 1.0, -3.0, 3.0)
    branches = trace_covering(F, window, step=0.01, refine_frac=0.002)
    _assert_passes_match(branches, window, (141, 601))
    if T < 0.5:  # full-oracle maps on a coarser grid: the reference counts cell by cell
        mo = nu_map(F, window, (71, 61), branches, full_oracle=True)
        assert np.array_equal(mo.labels, _reference_full_oracle(F, mo))
        assert np.array_equal(mo.labels, nu_map(F, window, (71, 61), branches).labels)


@pytest.mark.parametrize("res", [(5, 41), (41, 5)], ids=["wide-cells", "tall-cells"])
def test_sentinel_masks_every_cell_within_half_a_diagonal_on_thin_cells(res):
    # a straight curve along the long cell side on a square window: half a
    # diagonal spans four cells across the short side, more than a 3x3 window
    nx, ny = res
    window = (-1.0, 1.0, -1.0, 1.0)
    t = np.linspace(-1.5, 1.5, 301)
    L = t + 0.123j if nx < ny else 0.123 + 1j * t
    branch = SimpleNamespace(L=L)  # the masking reads only the gains
    xs, ys = regions._grid(window, nx, ny)[2:]
    centres = xs[None, :] + 1j * ys[:, None]
    half_diag = 0.5 * np.hypot(2.0 / nx, 2.0 / ny)
    sentinel = regions._rasterize_sentinels([branch], window, nx, ny)
    near_node = (np.abs(centres[..., None] - L) <= half_diag).any(axis=-1)
    assert near_node.sum(axis=0 if nx < ny else 1).max() > 3
    assert sentinel[near_node].all()
    # every masked centre lies within half a diagonal of the line itself
    off_line = np.abs(centres.imag - 0.123) if nx < ny else np.abs(centres.real - 0.123)
    assert (off_line[sentinel] <= half_diag).all()


@pytest.mark.parametrize("res", [(7, 13), (13, 7), (5, 41), (20, 20)])
@pytest.mark.parametrize("sides", [0.3, 0.7, 1.0, 1.6, 2.5, 4.0])
def test_cells_near_matches_brute_force(res, sides):
    nx, ny = res
    window = (-1.0, 2.0, -0.5, 0.5)
    xs, ys = regions._grid(window, nx, ny)[2:]
    centres = xs[None, :] + 1j * ys[:, None]
    rng = np.random.default_rng(nx * 100 + ny)
    P = rng.uniform(-1.6, 2.6, 400) + 1j * rng.uniform(-0.8, 0.8, 400)
    for reach in (sides * 3.0 / nx, sides * 1.0 / ny):
        got = np.zeros((len(P), ny, nx), dtype=bool)
        for sel, iy, ix, ok in regions._cells_near(P, window, nx, ny, reach):
            assert iy.shape == ix.shape == ok.shape == (len(sel), iy.shape[1])
            rows = np.broadcast_to(sel[:, None], iy.shape)
            got[rows[ok], iy[ok], ix[ok]] = True
        want = np.abs(centres[None] - P[:, None, None]) <= reach
        assert want.any() and not want.all()
        assert np.array_equal(got, want)


def _spiral(ny, nx):
    """One open corridor winding inward, one closed cell away from its previous lap."""
    m = np.zeros((ny, nx), dtype=bool)
    y = x = d = turns = 0
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    m[0, 0] = True
    while turns < 2:
        dy, dx = steps[d]
        y1, x1, y2, x2 = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        ahead_free = not (0 <= y2 < ny and 0 <= x2 < nx) or not m[y2, x2]
        if 0 <= y1 < ny and 0 <= x1 < nx and not m[y1, x1] and ahead_free:
            y, x, turns = y1, x1, 0
            m[y, x] = True
        else:
            d, turns = (d + 1) % 4, turns + 1
    return m


def _comb(ny, nx):
    """Teeth on every other column, joined along the bottom row and pairwise at the top."""
    m = np.zeros((ny, nx), dtype=bool)
    m[-1, :] = True
    m[:, ::2] = True
    m[0, 1::4] = True
    return m


@pytest.mark.parametrize("open_mask", [
    _spiral(61, 67),
    _spiral(61, 67)[::-1, ::-1].copy(),
    _comb(41, 53),
    _comb(41, 53).T.copy(),
    np.ones((9, 7), dtype=bool),
    np.zeros((9, 7), dtype=bool),
    np.array([[True, False], [False, True]]),
    np.random.default_rng(3).random((40, 50)) < 0.6,
], ids=["spiral", "spiral-flipped", "comb", "comb-transposed", "no-sentinel", "all-sentinel",
        "2x2", "random"])
def test_grid_passes_match_references_on_synthetic_masks(open_mask):
    _assert_grid_passes_match(~open_mask)


def test_full_oracle_on_curve_cell_raises():
    # the traced curve of zdot = z + L z(t - 1/2) crosses the real axis at L = -1
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    window = (-1.5, -0.5, -0.5, 0.5)
    branches = trace_covering(F, window)
    assert min(np.min(np.abs(br.L + 1.0)) for br in branches) < 1e-9
    # without the curves every cell stays open, the center one (L = -1) too
    xs, ys = nu_map(F, window, (5, 5), []).cell_centers()
    assert (xs[2], ys[2]) == (-1.0, 0.0)
    with pytest.raises(OnSccError):
        nu_map(F, window, (5, 5), [], full_oracle=True)


ON, UNRESOLVED = regions._ON_CURVE, regions._UNRESOLVED


def test_winding_reports_statuses_without_raising(monkeypatch):
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    nu, beta = regions._winding(F, [-1.0, -1.5, 0.0, -3.0])
    assert nu.tolist() == [ON, 0, 1, 2]
    assert beta[0] == 0.0 and np.isnan(beta[1:]).all()
    # with no axis clearance the root at lam = 0 (L = -1) is left unresolved, not raised
    monkeypatch.setattr(regions, "_ON_SCC_TOL", 0.0)
    nu, _ = regions._winding(F, [-1.5, -1.0, 0.0])
    assert nu.tolist() == [0, UNRESOLVED, 1]
    with pytest.raises(regions.WindingUnresolvedError):
        nu_contour(F, -1.0)


@pytest.mark.parametrize("statuses, want", [
    ([ON, 7, UNRESOLVED, UNRESOLVED, ON], 7),  # the next candidate labels; later failures go unused
    ([3, UNRESOLVED, UNRESOLVED, UNRESOLVED, UNRESOLVED], 3),
    ([UNRESOLVED, 7, 7, 7, 7], regions.WindingUnresolvedError),
    ([ON, ON, ON, ON, ON], OnSccError),
], ids=["on-curve-first", "unresolved-later", "unresolved-first", "all-on-curve"])
def test_component_label_takes_first_candidate_off_the_curves(monkeypatch, statuses, want):
    # no curves: one component whose five candidates are counted in one batch
    calls = []

    def counter(F, Ls):
        calls.append(len(Ls))
        return np.array(statuses), np.zeros(len(Ls))

    monkeypatch.setattr(regions, "_winding", counter)
    F = presets.scalar_discrete(1.0, 0.0, 0.5)
    if isinstance(want, int):
        m = nu_map(F, (-1.0, 1.0, -1.0, 1.0), (6, 6), [])
        assert np.all(m.labels == want) and m.anchor[1] == want
    else:
        with pytest.raises(want):
            nu_map(F, (-1.0, 1.0, -1.0, 1.0), (6, 6), [])
    assert calls == [5]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.integers(0, len(ORACLE_CASES) - 1), nx=st.integers(3, 14), ny=st.integers(3, 14),
       size=st.floats(0.05, 0.3), fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0))
def test_full_oracle_equals_propagation_and_contour_on_subwindows(case, nx, ny, size, fx, fy):
    F, (re_lo, re_hi, im_lo, im_hi) = ORACLE_CASES[case]
    # square cells of side size * (window width / 14), placed inside the system window
    cell = size * (re_hi - re_lo) / 14
    x0 = re_lo + fx * (re_hi - re_lo - nx * cell)
    y0 = im_lo + fy * (im_hi - im_lo - ny * cell)
    window = (x0, x0 + nx * cell, y0, y0 + ny * cell)
    branches = _oracle_branches(case)
    assume(not regions._rasterize_sentinels(branches, window, nx, ny).all())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = nu_map(F, window, (nx, ny), branches)
        mo = nu_map(F, window, (nx, ny), branches, full_oracle=True)
    assert np.array_equal(mo.labels, m.labels)
    assert np.array_equal(mo.labels, _reference_full_oracle(F, mo))


_NUM = st.floats(-3.0, 3.0)


@st.composite
def _turn_cases(draw):
    """A preset, a gain disk (centre, radius) and gains in it: one drawn, the rest on its rim."""
    kind = draw(st.sampled_from(["scalar-discrete", "scalar-gamma", "pd-agent", "coupling-mode"]))
    if kind == "scalar-discrete":
        F = presets.scalar_discrete(draw(_NUM), draw(_NUM), draw(st.floats(0.0, 3.0)))
    elif kind == "scalar-gamma":
        F = presets.scalar_gamma(draw(_NUM), draw(st.integers(1, 4)), draw(st.floats(0.1, 3.0)))
    elif kind == "pd-agent":
        F = presets.pd_agent_mode(draw(_NUM), draw(_NUM), draw(_NUM), draw(_NUM), draw(st.floats(0.0, 2.0)))
    else:
        F = presets.coupling_mode(Uniform(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0))))
    center, radius = complex(draw(_NUM), draw(_NUM)), draw(st.floats(0.0, 4.0))
    inner = draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    # the rim point farthest from the origin reaches the modulus radius_bound allows for
    rim = np.exp(1j * np.append(np.angle(center), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)))
    return F, center, radius, center + radius * np.append(inner, rim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_turn_cases())
def test_semicircle_turn_in_closed_form_matches_the_dense_integral(case):
    # the counter samples the axis only and adds the semicircle's phase turn in
    # closed form; on radius_bound's semicircle that is arg F integrated along it
    F, center, radius, Ls = case
    R = radius_bound(F, center, radius)
    lam = R * np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 8193))
    lam[[0, -1]] = -1j * R, 1j * R
    f = F.outer(lam, Ls)
    dense = np.angle(f[1:] * f[:-1].conj()).sum(axis=0)  # unwrapped: every step is far below pi
    assert np.abs(regions._arc_turn(F.q, f[-1], f[0]) - dense).max() <= 1e-9
