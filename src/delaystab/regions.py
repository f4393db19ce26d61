"""Unstable-root counting and stability-region maps over the gain plane.

The number of characteristic roots in the closed right half-plane, NU(L),
is computed by accumulating the winding of F along a closed contour: down
the imaginary axis and back along the right semicircle of radius R from
``radius_bound``.  Only the axis is sampled: on the semicircle
|F / lam^q - 1| <= 1/2, so its turn is q pi + Arg(F(iR) / (iR)^q) -
Arg(F(-iR) / (-iR)^q) in closed form.  Phase tracking with adaptive
midpoint insertion is used instead of quadrature of the logarithmic
derivative; it stays robust near contour-adjacent roots.  One
counter, ``_winding``, does every count: a batch of gains shares one
contour, F on its points is one matrix product per block of gains
(``CharFun.outer``), and each gain ends with a status (its NU, on a curve
or unresolved) instead of an exception; ``nu_contour`` is a batch of one.

NU is constant between crossing curves, so a window map needs one count per
connected component.  ``trace_covering`` gives the curves in a window from
one trace over the beta range that ``radius_bound`` certifies for the
window's circumscribed disk.  Cells whose centre lies within half a cell
diagonal of the curves (on any cell aspect ratio) are masked out, the rest
are flood-filled, and each component is labeled by the first of its five
most curve-distant cells that is off the curves, all components in one
batch.
A full-oracle mode counts every open cell in one batch as a cross-check.

The grid passes are whole-array numpy: the curve segments are sub-sampled
in one flat layout, components come from root hooking with pointer jumping
and are numbered by their first row-major cell, and the curve distance
used to pick a component's cell is a two-sweep L1 distance transform.  One
neighbourhood query, ``_cells_near``, serves both the masking and the search
for the curve nodes that border each stable component.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .charfun import CharFun, radius_bound
from .eigen import poly_roots
from .scc import SccBranch, trace

__all__ = [
    "OnSccError",
    "WindingUnresolvedError",
    "Membership",
    "NuMap",
    "StabilityComponent",
    "nu_contour",
    "nu_map",
    "stability_region",
    "membership",
    "trace_covering",
]


class OnSccError(ValueError):
    """The queried gain sits on a stability crossing curve (root on the axis)."""


class WindingUnresolvedError(RuntimeError):
    """Phase tracking could not settle on an integer winding number."""


_ROUND_GUARD = 0.05  # largest distance of the winding from an integer
_MAX_CONTOUR_POINTS = 200_000
_ON_SCC_TOL = 1e-6  # axis clearance of F, relative to max(1, |beta|^q)
_AXIS_POINTS = 769  # starting contour: points on the axis segment from iR to -iR
_BLOCK = 1 << 17  # contour values per column block
_ON_CURVE, _UNRESOLVED = -1, -2  # counter statuses besides a count NU >= 0


def _arc_turn(q: int, top, bottom):
    """F's phase turn from -iR to iR along a semicircle with |F / lam^q - 1| <= 1/2; top = F(iR), bottom = F(-iR)."""
    return np.pi * q + np.angle(top * (-1j) ** q) - np.angle(bottom * 1j**q)  # the unit powers are exact


def _winding(F: CharFun, Ls):
    """NU of F(., L) for every gain of the batch ``Ls``, by phase tracking, as statuses.

    All gains share one contour, whose radius R ``radius_bound`` gives for the
    disk that holds the batch, and are counted in column blocks: the axis from
    iR down to -iR, plus ``_arc_turn`` from its first and last rows.  Each
    round tests every live column of a block: a wrapped phase step above the
    column's threshold asks for that step's midpoint; with none, a winding
    within ``_ROUND_GUARD`` of an integer >= 0 settles the column, and any
    other winding halves the threshold (down to pi/64) or leaves the column
    unresolved.  Midpoints go wherever a live column asks for one and are
    evaluated for the live columns only.  Returns ``(nu, beta)``: ``nu[c]``
    is the count, ``_ON_CURVE`` when |F| falls below ``_ON_SCC_TOL *
    max(1, |beta|^q)`` on the axis (``beta[c]`` is the first such point) or
    ``_UNRESOLVED`` when the values are not finite or the winding does not
    settle.  A failed count never raises.
    """
    Ls = np.atleast_1d(np.asarray(Ls, dtype=complex))
    nu = np.full(len(Ls), _UNRESOLVED)
    beta = np.full(len(Ls), np.nan)
    if not len(Ls):
        return nu, beta
    center = 0.5 * (complex(Ls.real.min(), Ls.imag.min()) + complex(Ls.real.max(), Ls.imag.max()))
    R = radius_bound(F, center, float(np.abs(Ls - center).max()))
    # the axis lam = -i R p, p from -1 to 1; R is a power of two, so R p is exact
    start = np.linspace(-1.0, 1.0, _AXIS_POINTS)
    block = max(1, _BLOCK // len(start))
    for lo in range(0, len(Ls), block):
        live = np.arange(lo, min(lo + block, len(Ls)))
        thr = np.full(len(live), np.pi / 4.0)
        pos, new, f = np.empty(0), start, np.empty((0, len(live)), dtype=complex)
        for rnd in range(61):
            fm = F.outer(-1j * R * new, Ls[live])
            finite = np.isfinite(fm).all(axis=0)
            low = np.abs(fm) < (_ON_SCC_TOL * np.maximum(1.0, np.abs(R * new) ** F.q))[:, None]
            on = finite & low.any(axis=0)
            nu[live[on]] = _ON_CURVE
            beta[live[on]] = -R * new[low[:, on].argmax(axis=0)]
            keep = finite & ~on
            order = np.argsort(np.concatenate([pos, new]), kind="stable")  # the contour in parameter order
            pos = np.concatenate([pos, new])[order]
            f = np.concatenate([f, fm])[order][:, keep]
            live, thr = live[keep], thr[keep]
            if not len(live) or len(pos) > _MAX_CONTOUR_POINTS or rnd == 60:
                break
            d = np.angle(f[1:] * f[:-1].conj())
            bad = np.abs(d) > thr
            calm = ~bad.any(axis=0)
            total = (d.sum(axis=0) + _arc_turn(F.q, f[0], f[-1])) / (2.0 * np.pi)
            n = np.round(total)
            done = calm & (np.abs(total - n) <= _ROUND_GUARD) & (n >= 0)
            nu[live[done]] = n[done]
            retry = calm & ~done & (thr > np.pi / 64.0)
            thr[retry] /= 2.0
            bad[:, retry] = np.abs(d[:, retry]) > thr[retry]
            keep = bad.any(axis=0)  # every other calm column is settled or unresolved
            f, live, thr, bad = f[:, keep], live[keep], thr[keep], bad[:, keep]
            if not len(live):
                break
            idx = np.nonzero(bad.any(axis=1))[0]
            new = 0.5 * (pos[idx] + pos[idx + 1])
    return nu, beta


def _raise_status(nu: int, beta: float, L: complex) -> None:
    if nu == _ON_CURVE:
        raise OnSccError(f"root on the imaginary axis near beta={beta:.6g} for L={L:.6g}")
    if nu == _UNRESOLVED:
        raise WindingUnresolvedError(f"phase tracking did not settle on an integer winding at L={L:.6g}")


def nu_contour(F: CharFun, L: complex) -> int:
    """Count roots of F(., L) with nonnegative real part.

    Raises OnSccError when a root sits on (or numerically too close to) the
    imaginary axis, making the count ill-defined at tolerance, and
    WindingUnresolvedError when phase tracking does not settle.
    """
    L = complex(L)
    nu, beta = _winding(F, L)
    _raise_status(nu[0], beta[0], L)
    return int(nu[0])


def _nu_polynomial(F: CharFun, L: complex) -> int:
    """Right-half-plane root count for delay-free tables, via companion roots."""
    if not F.delay_free():
        raise ValueError("polynomial counting requires a delay-free table")
    coeffs = np.zeros(F.q + 1, dtype=complex)
    coeffs[F.q] = 1.0
    coeffs[: F.q] -= np.polyval(F.C[:, 0, ::-1].T, L)
    roots = poly_roots(coeffs)
    return int(np.sum(roots.real >= 0.0))


@dataclass
class Membership:
    verdict: str  # "stable" | "unstable" | "on_curve"
    nu: Optional[int] = None


def membership(F: CharFun, L: complex) -> Membership:
    """Classify a single gain without building a full map."""
    try:
        nu = nu_contour(F, L)
    except OnSccError:
        return Membership("on_curve", None)
    return Membership("stable" if nu == 0 else "unstable", nu)


@dataclass
class NuMap:
    """Unstable-root counts over a rectangular gain window.

    ``labels[iy, ix]`` is NU at the cell center (column ix, row iy), or -1
    for cells masked as lying on a crossing curve.  The anchor records the
    certificate cell used for the most curve-distant component.
    """

    window: Tuple[float, float, float, float]
    resolution: Tuple[int, int]
    labels: np.ndarray
    anchor: Tuple[complex, int, str]
    branches: List[SccBranch] = field(default_factory=list, repr=False)
    warnings: List[str] = field(default_factory=list)
    component_ids: np.ndarray = field(default=None, repr=False)

    def cell_centers(self):
        return _grid(self.window, *self.resolution)[2:]


def _grid(window, nx, ny):
    """Cell sides dx, dy and cell centres xs, ys of the nx x ny grid over the window."""
    re_lo, re_hi, im_lo, im_hi = window
    xs = re_lo + (np.arange(nx) + 0.5) * (re_hi - re_lo) / nx
    ys = im_lo + (np.arange(ny) + 0.5) * (im_hi - im_lo) / ny
    return (re_hi - re_lo) / nx, (im_hi - im_lo) / ny, xs, ys


def _cells_near(P: np.ndarray, window, nx, ny, reach: float):
    """The grid cells around the points ``P``, in blocks ``(sel, iy, ix, ok)``.

    Row k of ``iy, ix`` holds the cells within int(reach / d + 0.5) rows and
    columns of the cell nearest to ``P[sel[k]]``, clipped to the grid, and
    ``ok`` marks those on the grid whose centre lies within ``reach`` of the
    point.  A centre o cells away lies at least (|o| - 1/2) d from the point,
    so no cell within reach is left out.  Points with no cell in range are
    skipped, and the blocks bound the memory at about 65536 cells each.
    """
    dx, dy, xs, ys = _grid(window, nx, ny)
    rx, ry = int(reach / dx + 0.5), int(reach / dy + 0.5)
    ox, oy = (o.ravel() for o in np.meshgrid(np.arange(-rx, rx + 1), np.arange(-ry, ry + 1)))
    cx = np.rint((P.real - window[0]) / dx - 0.5)
    cy = np.rint((P.imag - window[2]) / dy - 0.5)
    todo = np.nonzero((cx >= -rx) & (cx < nx + rx) & (cy >= -ry) & (cy < ny + ry))[0]
    block = max(1, 65536 // len(ox))
    for s in range(0, len(todo), block):
        sel = todo[s : s + block]
        ix = cx[sel, None].astype(np.intp) + ox
        iy = cy[sel, None].astype(np.intp) + oy
        ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        ix, iy = np.clip(ix, 0, nx - 1), np.clip(iy, 0, ny - 1)
        ok &= np.abs(P[sel, None] - (xs[ix] + 1j * ys[iy])) <= reach
        yield sel, iy, ix, ok


def _rasterize_sentinels(branches, window, nx, ny) -> np.ndarray:
    """Cells whose centre lies within half a cell diagonal of a traced curve.

    Each curve segment near the window is sub-sampled at a quarter of the
    smaller cell side; all segments of all branches share one flat layout,
    whose points are those of ``np.linspace(0, 1, n_sub + 1)`` per segment.
    Every cell that ``_cells_near`` finds within half a diagonal of a
    sampled point is marked, whatever the aspect ratio of the cells.
    """
    re_lo, re_hi, im_lo, im_hi = window
    dx, dy = _grid(window, nx, ny)[:2]
    half_diag = 0.5 * np.hypot(dx, dy)
    step = 0.25 * min(dx, dy)
    sentinel = np.zeros((ny, nx), dtype=bool)
    pad = 2.0 * half_diag
    nodes = [np.asarray(br.L) for br in branches] + [np.zeros(1, dtype=complex)]
    p0 = np.concatenate([L[:-1] for L in nodes])
    p1 = np.concatenate([L[1:] for L in nodes])
    far = (
        (np.maximum(p0.real, p1.real) < re_lo - pad)
        | (np.minimum(p0.real, p1.real) > re_hi + pad)
        | (np.maximum(p0.imag, p1.imag) < im_lo - pad)
        | (np.minimum(p0.imag, p1.imag) > im_hi + pad)
    )
    p0, p1 = p0[~far], p1[~far]
    n_sub = np.maximum(np.ceil(np.abs(p1 - p0) / step).astype(np.intp), 1)
    counts = n_sub + 1
    seg = np.repeat(np.arange(len(p0)), counts)
    i = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)  # index within the segment
    ts = i * (1.0 / n_sub)[seg]
    ts[i == n_sub[seg]] = 1.0  # linspace pins its endpoint
    pts = p0[seg] + (p1 - p0)[seg] * ts
    for _, iy, ix, ok in _cells_near(pts, window, nx, ny, half_diag):
        sentinel[iy[ok], ix[ok]] = True
    return sentinel


def _sweep(d: np.ndarray, axis: int) -> np.ndarray:
    """min over j of d[j] + |i - j| along one axis: a forward and a backward running minimum."""
    i = np.arange(d.shape[axis]).reshape((-1, 1) if axis == 0 else (1, -1))
    fwd = np.minimum.accumulate(d - i, axis=axis) + i
    bwd = np.flip(np.minimum.accumulate(np.flip(d + i, axis), axis=axis), axis) - i
    return np.minimum(fwd, bwd)


def _bfs_rank(seed_mask: np.ndarray) -> np.ndarray:
    """Multi-source BFS distance (4-neighbor) from the seed cells, -1 with no seed.

    With no obstacles this is the L1 distance to the nearest seed, a
    separable distance transform: one sweep pair along rows, one along columns.
    """
    ny, nx = seed_mask.shape
    far = nx + ny  # above every distance on the grid
    rank = _sweep(_sweep(np.where(seed_mask, 0, far), 1), 0)
    rank[rank >= far] = -1
    return rank


def _components(open_mask: np.ndarray) -> np.ndarray:
    """4-connected components of the open cells, numbered by their first row-major cell.

    Every cell starts as the root of its own tree, labeled by its flat index.
    Each round hooks, across every 4-neighbor edge of open cells whose ends
    lie in different trees, the larger root to the smaller label, then
    compresses every path by pointer jumping (label <- label[label]).  Roots
    only ever hook to smaller labels, so each component ends as one tree
    rooted at its first cell.
    """
    ny, nx = open_mask.shape
    n = ny * nx
    idx = np.arange(n).reshape(ny, nx)
    across = open_mask[:, :-1] & open_mask[:, 1:]
    down = open_mask[:-1] & open_mask[1:]
    a = np.concatenate([idx[:, :-1][across], idx[:-1][down]])
    b = np.concatenate([idx[:, 1:][across], idx[1:][down]])
    lab = np.arange(n)
    while True:
        la, lb = lab[a], lab[b]
        split = la != lb
        if not split.any():
            break
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
    flat = open_mask.ravel()
    comp = np.full(n, -1, dtype=int)
    comp[flat] = np.unique(lab[flat], return_inverse=True)[1]
    return comp.reshape(ny, nx)


def nu_map(
    F: CharFun,
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
    branches: Sequence[SccBranch],
    *,
    full_oracle: bool = False,
) -> NuMap:
    """Label NU over a window grid.

    Cells within half a cell diagonal of a traced curve are masked (-1).  In
    the default mode each flood-filled component is labeled by the count at
    the first of its five most curve-distant cells that is not on a curve;
    with ``full_oracle`` every open cell is counted.  A branch end within the
    window's reach draws a warning, but ``trace`` drops far-field nodes, so a
    branch's beta span certifies no coverage: ``trace_covering``'s range does.
    """
    re_lo, re_hi, im_lo, im_hi = window
    if not (re_hi > re_lo and im_hi > im_lo):
        raise ValueError("empty window")
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")

    notes: List[str] = []
    outer = max(abs(complex(re, im)) for re in (re_lo, re_hi) for im in (im_lo, im_hi))
    diag = np.hypot(re_hi - re_lo, im_hi - im_lo)
    for br in branches:
        for end in (br.L[0], br.L[-1]):
            if abs(end) <= max(diag, outer):
                notes.append(
                    f"branch {br.root_index} ends at |L|={abs(end):.3g} inside the coverage "
                    f"radius; curve pieces may be missing from the window"
                )
    if notes:
        warnings.warn("; ".join(sorted(set(notes))), stacklevel=2)

    sentinel = _rasterize_sentinels(branches, window, nx, ny)
    open_mask = ~sentinel
    comp = _components(open_mask)
    n_comp = comp.max() + 1
    if not n_comp:
        raise OnSccError("no labelable cell in the window; refine the resolution")
    rank = _bfs_rank(sentinel) if sentinel.any() else np.ones((ny, nx), dtype=int)

    xs, ys = _grid(window, nx, ny)[2:]
    gains = xs[None, :] + 1j * ys[:, None]
    cells = [np.nonzero(comp == cid) for cid in range(n_comp)]
    cands = []  # each component's five most curve-distant cells, farthest first
    for iy, ix in cells:
        top = np.argsort(rank[iy, ix])[::-1][:5]
        cands.append((iy[top], ix[top]))
    labels = np.full((ny, nx), -1, dtype=int)
    if full_oracle:
        L = gains[open_mask]
        nu, beta = _winding(F, L)
        failed = np.nonzero(nu < 0)[0]
        if len(failed):  # the first failing cell in row-major order
            _raise_status(nu[failed[0]], beta[failed[0]], L[failed[0]])
        labels[open_mask] = nu
    else:
        L = np.concatenate([gains[c] for c in cands])
        nu, beta = _winding(F, L)
        lo = 0
        for cid, (iy, _) in enumerate(cands):
            clear = np.nonzero(nu[lo : lo + len(iy)] != _ON_CURVE)[0]
            if not len(clear):
                raise OnSccError(f"component {cid} has no cell clear of the curves; refine the resolution")
            c = lo + clear[0]
            _raise_status(nu[c], beta[c], L[c])
            labels[cells[cid]] = nu[c]
            lo += len(iy)

    # the anchor: the top cell of the first component reaching the largest curve distance
    iy, ix = cands[int(np.argmax([rank[cs].max() for cs in cells]))]
    L0 = complex(xs[ix[0]], ys[iy[0]])
    if F.delay_free():
        anchor = (L0, _nu_polynomial(F, L0), "polynomial")
    else:
        anchor = (L0, int(labels[iy[0], ix[0]]), "contour")
    return NuMap(
        window=tuple(window),
        resolution=(nx, ny),
        labels=labels,
        anchor=anchor,
        branches=list(branches),
        warnings=notes,
        component_ids=comp,
    )


@dataclass
class StabilityComponent:
    """One connected NU = 0 component of the map window."""

    cells: np.ndarray  # (m, 2) array of (iy, ix)
    clipped: bool
    boundary: List[np.ndarray]  # polylines in the gain plane


def stability_region(numap: NuMap) -> List[StabilityComponent]:
    """Extract the NU = 0 components and the curve segments bordering them."""
    nx, ny = numap.resolution
    reach = 1.5 * np.hypot(*_grid(numap.window, nx, ny)[:2])

    out: List[StabilityComponent] = []
    comp = numap.component_ids
    for cid in np.unique(comp[comp >= 0]):
        cells = np.argwhere(comp == cid)
        if numap.labels[tuple(cells[0])] != 0:
            continue
        clipped = bool(np.isin(cells[:, 0], (0, ny - 1)).any() or np.isin(cells[:, 1], (0, nx - 1)).any())
        polylines = []
        for br in numap.branches:  # the runs of at least two nodes near the component
            near = np.zeros(len(br.L), dtype=bool)
            for sel, iy, ix, ok in _cells_near(br.L, numap.window, nx, ny, reach):
                near[sel] = (ok & (comp[iy, ix] == cid)).any(axis=1)
            runs = np.split(np.arange(len(near)), np.nonzero(np.diff(near))[0] + 1)
            polylines += [br.L[run] for run in runs if len(run) >= 2 and near[run[0]]]
        out.append(StabilityComponent(cells=cells, clipped=clipped, boundary=polylines))
    return out


def trace_covering(
    F: CharFun,
    window: Tuple[float, float, float, float],
    *,
    step: float = 0.05,
    refine_frac: float = 0.02,
) -> List[SccBranch]:
    """Trace branches over the beta range that ``radius_bound`` certifies for the window.

    No crossing point with L in the window's circumscribed disk (centre the
    window's centre, radius half its diagonal) has |beta| >= R, so the
    curves traced over [-R, R] are every curve piece in the window.
    """
    re_lo, re_hi, im_lo, im_hi = window
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    R = radius_bound(F, center, 0.5 * float(np.hypot(re_hi - re_lo, im_hi - im_lo)))
    return trace(F, -R, R, step, window=window, refine_frac=refine_frac)
