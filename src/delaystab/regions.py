"""Unstable-root counting and stability-region maps over the gain plane.

The number of characteristic roots in the closed right half-plane, NU(L),
is computed by accumulating the winding of F along a closed contour: down
the imaginary axis and back along the right semicircle whose radius comes
from the coefficient bound (no roots can live beyond it).  Phase tracking
with adaptive midpoint insertion is used instead of quadrature of the
logarithmic derivative; it stays robust near contour-adjacent roots.

NU is constant between crossing curves, so a window map needs one contour
evaluation per connected component: cells near the curves are masked out,
the rest are flood-filled, and each component is labeled at its cell
farthest from any curve.  A full-oracle mode labels every cell as a
cross-check.  Its cells share one contour per window, with the radius bound
of the disk that holds the window: F is linear in the gain polynomials
P_kj(L), so F on the shared points is one matrix product per block of
cells.  A cell whose column fails any of ``nu_contour``'s tests there (axis
clearance, phase steps, an integer winding) falls back to its own
``nu_contour``, which refines adaptively and raises as usual.

The grid passes are whole-array numpy: the curve segments are sub-sampled
in one flat layout, components come from root hooking with pointer jumping
and are numbered by their first row-major cell, and the curve distance
used to pick a component's cell is a two-sweep L1 distance transform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .charfun import CharFun, _horner, radius_bound
from .eigen import poly_roots
from .kernels import laplace
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


def _wrap(d: np.ndarray) -> np.ndarray:
    return (d + np.pi) % (2.0 * np.pi) - np.pi


_ROUND_GUARD = 0.05  # largest distance of the winding from an integer
_MAX_CONTOUR_POINTS = 200_000
_ON_SCC_TOL = 1e-6  # default axis clearance of F, relative to max(1, |beta|^q)


def nu_contour(F: CharFun, L: complex, *, on_scc_tol: float = _ON_SCC_TOL) -> int:
    """Count roots of F(., L) with nonnegative real part.

    Raises OnSccError when a root sits on (or numerically too close to) the
    imaginary axis, making the count ill-defined at tolerance.
    """
    L = complex(L)
    R = radius_bound(F, L, 0.0)

    # kind 0: axis lam = -i*s, s in [-R, R]; kind 1: arc lam = R e^{i(t - pi/2)},
    # t in (0, pi].  The closing point (t = pi) coincides with the start (i R).
    n_axis, n_arc = 97, 49
    kind = np.concatenate([np.zeros(n_axis, dtype=np.int8), np.ones(n_arc - 1, dtype=np.int8)])
    par = np.concatenate([np.linspace(-R, R, n_axis), np.linspace(0.0, np.pi, n_arc)[1:]])

    def lam_of(kd, pr):
        return np.where(kd == 0, -1j * pr, R * np.exp(1j * (pr - np.pi / 2.0)))

    def check_axis(kd, pr, fv):
        ax = kd == 0
        if not np.any(ax):
            return
        scale = np.maximum(1.0, np.abs(pr[ax]) ** F.q)
        bad = np.abs(fv[ax]) < on_scc_tol * scale
        if np.any(bad):
            b = pr[ax][bad][0]
            raise OnSccError(f"root on the imaginary axis near beta={-b:.6g} for L={L:.6g}")

    fv = F.eval(lam_of(kind, par), L)
    if not np.all(np.isfinite(fv)):
        raise WindingUnresolvedError("characteristic function not finite on the contour")
    check_axis(kind, par, fv)

    threshold = np.pi / 4.0
    for _ in range(60):
        phi = np.angle(fv)
        d = _wrap(np.diff(phi))
        bad = np.abs(d) > threshold
        if not np.any(bad):
            total = d.sum() / (2.0 * np.pi)
            nu = int(np.round(total))
            if abs(total - nu) > _ROUND_GUARD or nu < 0:
                if threshold > np.pi / 64.0:
                    threshold /= 2.0
                    bad = np.abs(d) > threshold
                    if not np.any(bad):
                        raise WindingUnresolvedError(
                            f"winding {total:.4f} not close to an integer at L={L:.6g}"
                        )
                else:
                    raise WindingUnresolvedError(
                        f"winding {total:.4f} not close to an integer at L={L:.6g}"
                    )
            else:
                return nu
        idx = np.nonzero(bad)[0]
        k0, k1 = kind[idx], kind[idx + 1]
        p0, p1 = par[idx], par[idx + 1]
        # an axis->arc junction pair is refined on the arc (the axis endpoint
        # is the arc's t = 0 point)
        mid_kind = np.where(k0 == k1, k0, 1).astype(np.int8)
        mid_par = np.where(k0 == k1, 0.5 * (p0 + p1), 0.5 * (np.where(k0 == 0, 0.0, p0) + p1))
        mid_lam = lam_of(mid_kind, mid_par)
        mid_f = F.eval(mid_lam, L)
        if not np.all(np.isfinite(mid_f)):
            raise WindingUnresolvedError("characteristic function not finite on the contour")
        check_axis(mid_kind, mid_par, mid_f)
        kind = np.insert(kind, idx + 1, mid_kind)
        par = np.insert(par, idx + 1, mid_par)
        fv = np.insert(fv, idx + 1, mid_f)
        if len(par) > _MAX_CONTOUR_POINTS:
            raise WindingUnresolvedError(f"contour refinement exceeded {_MAX_CONTOUR_POINTS} points at L={L:.6g}")
    raise WindingUnresolvedError(f"phase tracking did not converge at L={L:.6g}")


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
        re_lo, re_hi, im_lo, im_hi = self.window
        nx, ny = self.resolution
        xs = re_lo + (np.arange(nx) + 0.5) * (re_hi - re_lo) / nx
        ys = im_lo + (np.arange(ny) + 0.5) * (im_hi - im_lo) / ny
        return xs, ys


def _rasterize_sentinels(branches, window, nx, ny) -> np.ndarray:
    """Cells whose center lies within half a cell diagonal of a traced curve.

    Each curve segment near the window is sub-sampled at a quarter of the
    smaller cell side; all segments of all branches share one flat layout,
    whose points are those of ``np.linspace(0, 1, n_sub + 1)`` per segment.
    """
    re_lo, re_hi, im_lo, im_hi = window
    dx, dy = (re_hi - re_lo) / nx, (im_hi - im_lo) / ny
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
    if not len(p0):
        return sentinel
    n_sub = np.maximum(np.ceil(np.abs(p1 - p0) / step).astype(np.intp), 1)
    counts = n_sub + 1
    seg = np.repeat(np.arange(len(p0)), counts)
    i = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)  # index within the segment
    ts = i * (1.0 / n_sub)[seg]
    ts[i == n_sub[seg]] = 1.0  # linspace pins its endpoint
    pts = p0[seg] + (p1 - p0)[seg] * ts
    cx = np.round((pts.real - re_lo) / dx - 0.5).astype(int)
    cy = np.round((pts.imag - im_lo) / dy - 0.5).astype(int)
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            ix, iy = cx + ox, cy + oy
            ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
            ix, iy = ix[ok], iy[ok]
            cex = re_lo + (ix + 0.5) * dx
            cey = im_lo + (iy + 0.5) * dy
            close = np.hypot(cex - pts.real[ok], cey - pts.imag[ok]) <= half_diag
            sentinel[iy[close], ix[close]] = True
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


_ORACLE_AXIS, _ORACLE_ARC = 769, 193  # shared-contour points on the axis and on the arc (with its t = 0 end)
_ORACLE_BLOCK = 1 << 17  # contour values per column block of gains


def _full_oracle(F: CharFun, window, xs, ys, open_mask) -> np.ndarray:
    """NU at the center of every open cell, in row-major order.

    One contour serves the whole window: its radius comes from the disk
    around the window center through the corners, valid for every cell.
    F is linear in the values P_kj(L), so on the shared points F = lam^q -
    Basis @ P(L), with Basis[p, t] = lam_p^k hhat(lam_p)^j over the terms of
    ``F.support``.  A column is accepted when it passes ``nu_contour``'s own
    tests at the first threshold: finite values, axis clearance, every
    wrapped phase step at most pi/4 and a winding within ``_ROUND_GUARD`` of
    a nonnegative integer.  Every other cell is counted by ``nu_contour``.
    """
    re_lo, re_hi, im_lo, im_hi = window
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    R = radius_bound(F, center, 0.5 * np.hypot(re_hi - re_lo, im_hi - im_lo))
    s = np.linspace(-R, R, _ORACLE_AXIS)
    t = np.linspace(0.0, np.pi, _ORACLE_ARC)[1:]
    lam = np.concatenate([-1j * s, R * np.exp(1j * (t - np.pi / 2.0))])
    clear = _ON_SCC_TOL * np.maximum(1.0, np.abs(s) ** F.q)[:, None]
    k, j = np.array(F.support, dtype=int).reshape(-1, 2).T
    basis = lam[:, None] ** k * laplace(F.kernel, lam)[:, None] ** j
    coef = F.C[k, j]  # P_kj(L) coefficients, in the order of the basis columns
    lamq = (lam**F.q)[:, None]
    iy, ix = np.nonzero(open_mask)
    nu = np.empty(len(iy), dtype=int)
    block = max(1, _ORACLE_BLOCK // len(lam))
    for lo in range(0, len(iy), block):
        cells = slice(lo, lo + block)
        fv = lamq - basis @ _horner(coef, xs[ix[cells]] + 1j * ys[iy[cells]])
        d = _wrap(np.diff(np.angle(fv), axis=0))
        total = d.sum(axis=0) / (2.0 * np.pi)
        n = np.round(total)
        ok = np.isfinite(fv).all(axis=0) & (np.abs(fv[: len(s)]) >= clear).all(axis=0)
        ok &= (np.abs(d) <= np.pi / 4.0).all(axis=0) & (np.abs(total - n) <= _ROUND_GUARD) & (n >= 0)
        nu[cells] = np.where(ok, n, -1)
    for c in np.nonzero(nu < 0)[0]:
        nu[c] = nu_contour(F, complex(xs[ix[c]], ys[iy[c]]))
    return nu


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
    the default mode each flood-filled component is labeled by one contour
    count at its most curve-distant cell; with ``full_oracle`` every cell is
    counted independently.
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
    rank = _bfs_rank(sentinel) if sentinel.any() else np.ones((ny, nx), dtype=int)

    xs, ys = (
        re_lo + (np.arange(nx) + 0.5) * (re_hi - re_lo) / nx,
        im_lo + (np.arange(ny) + 0.5) * (im_hi - im_lo) / ny,
    )
    labels = np.full((ny, nx), -1, dtype=int)

    n_comp = comp.max() + 1
    anchor: Optional[Tuple[complex, int, str]] = None
    best_rank = -1
    for cid in range(n_comp):
        cells = np.nonzero(comp == cid)
        order = np.argsort(rank[cells])[::-1]
        nu_val = None
        for pick in order[:5]:
            iy, ix = cells[0][pick], cells[1][pick]
            try:
                nu_val = nu_contour(F, complex(xs[ix], ys[iy]))
            except OnSccError:
                continue
            break
        if nu_val is None:
            raise OnSccError(
                f"component {cid} has no cell clear of the curves; refine the resolution"
            )
        labels[cells] = nu_val
        top = int(rank[cells].max())
        if top > best_rank:
            iy, ix = cells[0][order[0]], cells[1][order[0]]
            L0 = complex(xs[ix], ys[iy])
            if F.delay_free():
                nu_poly = _nu_polynomial(F, L0)
                anchor = (L0, nu_poly, "polynomial")
            else:
                anchor = (L0, nu_val, "contour")
            best_rank = top

    if full_oracle:
        labels[open_mask] = _full_oracle(F, window, xs, ys, open_mask)

    if anchor is None:
        raise OnSccError("no labelable cell in the window; refine the resolution")
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
    re_lo, re_hi, im_lo, im_hi = numap.window
    dx, dy = (re_hi - re_lo) / nx, (im_hi - im_lo) / ny
    cell_diag = np.hypot(dx, dy)
    xs, ys = numap.cell_centers()

    out: List[StabilityComponent] = []
    comp = numap.component_ids
    for cid in np.unique(comp[comp >= 0]):
        cells = np.argwhere(comp == cid)
        iy, ix = cells[0]
        if numap.labels[iy, ix] != 0:
            continue
        clipped = bool(
            np.any(cells[:, 0] == 0)
            or np.any(cells[:, 0] == ny - 1)
            or np.any(cells[:, 1] == 0)
            or np.any(cells[:, 1] == nx - 1)
        )
        polylines = []
        for br in numap.branches:
            near = _near_cells(br.L, comp == cid, xs, ys, (re_lo, im_lo, dx, dy), 1.5 * cell_diag)
            if not near.any():
                continue
            runs = np.split(np.arange(len(near)), np.nonzero(np.diff(near))[0] + 1)
            for run in runs:
                if near[run[0]] and len(run) >= 2:
                    polylines.append(br.L[run].copy())
        out.append(StabilityComponent(cells=cells, clipped=clipped, boundary=polylines))
    return out


def _near_cells(L: np.ndarray, inside: np.ndarray, xs, ys, grid, reach: float) -> np.ndarray:
    """Whether each gain in ``L`` lies within ``reach`` of a center of an ``inside`` cell.

    Only the grid neighbourhood of each gain is searched: cells within
    ceil(reach / dx) + 1 columns and ceil(reach / dy) + 1 rows of its nearest
    cell, a superset of the cells whose centers can lie within ``reach``.
    Memory stays O(block) instead of O(nodes x cells).
    """
    re_lo, im_lo, dx, dy = grid
    ny, nx = inside.shape
    rx = int(np.ceil(reach / dx)) + 1
    ry = int(np.ceil(reach / dy)) + 1
    ox, oy = (o.ravel() for o in np.meshgrid(np.arange(-rx, rx + 1), np.arange(-ry, ry + 1)))
    cx = np.rint((L.real - re_lo) / dx - 0.5)
    cy = np.rint((L.imag - im_lo) / dy - 0.5)
    nodes = np.nonzero((cx >= -rx) & (cx < nx + rx) & (cy >= -ry) & (cy < ny + ry))[0]
    near = np.zeros(len(L), dtype=bool)
    block = max(1, 65536 // len(ox))
    for s in range(0, len(nodes), block):
        sel = nodes[s : s + block]
        ix = cx[sel, None].astype(np.intp) + ox
        iy = cy[sel, None].astype(np.intp) + oy
        ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        ix, iy = np.clip(ix, 0, nx - 1), np.clip(iy, 0, ny - 1)
        ok &= inside[iy, ix]
        d = np.abs(L[sel, None] - (xs[ix] + 1j * ys[iy]))
        near[sel] = np.any(ok & (d <= reach), axis=1)
    return near


_MAX_DOUBLINGS = 6  # beta-range doublings before coverage is given up


def trace_covering(
    F: CharFun,
    window: Tuple[float, float, float, float],
    *,
    step: float = 0.05,
    refine_frac: float = 0.02,
) -> List[SccBranch]:
    """Trace branches over a beta range wide enough to cover the window.

    The range doubles until the outermost traced gains sit far outside the
    window on both ends (or the doubling budget runs out, with a warning).
    """
    re_lo, re_hi, im_lo, im_hi = window
    outer = max(abs(complex(re, im)) for re in (re_lo, re_hi) for im in (im_lo, im_hi))
    cover = 1.5 * outer + 1.0
    b = max(4.0, 2.0 * cover)
    for _ in range(_MAX_DOUBLINGS):
        branches = trace(F, -b, b, step, window=window, refine_frac=refine_frac)
        tail = 0.1 * b
        ok = True
        for br in branches:
            for end_beta, end_L in ((br.beta[0], br.L[0]), (br.beta[-1], br.L[-1])):
                if abs(end_beta) >= b - tail and abs(end_L) <= cover:
                    ok = False
        if ok:
            return branches
        b *= 2.0
    warnings.warn(f"beta range cap reached at +-{b / 2}; window coverage not certified", stacklevel=2)
    return branches
