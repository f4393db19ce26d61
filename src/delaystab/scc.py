"""Tracing of stability crossing curves in the complex gain plane.

A crossing curve is the locus of gains L for which the characteristic
function has a root exactly on the imaginary axis; it is parameterized by
the root frequency beta through F(i beta, L(beta)) = 0.  At each frequency
the equation is polynomial in L, so tracing reduces to sweeping beta,
solving for all roots, and stitching them into branches by nearest-root
continuation.  Each node carries the curve tangent from implicit
differentiation and an unwrapped polar profile; crossing reports give the
direction in which the unstable-root count drops when stepping over the
curve.

Refinement runs level by level.  The base grid is solved in one batch: one
coefficient table ``CharFun.lpoly`` over all its frequencies, one stacked
``poly_roots`` call and one masked Newton polish.  Whether an interval is
bisected depends only on its two ends, so every open interval of a level
is decided at once with array operations (a vectorized greedy root match),
and the midpoints of the intervals that split form the next batch.  At
most ``_MAX_DEPTH`` + 1 levels run.  The accepted nodes are those of a
depth-first bisection, and the batch keeps each node's scalar arithmetic,
so the traced gains do not depend on how the nodes were grouped.

Stitching takes the whole node table at once: one greedy match of every
node's roots with the next node's (exact ties go to the lower root index
of the earlier node), array tests of the links, and pointer doubling
along the chains of matched roots.

Self-intersections of the curve start from the crossings of its chords.
All chord pairs whose bounding boxes overlap are tested at once by the
signs of four cross products, and each crossing gives the two betas
interpolated there.  Newton on those two curve parameters then solves
L(beta1) = L(beta2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import List, Optional, Tuple

import numpy as np

from .charfun import CharFun
from .eigen import _cabs, _cmul, poly_roots

__all__ = [
    "SccBranch",
    "CrossingReport",
    "IdenticallySingularError",
    "TraceResidualError",
    "trace",
    "crossing_at",
    "self_intersection",
]

_POLAR_RADIUS_FLOOR = 1e-12
_MAX_DEPTH = 12  # bisection levels below the base step
_MAX_NODES = 200_000
_RESIDUAL_TOL = 1e-9  # per node, relative to the size of F's terms (at least 1)


class IdenticallySingularError(ValueError):
    """F(i beta, L) vanishes for every L at some frequency."""


class TraceResidualError(RuntimeError):
    """A traced node failed to reach the required residual after polishing."""


@dataclass
class SccBranch:
    """One traced branch of a crossing curve.

    Arrays are indexed by node, betas ascending.  ``tangent`` holds dL/dbeta
    from the implicit formula (NaN where the L-derivative of F vanishes);
    ``theta`` is the unwrapped argument of L and ``theta_prime`` its analytic
    derivative Im(L'/L).  ``polar_ok`` is False where |L| is too small for
    polar coordinates to mean anything.
    """

    beta: np.ndarray
    L: np.ndarray
    tangent: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    tangent_ok: np.ndarray
    polar_ok: np.ndarray
    root_index: int
    charfun: Optional[CharFun] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.beta)

    def eval(self, beta: float) -> complex:
        """Curve point at an arbitrary beta inside the branch's range.

        Seeds from linear interpolation of the stored nodes, then polishes
        with Newton on the gain polynomial of the attached characteristic
        function; a branch without one raises ValueError.
        """
        b = float(beta)
        if self.charfun is None:
            raise ValueError("branch has no characteristic function to evaluate")
        if not (self.beta[0] <= b <= self.beta[-1]):
            raise ValueError(f"beta={b} outside branch range [{self.beta[0]}, {self.beta[-1]}]")
        seed = complex(np.interp(b, self.beta, self.L.real) + 1j * np.interp(b, self.beta, self.L.imag))
        return _newton_polish(self.charfun.lpoly(np.array([1j * b])), np.array([[seed]]))[0, 0]

    def tangent_at(self, beta: float) -> complex:
        """Implicit-formula tangent at an arbitrary beta inside the branch's range."""
        L = self.eval(beta)
        dl = self.charfun.d_lambda(1j * beta, L)
        dL = self.charfun.d_L(1j * beta, L)
        if dL == 0.0:
            return complex(np.nan, np.nan)
        return -1j * dl / dL


@dataclass
class CrossingReport:
    """Local crossing data at one point of a branch.

    ``normal`` points to the side on which the unstable-root count is lower
    by one (jump_normal is always -1 across the normal).  ``jump_ray`` is
    the count change when stepping radially outward from the origin: the
    sign of theta', or 0 when that derivative is degenerate.  ``flag`` is
    None for a regular crossing.
    """

    beta_star: float
    L_star: complex
    normal: complex
    jump_normal: Optional[int]
    theta_prime: float
    jump_ray: int
    flag: Optional[str] = None


def _newton_polish(coeffs: np.ndarray, L0: np.ndarray) -> np.ndarray:
    """At most 12 Newton steps from each seed of ``L0`` (m, n) on its row's gain polynomial.

    ``coeffs`` (m, D) holds each row's ascending coefficients.  Every seed
    stops on its own tests; NaN seeds are left as they are.
    """
    dcoeffs = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    L = L0.copy()
    row, col = np.nonzero(~np.isnan(L))
    for _ in range(12):
        x = L[row, col]
        g = _horner(coeffs[row], x)
        gp = _horner(dcoeffs[row], x)
        go = ~(_cabs(g) <= 1e-13 * np.fmax(1.0, _cabs(x))) & (gp != 0.0)
        row, col = row[go], col[go]
        if not row.size:
            break
        L[row, col] = x[go] - g[go] / gp[go]
    return L


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_d coeffs[i, d] x[i]^d for each i."""
    acc = np.zeros(x.shape, dtype=complex)
    for d in range(coeffs.shape[-1] - 1, -1, -1):
        acc = _cmul(acc, x) + coeffs[..., d]
    return acc


def _solve_nodes(F: CharFun, betas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Polished gain roots at every beta: an (m, D - 1) array, NaN past each node's count, and the counts."""
    coeffs = F.lpoly(1j * betas)
    scale = np.max(np.abs(coeffs), axis=1)
    singular = (scale == 0.0) | ~np.isfinite(scale)
    if singular.any():
        beta = betas[np.argmax(singular)]
        raise IdenticallySingularError(f"characteristic function vanishes identically in L at beta={beta}")
    roots = poly_roots(coeffs)
    return _newton_polish(coeffs, roots), np.sum(~np.isnan(roots), axis=1)


def _greedy_match_rows(p: np.ndarray, q: np.ndarray, kp: np.ndarray, kq: np.ndarray):
    """Greedy minimal-distance matching of p[r, :kp[r]] with q[r, :kq[r]] for every row r at once.

    Returns the index arrays I, J and distances D, each (m, n): column s of
    row r is the s-th pair the greedy picks, valid for s < min(kp[r], kq[r]).
    Each pick is the flat row-major argmin of the distance table with used
    rows and columns masked, so exact ties go to the lowest p index, then
    the lowest q index.
    """
    m, n = p.shape
    cols = np.arange(n)
    dist = np.where((cols < kp[:, None])[:, :, None] & (cols < kq[:, None])[:, None, :],
                    _cabs(p[:, :, None] - q[:, None, :]), np.inf)
    I, J, D = (np.zeros((m, n), dtype=t) for t in (int, int, float))
    rows = np.arange(m)
    for s in range(n):
        I[:, s], J[:, s] = np.divmod(np.argmin(dist.reshape(m, n * n), axis=1), n)
        D[:, s] = dist[rows, I[:, s], J[:, s]]
        dist[rows, I[:, s], :] = np.inf
        dist[rows, :, J[:, s]] = np.inf
    return I, J, D


def _needs_split(width, r0, k0, r1, k1, *, min_step, far_cutoff, refine_tol) -> np.ndarray:
    """Which intervals to bisect, from their widths and the roots (and counts) at both ends.

    An interval splits when it is wider than ``min_step`` and its ends have
    different root counts, or, unless every root is beyond ``far_cutoff``,
    when a greedily matched root pair moves more than ``refine_tol`` or turns
    by more than a right angle about the origin.
    """
    n = r0.shape[1]
    inside = np.arange(n) < k0[:, None]
    nearest = np.minimum(np.where(inside, np.abs(r0), np.inf).min(axis=1, initial=np.inf),
                         np.where(inside, np.abs(r1), np.inf).min(axis=1, initial=np.inf))
    check = np.flatnonzero((k0 == k1) & (k0 > 0) & ~(nearest > far_cutoff))
    I, J, D = _greedy_match_rows(r0[check], r1[check], k0[check], k0[check])
    a = np.take_along_axis(r0[check], I, axis=1)
    b = np.take_along_axis(r1[check], J, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        turn = (_cabs(a) > _POLAR_RADIUS_FLOOR) & (_cabs(b) > _POLAR_RADIUS_FLOOR) & (np.abs(np.angle(b / a)) > np.pi / 2)
    moved = ((D > refine_tol) | turn) & (np.arange(n) < k0[check, None])
    split = k0 != k1
    split[check] = moved.any(axis=1)
    return split & (width > min_step)


def _stitch(B: np.ndarray, R: np.ndarray, K: np.ndarray, *, far_cutoff: float, refine_tol: float) -> List[dict]:
    """Join the roots of the beta-sorted nodes (B, R, K) into the raw branches of two or more nodes.

    The roots of each node are greedily matched with those of the next.  A
    link is rejected when it moves more than ten times the branch's previous
    step (at least 0.1 ``refine_tol``; ``refine_tol`` after a start), or
    when it is a far-field jump comparable to |L| itself: a pass through
    infinity (a pole of the curve), across which chords would cut through
    the window.  A root with no accepted incoming link starts a branch, and
    branches are numbered in (node, root) order of their starts, which is
    also the order of their first betas.
    """
    m, n = R.shape
    I, J, D = _greedy_match_rows(R[:-1], R[1:], K[:-1], K[1:])
    t, s = np.nonzero(np.arange(n) < np.minimum(K[:-1], K[1:])[:, None])
    src, dst, d = t * n + I[t, s], (t + 1) * n + J[t, s], D[t, s]  # links between flat root indices
    flat = R.ravel()
    lo_mag = np.minimum(_cabs(flat[src]), _cabs(flat[dst]))
    near = ~((lo_mag > far_cutoff) & (d > 0.5 * lo_mag))

    # A link is accepted by f(x) = x ? g1 : g0, where x tells whether the link
    # into its first root was accepted.  Compose the f along each chain of links
    # by pointer doubling: (g0, g1) becomes the composition from the chain's
    # start, whose x is False.
    into = np.full(m * n, -1)
    into[dst] = np.arange(d.size)
    up = into[src]
    motion = np.where(up >= 0, d[up], refine_tol)
    g0 = near & ~(d > 10.0 * max(refine_tol, refine_tol * 0.1))
    g1 = near & ~(d > 10.0 * np.maximum(motion, refine_tol * 0.1))
    live = np.flatnonzero(up >= 0)
    while live.size:
        p = up[live]
        g0[live], g1[live] = np.where(g0[p], g1[live], g0[live]), np.where(g1[p], g1[live], g0[live])
        up[live] = up[p]
        live = live[up[live] >= 0]

    # each root points back along its accepted link; jumping finds its start
    head = np.arange(m * n)
    head[dst[g0]] = src[g0]
    while not np.array_equal(head[head], head):
        head = head[head]
    valid = (np.arange(n) < K[:, None]).ravel()
    slot = np.cumsum(valid & (head == np.arange(m * n))) - 1
    roots = np.flatnonzero(valid)
    branch = slot[head[roots]]
    roots = roots[np.argsort(branch, kind="stable")]
    cut = np.cumsum(np.bincount(branch))[:-1]
    return [{"beta": b, "L": L, "slot": k}
            for k, (b, L) in enumerate(zip(np.split(B[roots // n], cut), np.split(flat[roots], cut))) if len(b) >= 2]


def trace(
    F: CharFun,
    beta_lo: float,
    beta_hi: float,
    step: float,
    *,
    window: Optional[Tuple[float, float, float, float]] = None,
    refine_frac: float = 0.02,
) -> List["SccBranch"]:
    """Trace all crossing-curve branches for beta in [beta_lo, beta_hi].

    The base grid has spacing ``step``; intervals where the curve moves more
    than ``refine_frac`` of the window diagonal (or turns by more than a
    right angle) are bisected down to ``step / 2**12``, one level at a time
    with all of a level's new frequencies solved in one batch.  Refinement is
    suppressed where every root is far outside the window, so off-window
    excursions stay cheap.  Frequencies where the gain polynomial degenerates
    to a nonzero constant contribute no nodes and split branches there.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if beta_hi <= beta_lo:
        raise ValueError("empty beta range")

    n_base = max(np.ceil((beta_hi - beta_lo) / step) + 1, 2)  # a float: inf when (hi - lo) / step overflows
    if n_base > _MAX_NODES:  # the first level keeps every base node; check before allocating them
        raise RuntimeError(f"trace exceeded {_MAX_NODES} nodes; increase step or reduce range")
    n_base = int(n_base)
    B = np.linspace(beta_lo, beta_hi, n_base)  # node frequencies; roots R, NaN past each count K
    R, K = _solve_nodes(F, B)

    if window is not None:
        re_lo, re_hi, im_lo, im_hi = window
        diag = float(np.hypot(re_hi - re_lo, im_hi - im_lo))
        center = complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
        far_cutoff = abs(center) + 2.0 * diag
    else:
        every = max(1, n_base // 32)
        sample = R[::every][np.arange(R.shape[1]) < K[::every, None]]
        finite = sample[np.isfinite(sample)]
        if finite.size:
            span = np.ptp(finite.real) + 1j * np.ptp(finite.imag)
            diag = max(float(abs(span)), 1.0)
            far_cutoff = float(np.max(np.abs(finite))) + 2.0 * diag
        else:
            diag, far_cutoff = 1.0, 10.0
    refine_tol = refine_frac * diag
    min_step = step / 2.0**_MAX_DEPTH

    # Refine level by level: whether an interval splits depends on its two
    # ends only, so every open interval of a level is decided at once and
    # the midpoints of those that split are solved in one batch.
    lo, hi = np.arange(n_base - 1), np.arange(1, n_base)
    kept = [np.zeros(1, dtype=int)]  # node indices; B[0] closes no interval
    n_kept = 1
    while lo.size:
        if n_kept + lo.size > _MAX_NODES:  # each open interval still adds at least one node
            raise RuntimeError(f"trace exceeded {_MAX_NODES} nodes; increase step or reduce range")
        split = _needs_split(B[hi] - B[lo], R[lo], K[lo], R[hi], K[hi],
                             min_step=min_step, far_cutoff=far_cutoff, refine_tol=refine_tol)
        kept.append(hi[~split])
        n_kept += kept[-1].size
        lo, hi = lo[split], hi[split]
        if not lo.size:
            break
        mid = 0.5 * (B[lo] + B[hi])
        R_mid, K_mid = _solve_nodes(F, mid)
        m = np.arange(B.size, B.size + mid.size)
        B, R, K = np.concatenate([B, mid]), np.concatenate([R, R_mid]), np.concatenate([K, K_mid])
        lo, hi = np.concatenate([lo, m]), np.concatenate([m, hi])

    nodes = np.concatenate(kept)
    nodes = nodes[np.argsort(B[nodes], kind="stable")]
    raw = _stitch(B[nodes], R[nodes], K[nodes], far_cutoff=far_cutoff, refine_tol=refine_tol)
    return [_finalize_branch(F, br) for br in raw]


def _finalize_branch(F: CharFun, raw: dict) -> SccBranch:
    beta = np.asarray(raw["beta"], dtype=float)
    L = np.asarray(raw["L"], dtype=complex)
    lam = 1j * beta
    residual = np.abs(F.eval(lam, L))
    if np.max(residual) > _RESIDUAL_TOL:
        # large |L| makes large terms: judge the residual against their size
        worst = float(np.max(residual / np.maximum(1.0, F.term_size(lam, L))))
        if worst > _RESIDUAL_TOL:
            raise TraceResidualError(f"branch residual {worst:.3e} of the term size exceeds {_RESIDUAL_TOL:.1e}")
    dl = F.d_lambda(lam, L)
    dL = F.d_L(lam, L)
    tangent_ok = dL != 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        tangent = np.where(tangent_ok, -1j * dl / np.where(tangent_ok, dL, 1.0), np.nan + 1j * np.nan)
    r = np.abs(L)
    polar_ok = r > _POLAR_RADIUS_FLOOR
    theta = np.unwrap(np.angle(L))
    with np.errstate(invalid="ignore", divide="ignore"):
        theta_prime = np.where(polar_ok & tangent_ok, np.imag(tangent / np.where(polar_ok, L, 1.0)), np.nan)
    return SccBranch(
        beta=beta,
        L=L,
        tangent=tangent,
        r=r,
        theta=theta,
        theta_prime=theta_prime,
        tangent_ok=tangent_ok,
        polar_ok=polar_ok,
        root_index=raw["slot"],
        charfun=F,
    )


def crossing_at(F: CharFun, branch: SccBranch, beta_star: float) -> CrossingReport:
    """Crossing-direction report at one branch point.

    Requires a nonzero lam-derivative of F (otherwise no single root crosses
    smoothly and the report is flagged degenerate with no jump claimed).
    """
    L_star = branch.eval(beta_star)
    lam = 1j * beta_star
    dl = F.d_lambda(lam, L_star)
    dL = F.d_L(lam, L_star)
    scale = max(1.0, abs(L_star))
    if abs(dl) <= 1e-12 * scale:
        return CrossingReport(beta_star, L_star, complex(np.nan), None, float("nan"), 0,
                              flag="regular-crossing hypothesis fails")
    if abs(dL) == 0.0:
        return CrossingReport(beta_star, L_star, complex(np.nan), None, float("nan"), 0,
                              flag="tangent undefined")
    Lp = -1j * dl / dL
    normal = 1j * Lp
    if abs(L_star) <= _POLAR_RADIUS_FLOOR:
        return CrossingReport(beta_star, L_star, normal, -1, float("nan"), 0, flag="polar undefined")
    tp = float(np.imag(Lp / L_star))
    # a vanishing angular rate (to rounding) means the ray grazes the curve:
    # no jump direction may be claimed
    if abs(tp) <= 1e-12 * max(1.0, abs(Lp / L_star)):
        return CrossingReport(beta_star, L_star, normal, -1, tp, 0, flag="ray degenerate")
    return CrossingReport(beta_star, L_star, normal, -1, tp, int(np.sign(tp)))


def _cross(a, b):
    """Im(conj(a) b): the 2-D cross product of complex numbers (elementwise on arrays)."""
    return a.real * b.imag - a.imag * b.real


def _boxes(L: np.ndarray):
    """Bounding boxes (re_lo, re_hi, im_lo, im_hi) of the chords between consecutive points of L."""
    p0, p1 = L[:-1], L[1:]
    return [f(x(p0), x(p1)) for x in (np.real, np.imag) for f in (np.minimum, np.maximum)]


def _chord_crossings(bA: SccBranch, bB: SccBranch, same: bool):
    """Where a chord of bA crosses one of bB: the interpolated betas (beta1, beta2) and gains (L1, L2).

    Chords p0 p1 and q0 q1 cross where each has its ends on different sides
    of the other, at p0 + s (p1 - p0) = q0 + t (q1 - q0).  Boxes are matched
    512 chords of bA at a time; on one branch (``same``) a chord is paired
    only with the chords after its neighbour.
    """
    (alr, ahr, ali, ahi), (blr, bhr, bli, bhi) = _boxes(bA.L), _boxes(bB.L)
    pairs = [np.argwhere((alr[s0:s0 + 512, None] <= bhr) & (ahr[s0:s0 + 512, None] >= blr)
                         & (ali[s0:s0 + 512, None] <= bhi) & (ahi[s0:s0 + 512, None] >= bli)) + [s0, 0]
             for s0 in range(0, len(alr), 512)]
    i, j = np.concatenate(pairs).T
    if same:
        i, j = i[j > i + 1], j[j > i + 1]
    p0, p1, q0, q1 = bA.L[i], bA.L[i + 1], bB.L[j], bB.L[j + 1]
    d1, d2 = _cross(q1 - q0, p0 - q0), _cross(q1 - q0, p1 - q0)  # sides of p0, p1 of chord j
    d3, d4 = _cross(p1 - p0, q0 - p0), _cross(p1 - p0, q1 - p0)  # sides of q0, q1 of chord i
    hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    i, j, p0, p1, q0, q1, d1, d2, d3, d4 = (x[hit] for x in (i, j, p0, p1, q0, q1, d1, d2, d3, d4))
    s, t = d1 / (d1 - d2), d3 / (d3 - d4)
    return (bA.beta[i] + s * (bA.beta[i + 1] - bA.beta[i]), bB.beta[j] + t * (bB.beta[j + 1] - bB.beta[j]),
            p0 + s * (p1 - p0), q0 + t * (q1 - q0))


def self_intersection(branches, tol: float = 1e-9) -> List[Tuple[float, float, complex]]:
    """Points where the curve revisits a gain: L(beta1) = L(beta2), beta1 < beta2.

    Accepts one branch or a list; hits within and across branches are
    kept when their two curve points agree to max(1e-6, ``tol``).  A branch
    without a characteristic function gives the chord crossing itself.
    """
    branches = [branches] if isinstance(branches, SccBranch) else branches
    found = []
    for ai, bi in combinations_with_replacement(range(len(branches)), 2):
        bA, bB = branches[ai], branches[bi]
        for b1, b2, l1, l2 in zip(*(x.tolist() for x in _chord_crossings(bA, bB, same=(ai == bi)))):
            if bA.charfun is not None and bB.charfun is not None:
                b1, b2 = _newton_pair(bA, b1, bB, b2) or (b1, b2)
                l1, l2 = bA.eval(b1), bB.eval(b2)
            if bA is bB:
                b1, b2 = min(b1, b2), max(b1, b2)
            if abs(l1 - l2) <= max(1e-6, tol) and not (bA is bB and b2 - b1 < 1e-9):
                found.append((b1, b2, 0.5 * (l1 + l2)))
    out: List[Tuple[float, float, complex]] = []  # near-identical parameter pairs are kept once
    for hit in sorted(found, key=lambda h: h[:2]):
        if not any(abs(hit[0] - c[0]) < 1e-6 and abs(hit[1] - c[1]) < 1e-6 for c in out):
            out.append(hit)
    return out


def _newton_pair(bA: SccBranch, beta1: float, bB: SccBranch, beta2: float):
    """Newton on L_A(beta1) = L_B(beta2), each beta clipped to its branch's range.

    A step solves t1 d1 - t2 d2 = L_B - L_A for real d1, d2, with t1, t2 the
    tangents, by crossing it with t2 and with t1.  None when a tangent is
    undefined or the two are parallel.
    """
    for _ in range(40):
        L1, L2 = bA.eval(beta1), bB.eval(beta2)
        g = L1 - L2
        if abs(g) < 1e-12 * max(1.0, abs(L1)):
            return beta1, beta2
        t1, t2 = bA.tangent_at(beta1), bB.tangent_at(beta2)
        if not (np.isfinite(t1) and np.isfinite(t2)):
            return None
        det = _cross(t1, t2)
        if abs(det) < 1e-14:
            return None
        beta1 = float(np.clip(beta1 + _cross(t2, g) / det, bA.beta[0], bA.beta[-1]))
        beta2 = float(np.clip(beta2 + _cross(t1, g) / det, bB.beta[0], bB.beta[-1]))
    return beta1, beta2
