"""Time-domain integration of the delay systems and rate estimation.

Every run steps with one classical RK4 step of fixed size, ``_rk4_step``.
The driver ``_rk4`` takes it over a batch along axis 0 of the state, a
single run being a batch of one of the sweep that shares its right-hand
side; the oscillator population takes it in its own loop
(``_kuramoto_run``).  A batched run with any state component non-finite or
above the blow-up threshold freezes at its last state and is flagged, and
the rest of the batch goes on unchanged.  Discrete delays use the method
of steps with cubic Hermite interpolation of the stored nodes
(Bellen & Zennaro, *Numerical Methods for Delay Differential Equations*,
2003), Gamma delays the linear chain realization, and the oscillator
population a window of delayed phase exponentials gathered once per step.
The population's working set is that window, one N x N table of int64
offsets into it and one block of gathered rows (``_GATHER_BYTES``): the
pairwise delays are sampled into the table's buffer and rounded to steps
there, and the field is gathered and summed a block of rows at a time.
A constant delay needs no table: every oscillator reads one window row.
A right-hand side f returns a new array, which the step combines with the
other stages in place.  Batches of runs with several state components
(the Gamma chain and car-following) are column-major, so every operation
of their right-hand side runs over contiguous columns of the batch.

The agent ensembles (``mas_ensemble``) take the same RK4 map in another
basis.  The agents' field (``_mas_field``) is linear and every block of its
matrix but the coupling J is a multiple of the identity, so with
J = V diag(mu) V^-1 one RK4 step acts mode by mode: a mode's step matrix is
``_rk4_step`` of the same field, with J replaced by mu, on the unit states.
With each step matrix diagonalized in turn, the state at any step is a sum
of powers of its eigenvalues, so no step is taken: the (x, v) norm has a
closed-form bound over the verdict window and a closed form at its last
step, and a run is decided when these clear the threshold by a factor of
2.  The rest, and matrices whose eigenvector basis is ill-conditioned (a
defective J, such as the leader chain's), run on the direct integrator.

Convergence or divergence of a trajectory is summarized by the slope of
log-norm over the trailing window, the practical stand-in for the
asymptotic exponential rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

import numpy as np

from .kernels import Dirac, Gamma
from .networks import Chain, NetworkSpec, Ring

__all__ = [
    "ConstantHistory",
    "UniformHistory",
    "SimConfig",
    "Trajectory",
    "RateEstimate",
    "MasResult",
    "KuramotoResult",
    "simulate_scalar_discrete",
    "scalar_discrete_rate_grid",
    "simulate_scalar_gamma",
    "scalar_gamma_rate_grid",
    "simulate_carfollowing",
    "carfollowing_rate_grid",
    "simulate_mas",
    "mas_ensemble",
    "simulate_kuramoto",
    "simulate_oa",
    "estimate_rate",
]


@dataclass(frozen=True)
class ConstantHistory:
    value: complex = 0.1 + 0.0j


@dataclass(frozen=True)
class UniformHistory:
    seed: int = 0
    amplitude: float = 1.0


HistorySpec = Union[ConstantHistory, UniformHistory]


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    horizon: float = 50.0
    history: Optional[HistorySpec] = None
    rate_window_fraction: float = 0.5
    rate_tol: float = 0.01

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):  # NaN fails too
            raise ValueError(f"dt and horizon must be positive and finite, got dt={self.dt}, horizon={self.horizon}")
        if not (0.0 < self.rate_window_fraction < 1.0):
            raise ValueError("rate_window_fraction must lie in (0, 1)")
        if not (0.0 <= self.rate_tol < math.inf):  # NaN fails too
            raise ValueError(f"rate_tol must be nonnegative and finite, got {self.rate_tol}")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (nt, dims)
    blowup: Optional[float] = None  # first time the guard tripped, if any


@dataclass
class RateEstimate:
    rate: float
    r_squared: float
    verdict: str  # "converging" | "diverging" | "inconclusive"
    note: Optional[str] = None


@dataclass
class MasResult:
    stabilized: bool
    trajectory: Trajectory


@dataclass
class KuramotoResult:
    times: np.ndarray
    r: np.ndarray  # complex order parameter per node time
    phase_times: np.ndarray
    phases: np.ndarray  # (n_snapshots, N) raw phases
    truncated_fraction: float
    resampled_delays: int


_BLOWUP = 1e12  # a run with a state component above this (or non-finite) freezes


def _history_values(history: Optional[HistorySpec], default: HistorySpec, shape, dtype):
    h = history if history is not None else default
    if isinstance(h, ConstantHistory):
        value = complex(h.value).real if dtype == float else h.value
        return np.full(shape, value, dtype=dtype)
    if isinstance(h, UniformHistory):
        rng = np.random.default_rng(h.seed)
        return h.amplitude * rng.uniform(-1.0, 1.0, size=shape).astype(dtype)
    raise TypeError(f"not a history spec: {h!r}")


def _n_steps(horizon: float, dt: float) -> int:
    return int(math.ceil(horizon / dt - 1e-9))


def _delay_steps(tau: float, dt_req: float) -> Tuple[float, int]:
    """Largest dt <= requested that divides the delay; returns (dt, m)."""
    if not (0 < tau < math.inf):  # NaN fails too
        raise ValueError(f"delay must be positive and finite, got {tau}")
    m = max(int(math.ceil(tau / dt_req - 1e-9)), 1)
    return tau / m, m


_NO_LAG = ((), lambda k1: (), ())


def _rk4_step(f, t, y, dt, lag=_NO_LAG):
    """One classical RK4 step of y' = f(t, y, *z) from time t.

    ``lag = (z0, mid, z1)`` holds the delayed arguments z at the start and
    the end of the step, and ``mid(k1)`` gives them at its middle once the
    first stage is known.  The default passes none: an ODE field f(t, y).

    f returns a new array shaped like y, which the step may overwrite: the
    stages are combined in place, in the order of y + (dt/6)(k1 + 2 k2 +
    2 k3 + k4), so the result is that expression's bit for bit.  The step
    writes into no array the caller holds, y and the delayed z included.
    """
    z0, mid, z1 = lag
    k1 = f(t, y, *z0)
    zm = mid(k1)
    arg = dt / 2 * k1
    arg += y
    k2 = f(t + dt / 2, arg, *zm)
    arg = dt / 2 * k2
    arg += y
    k3 = f(t + dt / 2, arg, *zm)
    arg = dt * k3
    arg += y
    k4 = f(t + dt, arg, *z1)
    acc = 2 * k2
    acc += k1
    k3 *= 2
    acc += k3
    acc += k4
    acc *= dt / 6
    acc += y
    return acc


def _rk4(f, y0, dt, n_steps, blowup, observe, delay=None, switch=None, keep_from=0):
    """Fixed-step RK4 on a batch of runs, one per entry along axis 0 of ``y0``.

    Integrates y' = f(t, y), or, given ``delay`` in steps, y' = f(t, y, z)
    with z = y(t - delay * dt) by the method of steps: z at a half step is
    the cubic Hermite interpolant of the stored nodes, and the history
    before t = 0 stays frozen at y0.  ``switch = (t_on, f_on)`` integrates
    with f_on from the first step starting at or after t_on: the field
    changes at a step boundary, so RK4 keeps its order, and an off-grid t_on
    snaps to the next step.  The Hermite interpolant on the interval ending
    at the switch node uses the old field's derivative there.

    A column whose state has any component non-finite or above ``blowup``
    freezes at its last state.  Returns ``(obs, blow)``: ``obs[0]`` is
    ``observe(y)`` at step 0 and the next rows those at steps
    max(keep_from, 1)..n_steps (every step by default), and ``blow[j]`` is
    the step at which column j blew up, -1 if it did not.  Once every column
    has blown up the run stops and the remaining rows repeat the last
    observation.
    """
    k_on = -1
    if switch is not None:
        t_on, f_on = switch
        k_on = max(0, math.ceil(t_on / dt - 1e-9))
    y = np.asarray(y0)
    B = len(y)
    col = (B,) + (1,) * (y.ndim - 1)
    alive = np.ones(B, dtype=bool)
    blow = np.full(B, -1)
    first = np.asarray(observe(y))
    skip = max(keep_from - 1, 0)  # steps 1..skip are not stored
    obs = np.empty((n_steps + 1 - skip,) + first.shape, dtype=first.dtype)
    obs[0] = first
    lag = _NO_LAG
    if delay is not None:
        # ring over the nodes k - delay .. k + 1 of step k: node j in row j mod R
        R = delay + 2
        Y = np.empty((R,) + y.shape, dtype=y.dtype)
        Y[:] = y
        D = np.empty_like(Y)
        d_left = None
    for k in range(n_steps):
        t = k * dt
        if delay is not None:
            i, i1 = (k - delay) % R, (k - delay + 1) % R

            def mid(k1):
                D[k % R] = k1
                if k < delay:  # the interval lies in the frozen history
                    return (Y[i],)
                d1 = d_left if k - delay + 1 == k_on else D[i1]
                return (0.5 * (Y[i] + Y[i1]) + 0.125 * dt * (D[i] - d1),)

            lag = (Y[i],), mid, (Y[i1],)
            if k == k_on:
                d_left = f(t, y, Y[i])
        if k == k_on:
            f = f_on
        yn = _rk4_step(f, t, y, dt, lag)
        within = np.abs(yn) <= blowup  # False also where non-finite
        if not within.all():
            ok = within.reshape(B, -1).all(axis=1)
            blow[alive & ~ok] = k + 1
            alive &= ok
        y = yn if alive.all() else np.where(alive.reshape(col), yn, y)
        if delay is not None:
            Y[(k + 1) % R] = y
        row = k + 1 - skip
        if row >= 1:
            obs[row] = observe(y)
        if not alive.any():
            obs[max(row, 1) :] = observe(y)
            break
    return obs, blow


def _trajectory(dt: float, states: np.ndarray, blow: int) -> Trajectory:
    """Trajectory of one run, cut after its last finite step if it blew up."""
    if blow >= 0:
        states = states[:blow]
    times = np.arange(len(states)) * dt
    return Trajectory(times=times, states=states, blowup=float(blow * dt) if blow >= 0 else None)


def _rate_start(n_steps: int, frac: float) -> int:
    """First step of the rate window, the trailing ``frac`` of steps 0..n_steps."""
    return int(math.floor((1.0 - frac) * n_steps))


def _grid_start(dt: float, cfg: SimConfig) -> int:
    """First step of a rate grid's fit window; the grid's runs store step 0 and the steps from here."""
    return _rate_start(_n_steps(cfg.horizon, dt), cfg.rate_window_fraction)


def _grid_rates(dt: float, norms: np.ndarray, blow: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Rates of a batch whose observations are step 0 and then the rate window's steps."""
    start = _grid_start(dt, cfg)
    w = norms[min(start, 1) :]
    rates = _fit_rates(np.arange(start, start + len(w)) * dt, w)[0]
    rates[blow >= 0] = np.inf
    return rates


def _scalar_discrete_rk4(a, d, Ls, tau, cfg: SimConfig, observe, rate_window=False):
    """zdot = (a + i d) z + L z(t - tau), one complex scalar run per gain."""
    Ls = np.asarray(Ls, dtype=complex).ravel()
    dt, m = _delay_steps(tau, cfg.dt)
    z0 = _history_values(cfg.history, ConstantHistory(), Ls.shape, complex)
    ad = complex(a, d)

    def rhs(t, z, zd):
        return ad * z + Ls * zd

    obs, blow = _rk4(rhs, z0, dt, _n_steps(cfg.horizon, dt), _BLOWUP, observe, delay=m,
                     keep_from=_grid_start(dt, cfg) if rate_window else 0)
    return dt, obs, blow


def simulate_scalar_discrete(a: float, d: float, L: complex, tau: float, cfg: SimConfig) -> Trajectory:
    """zdot = (a + i d) z + L z(t - tau), complex scalar state."""
    dt, states, blow = _scalar_discrete_rk4(a, d, [L], tau, cfg, lambda z: z)
    return _trajectory(dt, states, blow[0])


def scalar_discrete_rate_grid(a: float, d: float, Ls, tau: float, cfg: SimConfig) -> np.ndarray:
    """Exponential rates of the discrete-delay scalar system over a batch of gains."""
    dt, norms, blow = _scalar_discrete_rk4(a, d, Ls, tau, cfg, np.abs, rate_window=True)
    return _grid_rates(dt, norms, blow, cfg)


def _scalar_gamma_rk4(a, Ls, kernel: Gamma, cfg: SimConfig, observe, rate_window=False):
    """zdot = a z + L * (Gamma-delayed z) per gain; state columns z, y1..yn of the chain."""
    n = kernel.n
    rate = n / kernel.T
    Ls = np.asarray(Ls, dtype=complex).ravel()
    z0 = _history_values(cfg.history, ConstantHistory(), Ls.shape, complex)

    def rhs(t, y):
        dy = np.empty_like(y)
        dy[:, 0] = a * y[:, 0] + Ls * y[:, n]
        dy[:, 1:] = rate * (y[:, :-1] - y[:, 1:])
        return dy

    # column-major, so each chain stage of the batch is contiguous for the rhs
    y0 = np.asfortranarray(np.repeat(z0[:, None], n + 1, axis=1))
    return _rk4(rhs, y0, cfg.dt, _n_steps(cfg.horizon, cfg.dt), _BLOWUP, observe,
                keep_from=_grid_start(cfg.dt, cfg) if rate_window else 0)


def simulate_scalar_gamma(a: float, L: complex, kernel: Gamma, cfg: SimConfig) -> Trajectory:
    """zdot = a z + L * (Gamma-delayed z), via the chain realization.

    The returned trajectory contains the physical state z only; the chain
    stages are internal.
    """
    states, blow = _scalar_gamma_rk4(a, [L], kernel, cfg, lambda y: y[:, 0])
    return _trajectory(cfg.dt, states, blow[0])


def scalar_gamma_rate_grid(a: float, Ls, kernel: Gamma, cfg: SimConfig) -> np.ndarray:
    """Exponential rates of the Gamma-delay scalar system over a batch of gains."""
    norms, blow = _scalar_gamma_rk4(a, Ls, kernel, cfg, lambda y: np.abs(y[:, 0]), rate_window=True)
    return _grid_rates(cfg.dt, norms, blow, cfg)


def _carfollowing_rk4(n: int, N: int, alpha, rate, chain: bool, cfg: SimConfig, observe, rate_window=False):
    """N vehicles on a ring, or on a chain whose leader is uncoupled; one run
    per row of the gain ``alpha`` and of ``rate`` = n/T, both (C, 1).

    State row: the N velocities, then the n chain stages of the filtered
    neighbor differences, N values each.  The state is column-major, so each
    of its columns is one contiguous run of the batch for the rhs.
    """
    C = len(alpha)
    alphas = np.asfortranarray(np.repeat(alpha, N, axis=1))
    if chain:
        alphas[:, 0] = 0.0
    x0 = _history_values(cfg.history, UniformHistory(), (N,), float)
    y0 = np.asfortranarray(np.tile(np.concatenate([x0] + [np.roll(x0, -1) - x0] * n), (C, 1)))

    def rhs(t, y):
        x = y[:, :N]
        st = y[:, N:].reshape(C, n, N)
        dy = np.empty_like(y)
        np.multiply(alphas, st[:, -1], out=dy[:, :N])
        ds = dy[:, N:].reshape(C, n, N)
        gap = ds[:, 0]  # x[i + 1] - x[i], closing the ring at the end
        np.subtract(x[:, 1:], x[:, :-1], out=gap[:, :-1])
        np.subtract(x[:, :1], x[:, -1:], out=gap[:, -1:])
        gap -= st[:, 0]
        gap *= rate
        if n > 1:
            np.subtract(st[:, :-1], st[:, 1:], out=ds[:, 1:])
            ds[:, 1:] *= rate[:, :, None]
        return dy

    return _rk4(rhs, y0, cfg.dt, _n_steps(cfg.horizon, cfg.dt), _BLOWUP, observe,
                keep_from=_grid_start(cfg.dt, cfg) if rate_window else 0)


def _spread(x: np.ndarray) -> np.ndarray:
    """Widest pairwise velocity gap per run."""
    return x.max(axis=1) - x.min(axis=1)


def simulate_carfollowing(
    net: NetworkSpec, kernel: Gamma, cfg: SimConfig
) -> Tuple[Trajectory, RateEstimate]:
    """Velocity-matching vehicles with a Gamma-filtered neighbor difference.

    Returns the velocity trajectory and the exponential rate of the widest
    pairwise velocity gap (the consensus rate).
    """
    if not isinstance(net, (Ring, Chain)):
        raise ValueError("car-following supports ring and chain networks")
    xs, blow = _carfollowing_rk4(kernel.n, net.N, np.array([[net.alpha]]), np.array([[kernel.n / kernel.T]]),
                                 isinstance(net, Chain), cfg, lambda y: y[0, : net.N])
    traj = _trajectory(cfg.dt, xs, blow[0])
    gap = _spread(traj.states)
    if gap[0] < 1e-12 and (traj.blowup is None and np.all(gap < 1e-9)):
        est = RateEstimate(0.0, 1.0, "inconclusive", note="already_consensus")
    else:
        est = estimate_rate(Trajectory(traj.times, gap[:, None], traj.blowup), cfg)
    return traj, est


def carfollowing_rate_grid(n: int, N: int, alphas: np.ndarray, Ts: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Consensus rates of the ring over an (alpha, T) grid, integrated as one batch.

    Returns an array of shape (len(alphas), len(Ts)); +inf marks blow-up.
    """
    alphas = np.asarray(alphas, dtype=float)
    Ts = np.asarray(Ts, dtype=float)
    A, Tv = np.meshgrid(alphas, Ts, indexing="ij")
    gaps, blow = _carfollowing_rk4(n, N, A.reshape(-1, 1), n / Tv.reshape(-1, 1), False, cfg,
                                   lambda y: _spread(y[:, :N]), rate_window=True)
    return _grid_rates(cfg.dt, gaps, blow, cfg).reshape(len(alphas), len(Ts))


def _mas_initial(cfg: SimConfig, S: int, N: int) -> np.ndarray:
    """Initial positions and velocities of S runs of N agents, shape (2, S, N)."""
    return _history_values(cfg.history, UniformHistory(), (2, S, N), float)


def _mas_field(a, b, k1, k2, T, Js: np.ndarray):
    """Right-hand side of second-order agents, one run per coupling matrix of ``Js`` (S, N, N).

    State (x, v, p_x, p_v), N values each: vdot = a v + b x + J (k1 p_x + k2 p_v),
    and the filters p of mean T follow (x, v); at T = 0 the state is (x, v) = p.
    """
    if not (0 <= T < math.inf):  # NaN fails too
        raise ValueError(f"PD coupling delay must be nonnegative and finite, got T={T}")
    N = Js.shape[1]
    delayed = T > 0

    def rhs(t, y):
        x = y[:, :N]
        v = y[:, N : 2 * N]
        px, pv = (y[:, 2 * N : 3 * N], y[:, 3 * N :]) if delayed else (x, v)
        u = np.matmul(Js, (k1 * px + k2 * pv)[:, :, None])[:, :, 0]
        dy = np.empty_like(y)
        dy[:, :N] = v
        dy[:, N : 2 * N] = a * v + b * x + u
        if delayed:
            dy[:, 2 * N : 3 * N] = (x - px) / T
            dy[:, 3 * N :] = (v - pv) / T
        return dy

    return rhs


def _mas_state(x0, v0, T) -> np.ndarray:
    """Initial state of the runs from positions and velocities ``x0, v0`` (S, N): the coupling filters start on them."""
    return np.concatenate([x0, v0, x0, v0] if T > 0 else [x0, v0], axis=1)


def _mas_rk4(a, b, k1, k2, T, Js: np.ndarray, x0, v0, cfg: SimConfig, observe, keep_from=0):
    """The runs of ``_mas_field`` from the initial state ``x0, v0`` (S, N)."""
    return _rk4(_mas_field(a, b, k1, k2, T, Js), _mas_state(x0, v0, T), cfg.dt, _n_steps(cfg.horizon, cfg.dt),
                _BLOWUP, observe, keep_from=keep_from)


def _mas_tail_start(n_steps: int) -> int:
    """First step of the verdict window, the last tenth of the steps."""
    return max(int(math.floor(0.9 * n_steps)), 1)


def _mas_threshold(n0: np.ndarray) -> np.ndarray:
    """The verdict threshold, 1e-3 of the initial norm ``n0``: a stabilized run stays below it over the window."""
    return 1e-3 * np.maximum(n0, 1e-300)


def simulate_mas(
    a: float, b: float, k1: float, k2: float, T: float, J: np.ndarray, cfg: SimConfig
) -> MasResult:
    """Second-order agents with delayed PD coupling through matrix J.

    Coupling signals pass through a first-order filter of mean T >= 0 (T = 0
    is undelayed).  'Stabilized' means the position/velocity norm over the
    last tenth of the horizon stays below 1e-3 of its initial value.
    """
    J = np.asarray(J, dtype=float)
    N = J.shape[0]
    x0, v0 = _mas_initial(cfg, 1, N)
    states, blow = _mas_rk4(a, b, k1, k2, T, J[None, :, :], x0, v0, cfg, lambda y: y[0, : 2 * N])
    norms = np.linalg.norm(states, axis=1)
    stabilized = blow[0] < 0 and norms[_mas_tail_start(len(norms) - 1) :].max() < _mas_threshold(norms[0])
    return MasResult(stabilized=bool(stabilized), trajectory=_trajectory(cfg.dt, states, blow[0]))


_MODAL_MAX_COND = 1e8  # eigenvector condition number above which a run goes direct
_MODAL_SEEDS = 8  # runs diagonalized at once: bounds the eigenvector memory
_MODAL_MARGIN = 2.0  # factor by which a modal bound must clear the threshold, against rounding


def _mas_mode_step(a, b, k1, k2, T, mu: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 step matrix of each mode, shape ``mu.shape + (d, d)``: ``_rk4_step`` of ``_mas_field``
    with the 1 x 1 coupling mu from each of the d unit states.  The field is linear, so this is
    I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, M(mu) the agent's matrix with J replaced by mu.
    """
    d = 4 if T > 0 else 2
    units = np.tile(np.eye(d, dtype=complex), (mu.size, 1))
    G = _rk4_step(_mas_field(a, b, k1, k2, T, np.repeat(mu.ravel(), d).reshape(-1, 1, 1)), 0.0, units, dt)
    return G.reshape(mu.shape + (d, d)).swapaxes(-1, -2)  # row j of a mode's block is column j of G


@np.errstate(over="ignore", invalid="ignore")
def _mas_modal_bounds(a, b, k1, k2, T, mu, V, v_norm, x0, v0, n_steps: int, dt: float):
    """Verdict-window bounds of the runs with J = V diag(mu) V^-1, in closed form.

    ``mu`` (S, N) and ``V`` (S, N, N) are the eigen-decompositions of the
    coupling matrices, ``v_norm`` (S,) the largest singular value of each V
    and ``x0, v0`` (S, N) the initial states.  With each mode's step matrix
    G = W diag(rho) W^-1 and c = W^-1 V^-1 y0, the state at step k is
    V W rho^k c, so over the steps s..n of the window the (x, v) norm is at
    most ``v_norm`` times the norm of sum_j |W_xv,j| |c_j| max(|rho_j|^s,
    |rho_j|^n).  Returns that bound, the (x, v) norm at step n itself and
    whether every mode's W has a condition number of at most
    ``_MODAL_MAX_COND``, one entry per run.  A diverging mode overflows to
    inf or nan, silently.
    """
    rho, W = np.linalg.eig(_mas_mode_step(a, b, k1, k2, T, mu, dt))
    d = W.shape[-1]
    y0 = _mas_state(x0, v0, T).reshape(len(x0), d, -1).swapaxes(1, 2).astype(complex)
    c = np.linalg.solve(W, np.linalg.solve(V, y0)[..., None])[..., 0]
    Wxv = W[..., :2, :]
    r = np.abs(rho)
    reach = np.abs(c) * np.maximum(r ** _mas_tail_start(n_steps), r**n_steps)
    upper = v_norm * np.linalg.norm((np.abs(Wxv) * reach[..., None, :]).sum(axis=-1), axis=(1, 2))
    xv = (Wxv * (rho**n_steps * c)[..., None, :]).sum(axis=-1)  # the modes' (x, v) at step n
    last = np.linalg.norm(np.matmul(V, xv).real, axis=(1, 2))
    return upper, last, (np.linalg.cond(W) <= _MODAL_MAX_COND).all(axis=1)


def mas_ensemble(
    a: float, b: float, k1: float, k2: float, T: float, Js: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Stabilization verdicts for a stack of coupling matrices (S, N, N).

    Each run is the RK4 run of ``simulate_mas`` with its matrix, from the
    run's slice of one initial draw of shape (2, S, N), against the same
    ``_mas_threshold``.  A run whose eigenvector matrix has a condition number
    of at most 1e8 is decided mode by mode, without a step, by the RK4 step
    matrix of each mode (see the module notes): stabilized when twice
    ``_mas_modal_bounds``' window bound is below the threshold, unstabilized
    when its norm at the last step is above twice the threshold or not
    finite.  The rest, runs with an ill-conditioned eigenvector matrix of J
    or of a mode's step matrix and runs within those factors of 2, are
    stepped directly.  A modal run does not check the blow-up threshold: a
    run that crosses it has grown far past 1e-3 of its initial norm and is
    unstabilized either way.
    """
    Js = np.asarray(Js, dtype=float)
    S, N, _ = Js.shape
    _mas_field(a, b, k1, k2, T, Js)  # rejects a bad delay before any decomposition, also for an empty stack
    x0, v0 = _mas_initial(cfg, S, N)
    thr = _mas_threshold(np.linalg.norm(np.concatenate([x0, v0], axis=1), axis=1))
    n_steps = _n_steps(cfg.horizon, cfg.dt)
    stabilized = np.empty(S, dtype=bool)
    direct = []
    for lo in range(0, S, _MODAL_SEEDS):
        ix = np.arange(lo, min(lo + _MODAL_SEEDS, S))
        mu, V = np.linalg.eig(Js[ix])
        sv = np.linalg.svd(V, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = sv[:, 0] / sv[:, -1] <= _MODAL_MAX_COND  # False also for a singular V
        direct.extend(ix[~ok])
        ix = ix[ok]
        if len(ix):
            upper, last, w_ok = _mas_modal_bounds(a, b, k1, k2, T, mu[ok], V[ok], sv[ok, 0], x0[ix], v0[ix],
                                                  n_steps, cfg.dt)
            stab = w_ok & (_MODAL_MARGIN * upper < thr[ix])
            unstab = w_ok & ~(last <= _MODAL_MARGIN * thr[ix])  # a nan norm too
            stabilized[ix] = stab
            direct.extend(ix[~(stab | unstab)])
    if direct:
        # observations: step 0, then the verdict window
        norms, blow = _mas_rk4(a, b, k1, k2, T, Js[direct], x0[direct], v0[direct], cfg,
                               lambda y: np.linalg.norm(y[:, : 2 * N], axis=1), _mas_tail_start(n_steps))
        stabilized[direct] = (blow < 0) & (norms[1:].max(axis=0) < thr[direct])
    return stabilized


_GATHER_BYTES = 1 << 20  # delayed-phase rows gathered at once: bounds the gather's scratch memory


def simulate_kuramoto(
    N: int,
    K: float,
    C: float,
    S: float,
    d: float,
    delays: Tuple[str, float],
    cfg: SimConfig,
    seed: int,
    *,
    control_on: float = 10.0,
    snapshot_every: int = 0,
) -> KuramotoResult:
    """Globally coupled phase oscillators with delayed pairwise feedback.

    ``delays`` is ("constant", tau) or ("exponential", mean).  Natural
    frequencies are Cauchy with location d and unit scale, redrawn beyond
    |w - d| > 50 (heavy tails would otherwise force the step size down for
    a vanishing fraction of oscillators); the redraw fraction is reported.
    Pairwise delays are quantized to the step grid with a floor of one
    step; samples beyond the 99.9th percentile of the sampler are redrawn
    and counted.  The feedback is off before ``control_on``; delayed phase
    lookups reaching before t = 0 use the initial phases frozen.  The phase
    history is a window of O(max delay x N) values, not O(horizon x N); with
    it an exponential run holds one N x N int64 table (the delays in steps,
    then their offsets into the window) and one block of gathered rows of
    at most ``_GATHER_BYTES``.  A constant delay needs no table: it is one
    step count, and every oscillator reads the same window row.
    """
    if N < 2:
        raise ValueError("need at least two oscillators")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, N)

    omega = d + np.tan(np.pi * (rng.uniform(size=N) - 0.5))
    extra = 0
    bad = np.abs(omega - d) > 50.0
    while bad.any():
        extra += int(bad.sum())
        omega[bad] = d + np.tan(np.pi * (rng.uniform(size=int(bad.sum())) - 0.5))
        bad = np.abs(omega - d) > 50.0
    truncated_fraction = extra / (N + extra)

    dt = cfg.dt
    n_steps = _n_steps(cfg.horizon, dt)
    kind, value = delays
    resampled = 0
    # a delay of n_steps or more reads the frozen initial phases all run long, so
    # delays are capped there before the int64 cast: none overflows it, and
    # _kuramoto_run caps the steps there anyway
    t_max = n_steps * dt
    if kind == "constant":  # one step count for every pair: no table
        M = np.array(max(1, round(min(value, t_max) / dt)), dtype=np.int64)
    elif kind == "exponential":
        cap = -value * math.log(1e-3)  # 99.9th percentile
        taus = rng.exponential(value, size=(N, N))
        # only redrawn samples can fall over the cap again
        over = np.flatnonzero(taus > cap)
        while len(over):
            resampled += len(over)
            taus.flat[over] = rng.exponential(value, size=len(over))
            over = over[taus.flat[over] > cap]
        # the steps overwrite the delays they are rounded from, a block of
        # rows at a time, so the run holds one N x N table
        M = taus.view(np.int64)
        rows = max(1, _GATHER_BYTES // (8 * N))
        for i0 in range(0, N, rows):
            M[i0 : i0 + rows] = np.round(np.minimum(taus[i0 : i0 + rows], t_max) / dt)
        np.maximum(M, 1, out=M)
    else:
        raise ValueError(f"unknown delay sampler: {kind!r}")

    r_series, snap_times, snaps = _kuramoto_run(
        theta, omega, M, K, C, S, dt, n_steps, control_on, snapshot_every
    )

    times = np.arange(n_steps + 1) * dt
    return KuramotoResult(
        times=times,
        r=r_series,
        phase_times=np.asarray(snap_times),
        phases=np.asarray(snaps) if snaps else np.zeros((0, N)),
        truncated_fraction=truncated_fraction,
        resampled_delays=resampled,
    )


def _kuramoto_run(theta, omega, M, K, C, S, dt, n_steps, control_on, snapshot_every):
    """RK4 run of the population; returns (r series, snapshot times, snapshots).

    The phase exponentials live in a window of 2(P + 1) rows, P the largest
    delay in steps capped at ``n_steps``: row P + s - base holds step s.  The
    first P + 1 rows start at the initial phases, so lookups reaching before
    t = 0 read them frozen; when the window is full its last P rows (all a
    lookup can still reach) move to the front.  An N x N table M of delays
    makes the delayed field one flat gather: pair (i, j) at step k reads
    element (k - base) N + B[i, j] of the flattened window, with B = (P -
    M[i, j]) N + j.  The int64 table M is overwritten with B.  The gather
    fills a reused block of rows, of at most ``_GATHER_BYTES``; each row is
    summed whole, so the field is the same, bit for bit, as from one N x N
    gather.  A 0-d M, one delay for every pair, reads one window row e per
    step, and e.sum() - e equals the table's sums bit for bit.
    """
    N = len(theta)
    P = int(min(M.max(), n_steps))
    W = 2 * (P + 1)
    EH = np.empty((W, N), dtype=complex)
    EH[: P + 1] = np.exp(1j * theta)
    flat = EH.ravel()
    B = M
    np.minimum(B, P, out=B)
    np.subtract(P, B, out=B)
    if B.ndim:
        B *= N
        B += np.arange(N)
    rows = max(1, min(N, _GATHER_BYTES // (16 * N)))
    E = np.empty((rows, N), dtype=complex)
    sums = np.empty(N, dtype=complex)
    base = 0
    r_series = np.empty(n_steps + 1, dtype=complex)
    r_series[0] = EH[P].mean()

    snaps = []
    snap_times = []
    if snapshot_every > 0:
        snaps.append(theta.copy())
        snap_times.append(0.0)

    th = theta
    for k in range(n_steps):
        t = k * dt
        if t >= control_on - 1e-12 and not B.ndim:
            e = EH[k - base + B]  # the one delayed row every oscillator reads
            eta = (e.sum() - e) / N
        elif t >= control_on - 1e-12:
            src = flat[(k - base) * N :]
            for i0 in range(0, N, rows):
                i1 = min(i0 + rows, N)
                blk = E[: i1 - i0]
                # every index is in range, so "clip" only skips the bounds check
                np.take(src, B[i0:i1], out=blk, mode="clip")
                blk.sum(axis=1, out=sums[i0:i1])
                sums[i0:i1] -= blk.ravel()[i0 :: N + 1]  # the block's diagonal, (i, i)
            eta = sums / N
        else:
            eta = None

        def rhs(t, phase):
            e = np.exp(1j * phase)
            ce = np.conj(e)  # exp(-1j * phase) bit for bit, but for a zero's sign at phase -0.0
            dth = omega + K * np.imag(np.mean(e) * ce)
            if eta is not None:
                w = eta * ce
                dth = dth + C * np.imag(w) + S * np.real(w)
            return dth

        th = _rk4_step(rhs, t, th, dt)
        row = P + k + 1 - base
        if row == W:
            EH[:P] = EH[W - P :]
            base += P + 2
            row = P
        EH[row] = np.exp(1j * th)
        r_series[k + 1] = EH[row].mean()
        if snapshot_every > 0 and (k + 1) % snapshot_every == 0:
            snaps.append(th)
            snap_times.append((k + 1) * dt)
    return r_series, snap_times, snaps


def simulate_oa(
    K: float,
    d: float,
    L: complex,
    kernel,
    cfg: SimConfig,
    *,
    r0: complex = 0.1 + 0.0j,
    control_on: Optional[float] = None,
) -> Trajectory:
    """Reduced order-parameter dynamics of the controlled population.

    rdot = (K/2 - 1 + i d) r + L eta - (K/2)|r|^2 r - conj(L) r^2 conj(eta),
    where eta is the kernel-delayed order parameter.  Supports a point
    delay (method of steps) and an exponential delay (chain realization).
    The feedback terms switch on at ``control_on`` when given, at a step
    boundary: an off-grid ``control_on`` snaps to the next step, as in
    ``simulate_kuramoto``.  |r| > 10 is unphysical and trips the blow-up
    marker.
    """
    lin = complex(K / 2.0 - 1.0, d)
    L = complex(L)

    def dr(r, eta, Lt):
        return lin * r + Lt * eta - (K / 2.0) * np.abs(r) ** 2 * r - np.conj(Lt) * r**2 * np.conj(eta)

    dt, delay = cfg.dt, None
    if isinstance(kernel, Dirac):
        dt, delay = _delay_steps(kernel.tau, cfg.dt)
        y0 = np.array([[r0]], dtype=complex)

        def rhs(t, r, rd, Lt=L):
            return dr(r, rd, Lt)

    elif isinstance(kernel, Gamma):
        if kernel.n != 1:
            raise ValueError("order-parameter dynamics supports the exponential kernel (n = 1)")
        T = kernel.T
        y0 = np.array([[r0, r0]], dtype=complex)

        def rhs(t, y, Lt=L):
            r, eta = y[0]
            return np.array([[dr(r, eta, Lt), (r - eta) / T]])

    else:
        raise ValueError("order-parameter dynamics needs a Dirac or exponential kernel")
    # the feedback is off until the step that starts at control_on
    f, switch = (rhs, None) if control_on is None else (partial(rhs, Lt=0j), (control_on, rhs))
    states, blow = _rk4(f, y0, dt, _n_steps(cfg.horizon, dt), 10.0, lambda y: y[:, 0], delay, switch)
    return _trajectory(dt, states, blow[0])


_FIT_BLOCK = 1 << 15  # window samples fitted at once: bounds the fit's scratch memory


def _fit_rates(t: np.ndarray, norms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes of log(norms) against the window times ``t`` and their R^2, batched.

    ``norms`` has shape (len(t),) or (len(t), B); the results have one entry per
    column.  Nonpositive or nonfinite samples are masked out per column;
    columns with fewer than half the window usable get a NaN slope.  The
    columns are fitted a block at a time, each summed along contiguous
    memory, so a column's fit does not depend on the rest of the batch.
    """
    w = np.atleast_2d(norms.T)
    step = max(1, _FIT_BLOCK // len(t))
    fits = [_fit_block(t, w[j : j + step]) for j in range(0, len(w), step)]
    return tuple(np.concatenate(f) for f in zip(*fits))


def _fit_block(t: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.ascontiguousarray(w))
        ok = np.isfinite(y)
        n = ok.sum(axis=1)
        tm = np.where(ok, t, 0.0).sum(axis=1) / n
        tc = np.where(ok, t - tm[:, None], 0.0)
        ym = (np.where(ok, y, 0.0).sum(axis=1) / n)[:, None]
        yc = np.where(ok, y - ym, 0.0)
        denom = np.sum(tc**2, axis=1)
        slope = np.sum(tc * yc, axis=1) / denom
        resid = np.where(ok, y - (ym + slope[:, None] * tc), 0.0)
        sstot = np.sum(yc**2, axis=1)
        r2 = np.maximum(0.0, 1.0 - np.sum(resid**2, axis=1) / sstot)
    slope[(n < max(2, y.shape[1] // 2)) | (denom == 0)] = np.nan
    return slope, np.where(sstot == 0.0, 1.0, r2)


def estimate_rate(traj: Trajectory, cfg: SimConfig) -> RateEstimate:
    """Exponential rate of the trajectory from the trailing-window log-norm slope.

    Blown-up runs are diverging with a +inf sentinel; an all-zero tail is
    converging with -inf.  The verdict needs |rate| to clear ``rate_tol``.
    """
    if traj.blowup is not None:
        return RateEstimate(math.inf, 1.0, "diverging", note="blow_up")
    # for a single component this is exactly |z|, the norm the rate grids fit
    norms = np.sqrt(np.sum(np.abs(np.atleast_2d(traj.states.T).T) ** 2, axis=1))
    start = _rate_start(len(norms) - 1, cfg.rate_window_fraction)
    window = norms[start:]
    if len(window) < 100:
        raise ValueError(f"need >= 100 samples in the fit window, got {len(window)}")
    if np.all(window == 0.0):
        return RateEstimate(-math.inf, 1.0, "converging", note="reached_zero")
    slope, r2 = (float(v[0]) for v in _fit_rates(traj.times[start:], window))
    if math.isnan(slope):
        return RateEstimate(0.0, 0.0, "inconclusive", note="degenerate_tail")
    if slope < -cfg.rate_tol:
        verdict = "converging"
    elif slope > cfg.rate_tol:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return RateEstimate(slope, r2, verdict)
