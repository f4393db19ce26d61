"""Time-domain integration of the delay systems and rate estimation.

Discrete delays use the method of steps: fixed-step classical Runge-Kutta
with the step chosen to divide the delay, and delayed stage values from
cubic Hermite interpolation of the stored nodes.  Gamma-distributed delays
use the linear chain realization (a cascade of first-order stages whose
last output reproduces the distributed term exactly).  The oscillator
population keeps per-pair delayed phases in a quantized history table; its
pairwise mean field is refreshed once per step and held across the stages,
matching the cost model of one O(N^2) gather per step.

Convergence or divergence of a trajectory is summarized by the slope of
log-norm over the trailing window, the practical stand-in for the
asymptotic exponential rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple, Union

import numpy as np

from .kernels import Dirac, Exponential, Gamma
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
    blowup_threshold: float = 1e12

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if not (0.0 < self.rate_window_fraction < 1.0):
            raise ValueError("rate_window_fraction must lie in (0, 1)")


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


def _history_values(history: Optional[HistorySpec], default: HistorySpec, shape, dtype):
    h = history if history is not None else default
    if isinstance(h, ConstantHistory):
        out = np.full(shape, h.value, dtype=dtype)
        if dtype == float:
            out = np.full(shape, complex(h.value).real, dtype=float)
        return out
    if isinstance(h, UniformHistory):
        rng = np.random.default_rng(h.seed)
        return h.amplitude * rng.uniform(-1.0, 1.0, size=shape).astype(dtype)
    raise TypeError(f"not a history spec: {h!r}")


def _switch_step(switch, dt: float) -> Tuple[float, object]:
    """(first step on the new field, new field) of a ``switch = (t_on, f_on)``.

    The field changes at a step boundary, never inside a step, so RK4 keeps
    its order across the switch; an off-grid ``t_on`` snaps to the next step.
    """
    if switch is None:
        return math.inf, None
    t_on, f_on = switch
    return max(0, math.ceil(t_on / dt - 1e-9)), f_on


def _integrate(f, y0: np.ndarray, dt: float, n_steps: int, blowup: float, switch=None):
    """Fixed-step RK4 on y' = f(t, y); truncates when the guard trips.

    ``switch = (t_on, f_on)`` integrates with f_on from t_on on.
    """
    k_on, f_on = _switch_step(switch, dt)
    y = np.array(y0)
    out = np.empty((n_steps + 1,) + y.shape, dtype=y.dtype)
    out[0] = y
    for k in range(n_steps):
        t = k * dt
        if k == k_on:
            f = f_on
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > blowup:
            return out[: k + 1], (k + 1) * dt
        out[k + 1] = y
    return out, None


def _delay_steps(tau: float, dt_req: float) -> Tuple[float, int]:
    """Largest dt <= requested that divides the delay; returns (dt, m)."""
    if tau <= 0:
        raise ValueError("delay must be positive")
    m = max(int(math.ceil(tau / dt_req - 1e-9)), 1)
    return tau / m, m


def _integrate_dde(f, y0: np.ndarray, tau: float, cfg: SimConfig, history_value: np.ndarray, switch=None):
    """Method of steps for y' = f(t, y, y(t - tau)) with constant pre-history.

    Delayed stage values use cubic Hermite interpolation between stored
    nodes (value and derivative), which keeps the integrator at full order.
    ``switch = (t_on, f_on)`` integrates with f_on from t_on on.
    """
    dt, m = _delay_steps(tau, cfg.dt)
    k_on, f_on = _switch_step(switch, dt)
    n_steps = int(math.ceil(cfg.horizon / dt - 1e-9))
    shape = y0.shape
    Y = np.zeros((m + n_steps + 1,) + shape, dtype=y0.dtype)
    D = np.zeros_like(Y)
    Y[: m + 1] = history_value  # frozen history on [-tau, 0]
    Y[m] = y0
    off = m  # Y[off + k] is the state at t = k*dt

    def hermite_mid(i):
        # value at midpoint of nodes i, i+1; intervals ending at or before
        # t = 0 are frozen history (the stored derivative at node `off` is
        # the post-jump value and must not leak into the history side); the
        # interval ending at the switch node takes the old field's derivative
        if i + 1 <= off:
            return Y[i]
        d1 = d_left if i + 1 == off + k_on else D[i + 1]
        return 0.5 * (Y[i] + Y[i + 1]) + 0.125 * dt * (D[i] - d1)

    blow = None
    d_left = None
    for k in range(n_steps):
        t = k * dt
        y = Y[off + k]
        zd0 = Y[off + k - m]
        if k == k_on:
            d_left = f(t, y, zd0)
            f = f_on
        k1 = f(t, y, zd0)
        D[off + k] = k1
        zdm = hermite_mid(off + k - m)
        k2 = f(t + dt / 2, y + dt / 2 * k1, zdm)
        k3 = f(t + dt / 2, y + dt / 2 * k2, zdm)
        zd1 = Y[off + k - m + 1]
        k4 = f(t + dt, y + dt * k3, zd1)
        ynew = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(ynew)) or np.max(np.abs(ynew)) > cfg.blowup_threshold:
            blow = (k + 1) * dt
            Y = Y[: off + k + 1]
            break
        Y[off + k + 1] = ynew
    states = Y[off:]
    times = np.arange(len(states)) * dt
    return Trajectory(times=times, states=states, blowup=blow)


def simulate_scalar_discrete(a: float, d: float, L: complex, tau: float, cfg: SimConfig) -> Trajectory:
    """zdot = (a + i d) z + L z(t - tau), complex scalar state."""
    z0 = _history_values(cfg.history, ConstantHistory(), (1,), complex)
    ad = complex(a, d)
    L = complex(L)

    def rhs(t, z, zd):
        return ad * z + L * zd

    return _integrate_dde(rhs, z0, tau, cfg, z0)


def scalar_discrete_rate_grid(a: float, d: float, Ls, tau: float, cfg: SimConfig) -> np.ndarray:
    """Exponential rates of the discrete-delay scalar system over a batch of gains."""
    Ls = np.asarray(Ls, dtype=complex).ravel()
    B = len(Ls)
    dt, m = _delay_steps(tau, cfg.dt)
    n_steps = int(math.ceil(cfg.horizon / dt - 1e-9))
    z0 = _history_values(cfg.history, ConstantHistory(), (B,), complex)
    Y = np.zeros((m + n_steps + 1, B), dtype=complex)
    D = np.zeros_like(Y)
    Y[: m + 1] = z0
    off = m
    ad = complex(a, d)
    alive = np.ones(B, dtype=bool)
    blow_step = np.full(B, -1, dtype=int)
    for k in range(n_steps):
        y = Y[off + k]
        zd0 = Y[off + k - m]
        k1 = ad * y + Ls * zd0
        D[off + k] = k1
        if k < m:  # midpoint lookup still inside the frozen history
            zdm = Y[off + k - m]
        else:
            zdm = 0.5 * (Y[off + k - m] + Y[off + k - m + 1]) + 0.125 * dt * (
                D[off + k - m] - D[off + k - m + 1]
            )
        y2 = y + dt / 2 * k1
        k2 = ad * y2 + Ls * zdm
        y3 = y + dt / 2 * k2
        k3 = ad * y3 + Ls * zdm
        y4 = y + dt * k3
        zd1 = Y[off + k - m + 1]
        k4 = ad * y4 + Ls * zd1
        ynew = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        bad = alive & (~np.isfinite(ynew) | (np.abs(ynew) > cfg.blowup_threshold))
        if np.any(bad):
            blow_step[bad] = k + 1
            alive &= ~bad
            ynew = np.where(alive, ynew, y)
        Y[off + k + 1] = np.where(alive, ynew, Y[off + k])
        if not alive.any():
            Y[off + k + 2 :] = Y[off + k + 1]
            break
    norms = np.abs(Y[off:])
    times = np.arange(norms.shape[0]) * dt
    rates = _fit_rates(times, norms, cfg.rate_window_fraction)
    rates[blow_step >= 0] = np.inf
    return rates


def simulate_scalar_gamma(a: float, L: complex, kernel: Gamma, cfg: SimConfig) -> Trajectory:
    """zdot = a z + L * (Gamma-delayed z), via the chain realization.

    The returned trajectory contains the physical state z only; the chain
    stages are internal.
    """
    if isinstance(kernel, Exponential):
        kernel = Gamma(1, kernel.T)
    n, T = kernel.n, kernel.T
    z0 = _history_values(cfg.history, ConstantHistory(), (1,), complex)[0]
    y0 = np.full(n + 1, z0, dtype=complex)
    rate = n / T
    L = complex(L)

    def rhs(t, y):
        dy = np.empty_like(y)
        dy[0] = a * y[0] + L * y[n]
        dy[1] = rate * (y[0] - y[1])
        if n > 1:
            dy[2:] = rate * (y[1:n] - y[2:])
        return dy

    n_steps = int(math.ceil(cfg.horizon / cfg.dt - 1e-9))
    states, blow = _integrate(rhs, y0, cfg.dt, n_steps, cfg.blowup_threshold)
    times = np.arange(states.shape[0]) * cfg.dt
    return Trajectory(times=times, states=states[:, :1], blowup=blow)


def scalar_gamma_rate_grid(a: float, Ls, kernel: Gamma, cfg: SimConfig) -> np.ndarray:
    """Exponential rates of the Gamma-delay scalar system over a batch of gains."""
    if isinstance(kernel, Exponential):
        kernel = Gamma(1, kernel.T)
    n, T = kernel.n, kernel.T
    Ls = np.asarray(Ls, dtype=complex).ravel()
    B = len(Ls)
    z0 = _history_values(cfg.history, ConstantHistory(), (B,), complex)
    Y = np.tile(z0, (n + 1, 1))  # rows: z, y1..yn
    rate = n / T

    def rhs(Y):
        dY = np.empty_like(Y)
        dY[0] = a * Y[0] + Ls * Y[n]
        dY[1] = rate * (Y[0] - Y[1])
        if n > 1:
            dY[2:] = rate * (Y[1:n] - Y[2:])
        return dY

    dt = cfg.dt
    n_steps = int(math.ceil(cfg.horizon / dt - 1e-9))
    norms = np.empty((n_steps + 1, B))
    norms[0] = np.abs(Y[0])
    alive = np.ones(B, dtype=bool)
    blow = np.zeros(B, dtype=bool)
    for k in range(n_steps):
        k1 = rhs(Y)
        k2 = rhs(Y + dt / 2 * k1)
        k3 = rhs(Y + dt / 2 * k2)
        k4 = rhs(Y + dt * k3)
        Yn = Y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        bad = alive & (~np.isfinite(Yn).all(axis=0) | (np.abs(Yn).max(axis=0) > cfg.blowup_threshold))
        blow |= bad
        alive &= ~bad
        Y = np.where(alive[None, :], Yn, Y)
        norms[k + 1] = np.abs(Y[0])
        if not alive.any():
            norms[k + 2 :] = norms[k + 1]
            break
    times = np.arange(n_steps + 1) * dt
    rates = _fit_rates(times, norms, cfg.rate_window_fraction)
    rates[blow] = np.inf
    return rates


def _carfollowing_arrays(net: NetworkSpec):
    if isinstance(net, Ring):
        alphas = np.full(net.N, net.alpha)
    elif isinstance(net, Chain):
        alphas = np.full(net.N, net.alpha)
        alphas[0] = 0.0
    else:
        raise TypeError("car-following supports Ring and Chain networks")
    return net.N, alphas


def simulate_carfollowing(
    net: NetworkSpec, kernel: Gamma, cfg: SimConfig
) -> Tuple[Trajectory, RateEstimate]:
    """Velocity-matching vehicles with a Gamma-filtered neighbor difference.

    Returns the velocity trajectory and the exponential rate of the widest
    pairwise velocity gap (the consensus rate).
    """
    if isinstance(kernel, Exponential):
        kernel = Gamma(1, kernel.T)
    N, alphas = _carfollowing_arrays(net)
    n, T = kernel.n, kernel.T
    rate = n / T
    x0 = _history_values(cfg.history, UniformHistory(), (N,), float)

    def diff(x):
        return np.roll(x, -1) - x

    y0 = np.concatenate([x0] + [diff(x0)] * n)

    def rhs(t, y):
        x = y[:N]
        stages = y[N:].reshape(n, N)
        dy = np.empty_like(y)
        dy[:N] = alphas * stages[-1]
        ds = dy[N:].reshape(n, N)
        ds[0] = rate * (diff(x) - stages[0])
        if n > 1:
            ds[1:] = rate * (stages[:-1] - stages[1:])
        return dy

    n_steps = int(math.ceil(cfg.horizon / cfg.dt - 1e-9))
    states, blow = _integrate(rhs, y0, cfg.dt, n_steps, cfg.blowup_threshold)
    times = np.arange(states.shape[0]) * cfg.dt
    x = states[:, :N]
    traj = Trajectory(times=times, states=x, blowup=blow)
    gap = x.max(axis=1) - x.min(axis=1)
    if gap[0] < 1e-12 and (blow is None and np.all(gap < 1e-9)):
        est = RateEstimate(0.0, 1.0, "inconclusive", note="already_consensus")
    else:
        gap_traj = Trajectory(times=times, states=gap[:, None], blowup=blow)
        est = estimate_rate(gap_traj, cfg)
    return traj, est


def carfollowing_rate_grid(
    n: int,
    N: int,
    alphas: np.ndarray,
    Ts: np.ndarray,
    cfg: SimConfig,
    *,
    chain: bool = False,
) -> np.ndarray:
    """Consensus rates over an (alpha, T) grid, integrated as one batch.

    Returns an array of shape (len(alphas), len(Ts)); +inf marks blow-up.
    """
    alphas = np.asarray(alphas, dtype=float)
    Ts = np.asarray(Ts, dtype=float)
    A, B = np.meshgrid(alphas, Ts, indexing="ij")
    A = A.ravel()[:, None]  # (C, 1)
    Tv = np.meshgrid(alphas, Ts, indexing="ij")[1].ravel()[:, None]
    C = A.shape[0]
    rate_c = n / Tv  # (C, 1)
    agent_alpha = np.repeat(A, N, axis=1)
    if chain:
        agent_alpha[:, 0] = 0.0
    x0 = _history_values(cfg.history, UniformHistory(), (N,), float)
    x = np.tile(x0, (C, 1))
    d0 = np.roll(x0, -1) - x0
    stages = np.tile(d0, (C, n, 1)).reshape(C, n, N)

    n_steps = int(math.ceil(cfg.horizon / cfg.dt - 1e-9))
    dt = cfg.dt
    gaps = np.empty((n_steps + 1, C))
    alive = np.ones(C, dtype=bool)
    blow = np.zeros(C, dtype=bool)

    def rhs(x, st):
        dx = agent_alpha * st[:, -1, :]
        dst = np.empty_like(st)
        diff = np.roll(x, -1, axis=1) - x
        dst[:, 0, :] = rate_c * (diff - st[:, 0, :])
        if n > 1:
            dst[:, 1:, :] = rate_c[:, None, :] * (st[:, :-1, :] - st[:, 1:, :])
        return dx, dst

    gaps[0] = x.max(axis=1) - x.min(axis=1)
    for k in range(n_steps):
        k1x, k1s = rhs(x, stages)
        k2x, k2s = rhs(x + dt / 2 * k1x, stages + dt / 2 * k1s)
        k3x, k3s = rhs(x + dt / 2 * k2x, stages + dt / 2 * k2s)
        k4x, k4s = rhs(x + dt * k3x, stages + dt * k3s)
        xn = x + (dt / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        sn = stages + (dt / 6) * (k1s + 2 * k2s + 2 * k3s + k4s)
        bad = alive & (
            ~np.isfinite(xn).all(axis=1)
            | (np.abs(xn).max(axis=1) > cfg.blowup_threshold)
            | ~np.isfinite(sn).all(axis=(1, 2))
        )
        blow |= bad
        alive &= ~bad
        keep = alive[:, None]
        x = np.where(keep, xn, x)
        stages = np.where(keep[:, :, None], sn, stages)
        gaps[k + 1] = x.max(axis=1) - x.min(axis=1)
        if not alive.any():
            gaps[k + 2 :] = gaps[k + 1]
            break
    times = np.arange(n_steps + 1) * dt
    rates = _fit_rates(times, gaps, cfg.rate_window_fraction)
    rates[blow] = np.inf
    return rates.reshape(len(alphas), len(Ts))


def simulate_mas(
    a: float, b: float, k1: float, k2: float, T: float, J: np.ndarray, cfg: SimConfig
) -> MasResult:
    """Second-order agents with delayed PD coupling through matrix J.

    Coupling signals pass through a first-order filter of mean T (T = 0 is
    undelayed).  'Stabilized' means the position/velocity norm over the last
    tenth of the horizon stays below 1e-3 of its initial value.
    """
    J = np.asarray(J, dtype=float)
    N = J.shape[0]
    stabilized, states, blow = _mas_run(a, b, k1, k2, T, J[None, :, :], cfg, keep_states=True)
    times = np.arange(states.shape[0]) * cfg.dt
    traj = Trajectory(times=times, states=states[:, 0, : 2 * N], blowup=blow[0])
    return MasResult(stabilized=bool(stabilized[0]), trajectory=traj)


def mas_ensemble(
    a: float, b: float, k1: float, k2: float, T: float, Js: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Stabilization verdicts for a stack of coupling matrices (S, N, N)."""
    stabilized, _, _ = _mas_run(a, b, k1, k2, T, np.asarray(Js, dtype=float), cfg, keep_states=False)
    return stabilized


def _mas_run(a, b, k1, k2, T, Js, cfg: SimConfig, *, keep_states: bool):
    S, N, _ = Js.shape
    hist = cfg.history if cfg.history is not None else UniformHistory()
    if isinstance(hist, UniformHistory):
        rng = np.random.default_rng(hist.seed)
        x0 = hist.amplitude * rng.uniform(-1.0, 1.0, size=(S, N))
        v0 = hist.amplitude * rng.uniform(-1.0, 1.0, size=(S, N))
    else:
        x0 = np.full((S, N), complex(hist.value).real)
        v0 = np.full((S, N), complex(hist.value).real)
    delayed = T > 0
    if delayed:
        y = np.concatenate([x0, v0, x0, v0], axis=1)  # filters start on the history
    else:
        y = np.concatenate([x0, v0], axis=1)

    def rhs(y):
        x = y[:, :N]
        v = y[:, N : 2 * N]
        if delayed:
            px = y[:, 2 * N : 3 * N]
            pv = y[:, 3 * N :]
            u = np.matmul(Js, (k1 * px + k2 * pv)[:, :, None])[:, :, 0]
        else:
            u = np.matmul(Js, (k1 * x + k2 * v)[:, :, None])[:, :, 0]
        dy = np.empty_like(y)
        dy[:, :N] = v
        dy[:, N : 2 * N] = a * v + b * x + u
        if delayed:
            dy[:, 2 * N : 3 * N] = (x - px) / T
            dy[:, 3 * N :] = (v - pv) / T
        return dy

    dt = cfg.dt
    n_steps = int(math.ceil(cfg.horizon / dt - 1e-9))
    tail_start = int(math.floor(0.9 * n_steps))
    init_norm = np.linalg.norm(y[:, : 2 * N], axis=1)
    tail_max = np.zeros(S)
    alive = np.ones(S, dtype=bool)
    blow_time = np.array([None] * S, dtype=object)
    states = np.empty((n_steps + 1, S, y.shape[1])) if keep_states else None
    if keep_states:
        states[0] = y
    for k in range(n_steps):
        k1_ = rhs(y)
        k2_ = rhs(y + dt / 2 * k1_)
        k3_ = rhs(y + dt / 2 * k2_)
        k4_ = rhs(y + dt * k3_)
        yn = y + (dt / 6) * (k1_ + 2 * k2_ + 2 * k3_ + k4_)
        bad = alive & (~np.isfinite(yn).all(axis=1) | (np.abs(yn).max(axis=1) > cfg.blowup_threshold))
        for s in np.nonzero(bad)[0]:
            blow_time[s] = (k + 1) * dt
        alive &= ~bad
        y = np.where(alive[:, None], yn, y)
        if keep_states:
            states[k + 1] = y
        if k + 1 >= tail_start:
            norm = np.linalg.norm(y[:, : 2 * N], axis=1)
            tail_max = np.maximum(tail_max, norm)
        if not alive.any():
            if keep_states:
                states[k + 2 :] = y
            tail_max = np.maximum(tail_max, np.linalg.norm(y[:, : 2 * N], axis=1))
            break
    stabilized = alive & (tail_max < 1e-3 * np.maximum(init_norm, 1e-300))
    if keep_states:
        # truncate a single kept run at its blow-up point
        if S == 1 and blow_time[0] is not None:
            cut = int(round(blow_time[0] / dt))
            states = states[:cut]
    return stabilized, states, blow_time


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
    phase_shift: float = 0.0,
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
    history is a window of O(max delay x N) values, not O(horizon x N).
    """
    if N < 2:
        raise ValueError("need at least two oscillators")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, N) + phase_shift

    omega = d + np.tan(np.pi * (rng.uniform(size=N) - 0.5))
    extra = 0
    bad = np.abs(omega - d) > 50.0
    while bad.any():
        extra += int(bad.sum())
        omega[bad] = d + np.tan(np.pi * (rng.uniform(size=int(bad.sum())) - 0.5))
        bad = np.abs(omega - d) > 50.0
    truncated_fraction = extra / (N + extra)

    dt = cfg.dt
    kind, value = delays
    resampled = 0
    if kind == "constant":
        M = np.full((N, N), max(1, int(round(value / dt))), dtype=np.int64)
    elif kind == "exponential":
        cap = -value * math.log(1e-3)  # 99.9th percentile
        taus = rng.exponential(value, size=(N, N))
        over = taus > cap
        while over.any():
            resampled += int(over.sum())
            taus[over] = rng.exponential(value, size=int(over.sum()))
            over = taus > cap
        M = np.maximum(np.round(taus / dt).astype(np.int64), 1)
    else:
        raise ValueError(f"unknown delay sampler: {kind!r}")

    n_steps = int(math.ceil(cfg.horizon / dt - 1e-9))
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
    lookup can still reach) move to the front.  The delayed field is then
    one flat gather: pair (i, j) at step k reads element (k - base) N +
    B[i, j] of the flattened window, with B = (P - M[i, j]) N + j.
    """
    N = len(theta)
    P = int(min(M.max(), n_steps))
    W = 2 * (P + 1)
    EH = np.empty((W, N), dtype=complex)
    EH[: P + 1] = np.exp(1j * theta)
    flat = EH.ravel()
    B = (P - np.minimum(M, P)) * N + np.arange(N)
    E = np.empty((N, N), dtype=complex)
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
        if t >= control_on - 1e-12:
            # every index is in range, so "clip" only skips the bounds check
            np.take(flat[(k - base) * N :], B, out=E, mode="clip")
            eta = (E.sum(axis=1) - np.diagonal(E)) / N
        else:
            eta = None

        def rhs(phase):
            rr = np.mean(np.exp(1j * phase))
            dth = omega + K * np.imag(rr * np.exp(-1j * phase))
            if eta is not None:
                w = eta * np.exp(-1j * phase)
                dth = dth + C * np.imag(w) + S * np.real(w)
            return dth

        k1 = rhs(th)
        k2 = rhs(th + dt / 2 * k1)
        k3 = rhs(th + dt / 2 * k2)
        k4 = rhs(th + dt * k3)
        th = th + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
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
    cfg_oa = SimConfig(
        dt=cfg.dt,
        horizon=cfg.horizon,
        history=cfg.history,
        rate_window_fraction=cfg.rate_window_fraction,
        rate_tol=cfg.rate_tol,
        blowup_threshold=10.0,
    )

    def switched(rhs):
        # feedback off until the step that starts at control_on (snapped up
        # to the step grid), on from there; one field per RK4 step
        if control_on is None:
            return rhs, None
        return partial(rhs, Lt=0j), (control_on, rhs)

    if isinstance(kernel, Dirac):
        z0 = np.array([r0], dtype=complex)

        def rhs(t, r, rd, Lt=L):
            return lin * r + Lt * rd - (K / 2.0) * np.abs(r) ** 2 * r - np.conj(Lt) * r**2 * np.conj(rd)

        f, switch = switched(rhs)
        return _integrate_dde(f, z0, kernel.tau, cfg_oa, z0, switch)

    if isinstance(kernel, (Exponential, Gamma)):
        if isinstance(kernel, Gamma) and kernel.n != 1:
            raise ValueError("order-parameter dynamics supports the exponential kernel (n = 1)")
        T = kernel.T
        y0 = np.array([r0, r0], dtype=complex)

        def rhs2(t, y, Lt=L):
            r, eta = y[0], y[1]
            dr = lin * r + Lt * eta - (K / 2.0) * np.abs(r) ** 2 * r - np.conj(Lt) * r**2 * np.conj(eta)
            return np.array([dr, (r - eta) / T])

        f, switch = switched(rhs2)
        n_steps = int(math.ceil(cfg.horizon / cfg.dt - 1e-9))
        states, blow = _integrate(f, y0, cfg.dt, n_steps, 10.0, switch)
        times = np.arange(states.shape[0]) * cfg.dt
        return Trajectory(times=times, states=states[:, :1], blowup=blow)

    raise TypeError("order-parameter dynamics needs a Dirac or exponential kernel")


def _fit_rates(times: np.ndarray, norms: np.ndarray, frac: float) -> np.ndarray:
    """Least-squares slopes of log(norms) over the trailing window, batched.

    ``norms`` has shape (nt,) or (nt, B); nonpositive or nonfinite samples
    are dropped per column; columns with fewer than half the window usable
    get NaN.
    """
    single = norms.ndim == 1
    if single:
        norms = norms[:, None]
    nt = norms.shape[0]
    start = int(math.floor((1.0 - frac) * (nt - 1)))
    t = times[start:]
    w = norms[start:]
    out = np.full(w.shape[1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(w)
    for j in range(w.shape[1]):
        y = logw[:, j]
        ok = np.isfinite(y)
        if ok.sum() < max(2, len(y) // 2):
            continue
        tt, yy = t[ok], y[ok]
        tm, ym = tt.mean(), yy.mean()
        denom = np.sum((tt - tm) ** 2)
        if denom == 0:
            continue
        out[j] = np.sum((tt - tm) * (yy - ym)) / denom
    return out[0:1] if single else out


def estimate_rate(traj: Trajectory, cfg: SimConfig) -> RateEstimate:
    """Exponential rate of the trajectory from the trailing-window log-norm slope.

    Blown-up runs are diverging with a +inf sentinel; an all-zero tail is
    converging with -inf.  The verdict needs |rate| to clear ``rate_tol``.
    """
    if traj.blowup is not None:
        return RateEstimate(math.inf, 1.0, "diverging", note="blow_up")
    norms = np.linalg.norm(np.atleast_2d(traj.states.T).T, axis=1)
    nt = len(norms)
    start = int(math.floor((1.0 - cfg.rate_window_fraction) * (nt - 1)))
    window = norms[start:]
    if len(window) < 100:
        raise ValueError(f"need >= 100 samples in the fit window, got {len(window)}")
    if np.all(window == 0.0):
        return RateEstimate(-math.inf, 1.0, "converging", note="reached_zero")
    t = traj.times[start:]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(window)
    ok = np.isfinite(y)
    if ok.sum() < len(y) // 2:
        return RateEstimate(0.0, 0.0, "inconclusive", note="degenerate_tail")
    tt, yy = t[ok], y[ok]
    tm, ym = tt.mean(), yy.mean()
    denom = float(np.sum((tt - tm) ** 2))
    slope = float(np.sum((tt - tm) * (yy - ym)) / denom)
    resid = yy - (ym + slope * (tt - tm))
    sstot = float(np.sum((yy - ym) ** 2))
    r2 = 1.0 if sstot == 0.0 else max(0.0, 1.0 - float(np.sum(resid**2)) / sstot)
    if slope < -cfg.rate_tol:
        verdict = "converging"
    elif slope > cfg.rate_tol:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return RateEstimate(slope, r2, verdict)
