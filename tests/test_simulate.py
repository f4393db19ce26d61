import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from delaystab import networks as nw
from delaystab import presets
from delaystab import simulate as sim
from delaystab.cli import main as cli_main
from delaystab.kernels import Dirac, Exponential, Gamma
from delaystab.regions import membership


def test_delay_free_exponential_decay():
    cfg = sim.SimConfig(dt=0.01, horizon=30.0, history=sim.ConstantHistory(1.0))
    traj = sim.simulate_scalar_discrete(-1.0, 0.0, 0.0, 0.5, cfg)
    est = sim.estimate_rate(traj, cfg)
    assert est.verdict == "converging"
    assert est.rate == pytest.approx(-1.0, abs=0.01)
    assert est.r_squared > 0.999


def test_scalar_discrete_leaf_membership_signs():
    cfg = sim.SimConfig(dt=0.01, horizon=40.0, history=sim.ConstantHistory(0.1))
    traj = sim.simulate_scalar_discrete(1.0, 0.0, -1.5, 0.5, cfg)
    assert sim.estimate_rate(traj, cfg).verdict == "converging"
    traj = sim.simulate_scalar_discrete(1.0, 0.0, -3.0, 0.5, cfg)
    assert sim.estimate_rate(traj, cfg).verdict == "diverging"


def test_scalar_discrete_rotated_point_matches_membership():
    # the controlled-oscillator gain of the rotated-leaf case
    F = presets.scalar_discrete(1.0, 2.5, 0.5)
    L = -0.5 - 1.5j
    verdict = membership(F, L).verdict
    cfg = sim.SimConfig(dt=0.01, horizon=40.0, history=sim.ConstantHistory(0.1))
    traj = sim.simulate_scalar_discrete(1.0, 2.5, L, 0.5, cfg)
    est = sim.estimate_rate(traj, cfg)
    assert (verdict == "stable") == (est.verdict == "converging")


def test_rk4_step_halving_fourth_order():
    def final_discrete(dt):
        cfg = sim.SimConfig(dt=dt, horizon=5.0, history=sim.ConstantHistory(1.0))
        return sim.simulate_scalar_discrete(1.0, 0.5, -1.2 + 0.3j, 0.5, cfg).states[-1, 0]

    e1 = abs(final_discrete(0.02) - final_discrete(0.01))
    e2 = abs(final_discrete(0.01) - final_discrete(0.005))
    assert 8.0 <= e1 / e2 <= 32.0

    def final_gamma(dt):
        cfg = sim.SimConfig(dt=dt, horizon=5.0, history=sim.ConstantHistory(1.0))
        return sim.simulate_scalar_gamma(0.5, -1.0 + 0.4j, Gamma(2, 0.7), cfg).states[-1, 0]

    e1 = abs(final_gamma(0.02) - final_gamma(0.01))
    e2 = abs(final_gamma(0.01) - final_gamma(0.005))
    assert 8.0 <= e1 / e2 <= 32.0


def test_scalar_gamma_examples():
    cfg = sim.SimConfig(dt=0.01, horizon=30.0, history=sim.ConstantHistory(0.1))
    traj = sim.simulate_scalar_gamma(1.0, -3.0, Gamma(1, 0.5), cfg)
    assert sim.estimate_rate(traj, cfg).verdict == "converging"
    traj = sim.simulate_scalar_gamma(1.0, 1.0, Gamma(1, 0.5), cfg)
    assert sim.estimate_rate(traj, cfg).verdict == "diverging"
    cfg10 = sim.SimConfig(dt=0.01, horizon=10.0, history=sim.ConstantHistory(0.1))
    traj = sim.simulate_scalar_gamma(1.0, 0.0, Gamma(1, 0.5), cfg10)
    assert sim.estimate_rate(traj, cfg10).rate == pytest.approx(1.0, abs=0.01)


def _convolution_oracle(a, L, T, z0, horizon, h):
    """Heun scheme on the integro-differential form with trapezoid history.

    Integrates zdot = a z + L * I(t), I(t) = integral_0^inf z(t-s) e^(-s/T)/T ds
    with constant pre-history, evaluating the convolution directly from the
    stored trajectory (exact exponential tail for the history segment).
    Independent of the chain realization.
    """
    n = int(round(horizon / h))
    z = np.empty(n + 1, dtype=complex)
    z[0] = z0
    w = np.exp(-np.arange(n + 1) * h / T) / T  # kernel at the node offsets

    def conv(k, z_arr):
        # trapezoid over [0, t_k] plus the exact tail from constant history
        if k == 0:
            return z0 * 1.0
        seg = z_arr[k::-1] * w[: k + 1]
        integral = h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
        return integral + z0 * np.exp(-k * h / T)

    for k in range(n):
        I_k = conv(k, z)
        f1 = a * z[k] + L * I_k
        z_pred = z[k] + h * f1
        z[k + 1] = z_pred  # provisional for the convolution at k+1
        I_next = conv(k + 1, z)
        f2 = a * z_pred + L * I_next
        z[k + 1] = z[k] + 0.5 * h * (f1 + f2)
    return z


def test_chain_realization_matches_direct_convolution():
    rng = np.random.default_rng(77)
    for _ in range(5):
        a = rng.uniform(-1.0, -0.2)
        L = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        T = rng.uniform(0.3, 1.0)
        z0 = 1.0
        h = 0.002
        horizon = 20.0
        oracle = _convolution_oracle(a, L, T, z0, horizon, h)
        cfg = sim.SimConfig(dt=h, horizon=horizon, history=sim.ConstantHistory(z0))
        traj = sim.simulate_scalar_gamma(a, L, Gamma(1, T), cfg)
        assert traj.states.shape[0] == len(oracle)
        dev = np.max(np.abs(traj.states[:, 0] - oracle))
        assert dev < 1e-4


def test_carfollowing_ring_rates_straddle_critical_delay():
    tc = nw.carfollowing_Tc(1, 10, 1.0)
    cfg = sim.SimConfig(dt=0.01, horizon=200.0, history=sim.UniformHistory(3))
    _, est = sim.simulate_carfollowing(nw.Ring(10, 1.0), Gamma(1, 0.9 * tc), cfg)
    assert est.verdict == "converging"
    _, est = sim.simulate_carfollowing(nw.Ring(10, 1.0), Gamma(1, 1.1 * tc), cfg)
    assert est.verdict == "diverging"


def test_carfollowing_consensus_manifold_flagged():
    cfg = sim.SimConfig(dt=0.01, horizon=20.0, history=sim.ConstantHistory(0.7))
    _, est = sim.simulate_carfollowing(nw.Ring(6, 1.0), Gamma(1, 0.3), cfg)
    assert est.verdict == "inconclusive"
    assert est.note == "already_consensus"


def test_carfollowing_constant_history_emits_no_warning():
    # a complex constant, as the CLI builds it from [re, im]
    cfg = sim.SimConfig(dt=0.01, horizon=20.0, history=sim.ConstantHistory(0.7 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, _ = sim.simulate_carfollowing(nw.Ring(6, 1.0), Gamma(1, 0.3), cfg)
    assert np.all(traj.states == 0.7)


# each case: a batch of parameters holding one that blows up, its grid, and
# the rate of a single run
_GRID_CFG = sim.SimConfig(dt=0.01, horizon=40.0, history=sim.ConstantHistory(0.1))
_CAR_CFG = sim.SimConfig(dt=0.01, horizon=120.0, history=sim.UniformHistory(3))
_CAR_ALPHAS, _CAR_TS = np.array([1.0, 2.0]), np.array([0.3, 3.0])
_GRID_CASES = {
    "discrete": (
        [-1.5, -3.0, -9.0, -1.2 + 0.3j],
        lambda Ls: sim.scalar_discrete_rate_grid(1.0, 0.0, Ls, 0.5, _GRID_CFG),
        lambda L: sim.estimate_rate(sim.simulate_scalar_discrete(1.0, 0.0, L, 0.5, _GRID_CFG), _GRID_CFG).rate,
    ),
    "gamma": (
        [-3.0, -2.0 + 1.0j, -1.0 + 0.4j, 9.0],
        lambda Ls: sim.scalar_gamma_rate_grid(1.0, Ls, Gamma(2, 0.5), _GRID_CFG),
        lambda L: sim.estimate_rate(sim.simulate_scalar_gamma(1.0, L, Gamma(2, 0.5), _GRID_CFG), _GRID_CFG).rate,
    ),
    "carfollowing": (
        [(al, T) for al in _CAR_ALPHAS for T in _CAR_TS],  # the grid's cells, row-major
        lambda cells: sim.carfollowing_rate_grid(2, 10, _CAR_ALPHAS, _CAR_TS, _CAR_CFG).ravel(),
        lambda cell: sim.simulate_carfollowing(nw.Ring(10, cell[0]), Gamma(2, cell[1]), _CAR_CFG)[1].rate,
    ),
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_rate_grid_matches_single_runs(case):
    # a single run is a batch of one of the grid's integrator and rate fit
    params, grid, single = _GRID_CASES[case]
    rates = grid(params)
    assert np.isinf(rates).sum() == 1
    for p, rate in zip(params, rates):
        assert single(p) == rate


@pytest.mark.parametrize("keep_from", [0, 1, 2, 57, 100])
@pytest.mark.parametrize("rate", [-0.3, 40.0])  # at 40 every run blows up by step 36
def test_rk4_keeps_step_zero_and_the_window(keep_from, rate):
    def f(t, y):
        return rate * y

    y0 = np.array([1.0, 2.0])
    full, blow = sim._rk4(f, y0, 0.01, 100, 1e6, lambda y: y)
    kept, kept_blow = sim._rk4(f, y0, 0.01, 100, 1e6, lambda y: y, keep_from=keep_from)
    assert np.array_equal(kept, np.concatenate([full[:1], full[max(keep_from, 1):]]))
    assert np.array_equal(kept_blow, blow)


@pytest.mark.parametrize("case", ["discrete", "gamma"])
def test_blowup_freezes_only_its_column_scalar(case):
    params, grid, _ = _GRID_CASES[case]
    with_blowup = grid(params)
    blown = int(np.flatnonzero(np.isinf(with_blowup))[0])
    without = grid(params[:blown] + params[blown + 1:])
    assert np.isfinite(without).all()
    assert np.array_equal(np.delete(with_blowup, blown), without)


def test_blowup_freezes_only_its_column_carfollowing():
    # alpha = 2 blows up at T = 3; the alpha = 1 row runs with and without it
    with_blowup = sim.carfollowing_rate_grid(2, 10, _CAR_ALPHAS, _CAR_TS, _CAR_CFG)
    without = sim.carfollowing_rate_grid(2, 10, _CAR_ALPHAS[:1], _CAR_TS, _CAR_CFG)
    assert math.isinf(with_blowup[1, 1]) and np.isfinite(without).all()
    assert np.array_equal(with_blowup[:1], without)


def _reference_carfollowing_rhs(n, N, alphas, rate):
    """The car-following rhs on row-major state: the reference for the column-major one."""
    def rhs(t, y):
        C = len(y)
        x = y[:, :N]
        st = y[:, N:].reshape(C, n, N)
        dy = np.empty_like(y)
        dy[:, :N] = alphas * st[:, -1]
        ds = dy[:, N:].reshape(C, n, N)
        gap = np.empty_like(x)  # x[i + 1] - x[i], closing the ring at the end
        np.subtract(x[:, 1:], x[:, :-1], out=gap[:, :-1])
        np.subtract(x[:, :1], x[:, -1:], out=gap[:, -1:])
        ds[:, 0] = rate * (gap - st[:, 0])
        if n > 1:
            ds[:, 1:] = rate[:, :, None] * (st[:, :-1] - st[:, 1:])
        return dy

    return rhs


def _carfollowing_field(monkeypatch, n, N, alpha, rate, chain):
    """The rhs and initial state that ``_carfollowing_rk4`` hands the integrator."""
    seen = {}

    def capture(f, y0, *args, **kwargs):
        seen.update(f=f, y0=y0)
        return None, None

    monkeypatch.setattr(sim, "_rk4", capture)
    sim._carfollowing_rk4(n, N, alpha, rate, chain, sim.SimConfig(dt=0.01, horizon=1.0), lambda y: y)
    return seen["f"], seen["y0"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("chain", [False, True])
@pytest.mark.parametrize("C", [1, 7])
def test_carfollowing_rhs_matches_row_major_reference(monkeypatch, n, chain, C):
    N = 6
    rng = np.random.default_rng(100 * n + 10 * C + chain)
    alpha = rng.uniform(0.1, 2.0, (C, 1))
    rate = n / rng.uniform(0.1, 2.0, (C, 1))
    f, y0 = _carfollowing_field(monkeypatch, n, N, alpha, rate, chain)
    assert y0.shape == (C, (n + 1) * N) and y0.flags.f_contiguous
    alphas = np.repeat(alpha, N, axis=1)
    if chain:
        alphas[:, 0] = 0.0
    reference = _reference_carfollowing_rhs(n, N, alphas, rate)
    for _ in range(3):
        y = rng.standard_normal(y0.shape)
        dy = f(0.0, np.asfortranarray(y))
        assert dy.flags.f_contiguous
        assert dy.tobytes() == reference(0.0, y).tobytes()


@pytest.mark.parametrize("kind", ["real-C", "real-F", "complex"])
@pytest.mark.parametrize("delayed", [False, True])
def test_rk4_step_equals_the_textbook_combination(kind, delayed):
    rng = np.random.default_rng(11)
    y = rng.standard_normal((40, 25))
    if kind == "complex":
        y = y + 1j * rng.standard_normal(y.shape)
    if kind == "real-F":
        y = np.asfortranarray(y)
    g = rng.standard_normal(y.shape)
    z0, zm, z1 = (rng.standard_normal(y.shape) for _ in range(3))
    held = [a.copy() for a in (y, z0, zm, z1)]

    def f(t, y, z=0.0):
        return np.cos(np.abs(y)) * y * (1.0 + t) - g * y + 0.3 * z

    dt, t = 0.37, 1.25  # a long step, so the stage sum shows in y's last bits
    lag = ((z0,), lambda k1: (zm,), (z1,)) if delayed else sim._NO_LAG
    a0, am, a1 = ((z0,), (zm,), (z1,)) if delayed else ((), (), ())
    k1 = f(t, y, *a0)
    k2 = f(t + dt / 2, y + dt / 2 * k1, *am)
    k3 = f(t + dt / 2, y + dt / 2 * k2, *am)
    k4 = f(t + dt, y + dt * k3, *a1)
    expected = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    got = sim._rk4_step(f, t, y, dt, lag)
    assert np.isfinite(expected).all()
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    # the step writes into no array the caller holds
    for before, after in zip(held, (y, z0, zm, z1)):
        assert after.tobytes() == before.tobytes()


def test_carfollowing_state_stays_column_major():
    # the grid's alpha = 2, T = 3 run blows up, so the freeze path runs too
    A, Tv = np.meshgrid(_CAR_ALPHAS, _CAR_TS, indexing="ij")
    steps = []

    def observe(y):
        assert y.flags.f_contiguous
        steps.append(None)
        return sim._spread(y[:, :10])

    _, blow = sim._carfollowing_rk4(2, 10, A.reshape(-1, 1), 2 / Tv.reshape(-1, 1), False, _CAR_CFG, observe)
    assert (blow >= 0).tolist() == [False, False, False, True]
    assert len(steps) == sim._n_steps(_CAR_CFG.horizon, _CAR_CFG.dt) + 1


def test_blowup_freezes_only_its_column_mas():
    cfg = sim.SimConfig(dt=0.01, horizon=60.0, history=sim.UniformHistory(1))
    Js = [-2.0 * np.eye(6), nw.network_matrix(nw.RandomNet(6, 2.0, 0.1, seed=1)), -0.5 * np.eye(6)]
    blowing = 50.0 * np.eye(6)
    without = sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, 0.05, np.stack(Js), cfg)
    with_blowup = sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, 0.05, np.stack(Js[:2] + [blowing] + Js[2:]), cfg)
    assert without.tolist() == [True, True, False]
    assert with_blowup.tolist() == [True, True, False, False]
    assert sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, blowing, cfg).trajectory.blowup is not None


def test_mas_diagonal_decouples_to_membership():
    cfg = sim.SimConfig(dt=0.01, horizon=120.0, history=sim.UniformHistory(1))
    F = presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, 0.05)
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, -2.0 * np.eye(12), cfg)
    assert res.stabilized == (membership(F, -2.0).verdict == "stable") == True  # noqa: E712
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, -0.5 * np.eye(12), cfg)
    assert res.stabilized is False
    assert membership(F, -0.5).verdict == "unstable"


def test_mas_negative_delay_rejected():
    cfg = sim.SimConfig(dt=0.01, horizon=10.0, history=sim.UniformHistory(1))
    with pytest.raises(ValueError, match="nonnegative"):
        sim.simulate_mas(1.0, 1.0, 1.0, 1.1, -0.5, -2.0 * np.eye(3), cfg)
    with pytest.raises(ValueError, match="nonnegative"):
        sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, -0.5, -2.0 * np.eye(3)[None], cfg)


def test_mas_zero_noise_random_net():
    # alpha = 0 collapses the random net to -R I: decoupled identical agents
    J = nw.network_matrix(nw.RandomNet(40, 2.0, 0.0, seed=9))
    cfg = sim.SimConfig(dt=0.01, horizon=120.0, history=sim.UniformHistory(2))
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, J, cfg)
    assert res.stabilized


def test_mas_ensemble_transition():
    ac = nw.alpha_c(1.0, 1.0, 1.0, 1.1, 0.05, 2.0, 40)
    cfg = sim.SimConfig(dt=0.01, horizon=150.0, history=sim.UniformHistory(0))
    low = np.stack([nw.network_matrix(nw.RandomNet(40, 2.0, 0.7 * ac, seed=s)) for s in range(10)])
    high = np.stack([nw.network_matrix(nw.RandomNet(40, 2.0, 1.4 * ac, seed=s)) for s in range(10)])
    ok_low = sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, 0.05, low, cfg)
    ok_high = sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, 0.05, high, cfg)
    assert ok_low.sum() >= 8
    assert ok_high.sum() <= 2


def test_mas_t_zero_undelayed():
    cfg = sim.SimConfig(dt=0.01, horizon=100.0, history=sim.UniformHistory(4))
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.0, -2.0 * np.eye(8), cfg)
    # lam^2 + 1.2 lam + 1 = 0: damped oscillator, stabilizes
    assert res.stabilized


@pytest.mark.parametrize("T", [0.05, 0.15, 0.0])
def test_mas_ensemble_matches_direct_integrator(T):
    # a constant history gives every run of a stack the initial state of its
    # single run, so the modal ensemble and simulate_mas compare seed for seed
    N, R = 30, 2.0
    ac = nw.alpha_c(1.0, 1.0, 1.0, 1.1, T, R, N)
    cfg = sim.SimConfig(dt=0.01, horizon=40.0, history=sim.ConstantHistory(0.3))
    Js = [nw.network_matrix(nw.RandomNet(N, R, f * ac, seed=s)) for f in (0.7, 0.95, 1.05, 1.4) for s in range(3)]
    # the leader chain is defective and takes the direct integrator, -R I has one
    # repeated eigenvalue, and the modes of 50 I overflow
    Js = np.stack(Js[:6] + [nw.network_matrix(nw.Chain(N, 1.0)), -R * np.eye(N)] + Js[6:] + [50.0 * np.eye(N)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, T, Js, cfg)
    mu, V = np.linalg.eig(Js)
    modal = np.linalg.cond(V) <= sim._MODAL_MAX_COND
    assert np.flatnonzero(~modal).tolist() == [6]
    n_steps = sim._n_steps(cfg.horizon, cfg.dt)
    x0, v0 = sim._mas_initial(cfg, len(Js), N)
    tail = sim._mas_modal_tail(1.0, 1.0, 1.0, 1.1, T, mu[modal], V[modal], x0[modal], v0[modal], n_steps, cfg.dt)
    tails = dict(zip(np.flatnonzero(modal), tail.T))
    compared = 0
    for i, J in enumerate(Js):
        res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, T, J, cfg)
        assert verdicts[i] == res.stabilized, f"run {i}"
        if i in tails and res.trajectory.blowup is None:
            direct = np.linalg.norm(res.trajectory.states[sim._mas_tail_start(n_steps):], axis=1)
            np.testing.assert_allclose(tails[i], direct, rtol=1e-9, atol=0.0, err_msg=f"run {i}")
            compared += 1
    assert verdicts[:3].all() and verdicts[7] and not verdicts[-4:].any()
    assert compared >= 10


def test_kuramoto_free_rotators_dephase():
    cfg = sim.SimConfig(dt=0.01, horizon=20.0)
    res = sim.simulate_kuramoto(400, 0.0, 0.0, 0.0, 0.0, ("constant", 0.5), cfg, seed=11, control_on=1e9)
    tail = np.abs(res.r[res.times >= 15.0]).mean()
    assert tail < 2.5 / math.sqrt(400)


def test_kuramoto_sync_level():
    cfg = sim.SimConfig(dt=0.01, horizon=20.0)
    res = sim.simulate_kuramoto(200, 4.0, 0.0, 0.0, 0.0, ("constant", 0.5), cfg, seed=11, control_on=1e9)
    tail = np.abs(res.r[res.times >= 15.0]).mean()
    assert tail == pytest.approx(math.sqrt(1 - 2 / 4.0), abs=0.08)


def test_kuramoto_rotational_invariance():
    cfg = sim.SimConfig(dt=0.01, horizon=5.0)
    shift = 1.2345
    a = sim.simulate_kuramoto(50, 4.0, -2.0, 1.0, 0.5, ("constant", 0.3), cfg, seed=3, control_on=2.0)
    b = sim.simulate_kuramoto(50, 4.0, -2.0, 1.0, 0.5, ("constant", 0.3), cfg, seed=3, control_on=2.0,
                              phase_shift=shift)
    assert np.max(np.abs(np.abs(b.r) - np.abs(a.r))) < 1e-9
    dphi = np.angle(b.r / a.r)
    assert np.max(np.abs(dphi - shift)) < 1e-9


def test_kuramoto_sampler_bookkeeping():
    cfg = sim.SimConfig(dt=0.01, horizon=1.0)
    res = sim.simulate_kuramoto(100, 4.0, -1.0, 0.0, 0.0, ("exponential", 0.5), cfg, seed=2, control_on=0.0)
    assert 0.0 <= res.truncated_fraction < 0.05
    assert res.resampled_delays >= 0
    with pytest.raises(ValueError):
        sim.simulate_kuramoto(10, 1.0, 0.0, 0.0, 0.0, ("weibull", 0.5), cfg, seed=0)


def test_kuramoto_snapshots():
    cfg = sim.SimConfig(dt=0.01, horizon=1.0)
    res = sim.simulate_kuramoto(30, 2.0, 0.0, 0.0, 0.0, ("constant", 0.2), cfg, seed=1, snapshot_every=20)
    assert res.phases.shape == (len(res.phase_times), 30)
    assert res.phase_times[0] == 0.0


def _reference_kuramoto_run(theta, omega, M, K, C, S, dt, n_steps, control_on, snapshot_every):
    """The plain loop: full (n_steps + 1) x N histories and a 2-D clamped gather."""
    N = len(theta)
    TH = np.empty((n_steps + 1, N))
    TH[0] = theta
    EH = np.empty((n_steps + 1, N), dtype=complex)
    EH[0] = np.exp(1j * theta)
    r_series = np.empty(n_steps + 1, dtype=complex)
    r_series[0] = EH[0].mean()
    cols = np.broadcast_to(np.arange(N)[None, :], (N, N))
    snaps, snap_times = [], []
    if snapshot_every > 0:
        snaps.append(theta.copy())
        snap_times.append(0.0)
    for k in range(n_steps):
        t = k * dt
        th = TH[k]
        if t >= control_on - 1e-12:
            E = EH[np.maximum(k - M, 0), cols]
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
        TH[k + 1] = th + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        EH[k + 1] = np.exp(1j * TH[k + 1])
        r_series[k + 1] = EH[k + 1].mean()
        if snapshot_every > 0 and (k + 1) % snapshot_every == 0:
            snaps.append(TH[k + 1].copy())
            snap_times.append((k + 1) * dt)
    return r_series, snap_times, snaps


# the 50 s constant delay outlasts the 8 s horizon, so the window is capped
# at n_steps; the others move the window several times
@pytest.mark.parametrize("delays", [("constant", 0.3), ("exponential", 0.5), ("constant", 50.0)])
@pytest.mark.parametrize("control_on", [0.0, 0.3, 1e9])
@pytest.mark.parametrize("snapshot_every", [0, 7])
def test_kuramoto_window_matches_reference_loop(monkeypatch, delays, control_on, snapshot_every):
    _assert_kuramoto_matches_reference_loop(monkeypatch, delays, control_on, snapshot_every)


def _assert_kuramoto_matches_reference_loop(monkeypatch, delays, control_on, snapshot_every):
    cfg = sim.SimConfig(dt=0.01, horizon=8.0)

    def run():
        return sim.simulate_kuramoto(40, 4.0, -4.0, 1.0, 0.3, delays, cfg, seed=3,
                                     control_on=control_on, snapshot_every=snapshot_every)

    new = run()
    monkeypatch.setattr(sim, "_kuramoto_run", _reference_kuramoto_run)
    ref = run()
    assert np.array_equal(new.r, ref.r)
    assert np.array_equal(new.phases, ref.phases)
    assert np.array_equal(new.phase_times, ref.phase_times)


# 7 rows of 40 complex values per block: five full blocks and a ragged one of 5 rows
@pytest.mark.parametrize("delays", [("constant", 0.3), ("exponential", 0.5)])
@pytest.mark.parametrize("control_on", [0.0, 0.3])
def test_kuramoto_blocked_gather_matches_reference_loop(monkeypatch, delays, control_on):
    monkeypatch.setattr(sim, "_GATHER_BYTES", 7 * 16 * 40)
    _assert_kuramoto_matches_reference_loop(monkeypatch, delays, control_on, 7)


def test_conj_of_exp_matches_exp_of_negated_phase():
    # the population's rhs takes exp(-1j x) as conj(exp(1j x)); flag a platform
    # where the two differ in a bit
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.uniform(-10.0, 10.0, 200_000),
        rng.uniform(-1e6, 1e6, 20_000),
        rng.standard_normal(20_000) * 1e15,
        np.ldexp(rng.uniform(0.5, 1.0, 2_000), rng.integers(-1074, 1024, 2_000)) * rng.choice([-1.0, 1.0], 2_000),
        [0.0, 5e-324, -5e-324, np.pi, -np.pi, 2.0**52, -(2.0**52), 1e300, -1e300],
    ])
    same = np.conj(np.exp(1j * x)).view(np.uint64) == np.exp(-1j * x).view(np.uint64)
    assert same.all(), x[~same.reshape(-1, 2).all(axis=1)][:5]
    # at x = -0.0, 1j * x is (-0, +0) and -1j * x is (+0, +0): the results
    # differ only in the sign of a zero imaginary part
    z = np.array([-0.0])
    assert np.conj(np.exp(1j * z)) == np.exp(-1j * z)


@pytest.mark.parametrize("delays", [("constant", 1e300), ("exponential", 1e300), ("exponential", 1e16),
                                    ("constant", sys.float_info.max), ("exponential", sys.float_info.max)])
def test_kuramoto_delays_beyond_int64_steps_freeze_the_history(delays):
    # every delay past the 2 s horizon reads the initial phases all run long, as a
    # constant delay of 1e3 does; a huge mean used to wrap to INT64_MIN (a 1-step
    # delay) or, for a constant delay, raise OverflowError
    cfg = sim.SimConfig(dt=0.01, horizon=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = sim.simulate_kuramoto(20, 4.0, -4.0, 1.0, 0.0, ("constant", 1e3), cfg, seed=5, control_on=0.0)
        res = sim.simulate_kuramoto(20, 4.0, -4.0, 1.0, 0.0, delays, cfg, seed=5, control_on=0.0)
    assert np.array_equal(res.r, ref.r)


def test_kuramoto_memory_bounded_by_window_and_one_table():
    # exponential delays of mean 0.5 reach beyond the 2 s horizon, so the
    # window holds 2 (n_steps + 1) rows; the old N x N complex gather buffer
    # and float delay table alone took 24 N^2 bytes
    N, cfg = 400, sim.SimConfig(dt=0.01, horizon=2.0)
    window = 2 * (sim._n_steps(cfg.horizon, cfg.dt) + 1) * N * 16
    bound = window + 8 * N * N + 2 * sim._GATHER_BYTES + (1 << 20)
    tracemalloc.start()
    try:
        sim.simulate_kuramoto(N, 4.0, -16.0, 2.0, 0.0, ("exponential", 0.5), cfg, seed=42, control_on=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_kuramoto_history_memory_bounded_by_delay():
    # 10000 steps of N = 40 with a 5-step delay: (n_steps + 1) x N phase
    # histories would take 9.6 MB, the 12-row window under 8 kB
    cfg = sim.SimConfig(dt=0.01, horizon=100.0)
    tracemalloc.start()
    try:
        sim.simulate_kuramoto(40, 4.0, -4.0, 1.0, 0.0, ("constant", 0.05), cfg, seed=1, control_on=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


# N = 800 gathers the table in ragged blocks of 81 rows
@pytest.mark.parametrize("N", [2, 37, 800])
@pytest.mark.parametrize("tau", [0.3, 50.0])
def test_kuramoto_constant_delay_matches_full_table(monkeypatch, N, tau):
    # a constant delay reaches _kuramoto_run as one 0-d step count; the same
    # count spread over an explicit N x N table gives the same run bit for bit
    cfg = sim.SimConfig(dt=0.01, horizon=1.0)
    real = sim._kuramoto_run
    shapes = []

    def spy(theta, omega, M, *rest):
        shapes.append(M.shape)
        return real(theta, omega, M, *rest)

    def with_table(theta, omega, M, *rest):
        return real(theta, omega, np.full((len(theta), len(theta)), M), *rest)

    def run(patch):
        monkeypatch.setattr(sim, "_kuramoto_run", patch)
        return sim.simulate_kuramoto(N, 4.0, -1.0, -3.0, 2.5, ("constant", tau), cfg, seed=7,
                                     control_on=0.3, snapshot_every=7)

    new, ref = run(spy), run(with_table)
    assert shapes == [()]
    assert np.array_equal(new.r, ref.r)
    assert np.array_equal(new.phases, ref.phases)


def test_kuramoto_constant_delay_memory_holds_no_table():
    # N = 2000: an N x N int64 table alone would take 32 MB
    N, cfg = 2000, sim.SimConfig(dt=0.01, horizon=2.0)
    window = 2 * (round(0.5 / cfg.dt) + 1) * N * 16
    tracemalloc.start()
    try:
        sim.simulate_kuramoto(N, 4.0, -1.0, -3.0, 2.5, ("constant", 0.5), cfg, seed=42, control_on=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < window + 2 * sim._GATHER_BYTES + (1 << 20)


def test_fig16_series_csvs_match_reference_loop(tmp_path, monkeypatch):
    cfg_path = tmp_path / "fig16.json"
    cfg_path.write_text(json.dumps({"figure": "fig16-series", "case": "a", "N": 40, "horizon": 12.0}))

    def run(name):
        assert cli_main(["reproduce", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        return tmp_path / name

    new = run("new")
    monkeypatch.setattr(sim, "_kuramoto_run", _reference_kuramoto_run)
    ref = run("ref")
    for name in ("order_parameter.csv", "phase_snapshots.csv"):
        assert (new / name).read_bytes() == (ref / name).read_bytes()


def test_oa_control_switch_keeps_fourth_order():
    # the feedback switches on at t = 10; the reference integrates the two
    # smooth pieces separately
    K, L, T, t_on, horizon = 4.0, -8.0 + 1.0j, 0.5, 10.0, 20.0
    lin = complex(K / 2.0 - 1.0, 0.0)

    def field(Lt):
        def rhs(t, y):
            r, eta = y
            dr = lin * r + Lt * eta - (K / 2.0) * abs(r) ** 2 * r - np.conj(Lt) * r**2 * np.conj(eta)
            return [dr, (r - eta) / T]

        return rhs

    def reference(times):
        tol = dict(method="DOP853", rtol=1e-11, atol=1e-14)
        pre = times <= t_on
        a = solve_ivp(field(0j), (0.0, t_on), [0.1 + 0j, 0.1 + 0j], t_eval=times[pre], dense_output=True, **tol)
        b = solve_ivp(field(L), (t_on, horizon), a.sol(t_on), t_eval=times[~pre], **tol)
        return np.concatenate([a.y[0], b.y[0]])

    errs = []
    for dt in (0.01, 0.005, 0.0025):
        cfg = sim.SimConfig(dt=dt, horizon=horizon)
        traj = sim.simulate_oa(K, 0.0, L, Exponential(T), cfg, control_on=t_on)
        errs.append(np.max(np.abs(np.abs(traj.states[:, 0]) - np.abs(reference(traj.times)))))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_oa_dirac_control_switch_self_converges():
    def final(dt):
        cfg = sim.SimConfig(dt=dt, horizon=12.0)
        return sim.simulate_oa(4.0, 0.0, -1.0 + 0.5j, Dirac(0.5), cfg, r0=0.3, control_on=10.0).states[-1, 0]

    e1 = abs(final(0.01) - final(0.005))
    e2 = abs(final(0.005) - final(0.0025))
    assert e1 / e2 >= 8.0


def test_oa_off_grid_switch_snaps_to_next_step():
    cfg = sim.SimConfig(dt=0.01, horizon=3.0)
    on_grid = sim.simulate_oa(4.0, 0.0, -8.0 + 1.0j, Exponential(0.5), cfg, control_on=1.01)
    off_grid = sim.simulate_oa(4.0, 0.0, -8.0 + 1.0j, Exponential(0.5), cfg, control_on=1.004)
    assert np.array_equal(on_grid.states, off_grid.states)


def test_oa_fixed_point():
    cfg = sim.SimConfig(dt=0.01, horizon=30.0)
    traj = sim.simulate_oa(4.0, 0.0, 0.0, Dirac(0.5), cfg, r0=0.3)
    assert abs(traj.states[-1, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-6)
    traj = sim.simulate_oa(4.0, 0.0, 0.0, Exponential(0.5), cfg, r0=0.3)
    assert abs(traj.states[-1, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_oa_stabilized_when_gain_in_region():
    # (K/2 - 1) T = 0.5 < 1 and L inside the unbounded stable region
    cfg = sim.SimConfig(dt=0.01, horizon=40.0)
    traj = sim.simulate_oa(4.0, 0.0, -8.0 + 1.0j, Exponential(0.5), cfg, r0=0.5)
    assert abs(traj.states[-1, 0]) < 1e-3
    F = presets.oscillator_mode(4.0, 0.0, Exponential(0.5))
    assert membership(F, -8.0 + 1.0j).verdict == "stable"


def test_oa_blowup_flagged_unphysical():
    cfg = sim.SimConfig(dt=0.01, horizon=40.0)
    traj = sim.simulate_oa(4.0, 0.0, 3.0, Exponential(0.2), cfg, r0=0.5)
    if traj.blowup is not None:
        assert np.max(np.abs(traj.states)) <= 10.0 * 1.5


def test_estimate_rate_pure_exponential():
    t = np.arange(0, 20, 0.01)
    traj = sim.Trajectory(times=t, states=np.exp(-2.0 * t)[:, None])
    est = sim.estimate_rate(traj, sim.SimConfig())
    assert est.rate == pytest.approx(-2.0, abs=1e-3)
    assert est.r_squared > 0.999
    assert est.verdict == "converging"


def test_estimate_rate_oscillatory():
    t = np.arange(0, 20, 0.01)
    traj = sim.Trajectory(times=t, states=(np.exp(0.5 * t) * np.cos(5 * t))[:, None])
    est = sim.estimate_rate(traj, sim.SimConfig())
    assert est.rate == pytest.approx(0.5, abs=0.05)
    assert est.verdict == "diverging"


def test_estimate_rate_constant_inconclusive():
    t = np.arange(0, 20, 0.01)
    traj = sim.Trajectory(times=t, states=np.full((len(t), 1), 0.7))
    est = sim.estimate_rate(traj, sim.SimConfig())
    assert abs(est.rate) < 1e-12
    assert est.verdict == "inconclusive"


def test_estimate_rate_sentinels():
    t = np.arange(0, 5, 0.01)
    traj = sim.Trajectory(times=t, states=np.ones((len(t), 1)), blowup=4.0)
    est = sim.estimate_rate(traj, sim.SimConfig())
    assert est.verdict == "diverging" and math.isinf(est.rate)
    states = np.zeros((len(t), 1))
    states[: len(t) // 4] = 1.0
    traj = sim.Trajectory(times=t, states=states)
    est = sim.estimate_rate(traj, sim.SimConfig())
    assert est.verdict == "converging" and est.rate == -math.inf


def test_fit_rates_do_not_depend_on_the_block(monkeypatch):
    # ten columns: growing, decaying, oscillating, partly masked, constant and
    # too sparse to fit; blocks of one column, of three (a ragged last one of
    # one) and the whole batch
    rng = np.random.default_rng(5)
    t = np.arange(400) * 0.05
    w = np.exp(rng.uniform(-2.0, 2.0, 10)[None, :] * t[:, None]) * (1.0 + 0.3 * np.cos(3.0 * t))[:, None]
    w[rng.uniform(size=w.shape) < 0.2] = 0.0
    w[:50, 3] = np.nan
    w[:, 4] = 0.7
    w[:300, 5] = -1.0
    fits = []
    for block in (len(t), 3 * len(t), 1 << 30):
        monkeypatch.setattr(sim, "_FIT_BLOCK", block)
        fits.append([v.view(np.uint64) for v in sim._fit_rates(t, w)])
    assert np.isnan(sim._fit_rates(t, w)[0][5])
    for other in fits[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(fits[0], other))


def test_estimate_rate_needs_samples():
    t = np.arange(0, 1, 0.01)
    traj = sim.Trajectory(times=t, states=np.ones((len(t), 1)))
    with pytest.raises(ValueError):
        sim.estimate_rate(traj, sim.SimConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        sim.SimConfig(rate_window_fraction=1.5)
    for field in ("dt", "horizon"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                sim.SimConfig(**{field: value})
    for value in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate_tol must be nonnegative and finite"):
            sim.SimConfig(rate_tol=value)
