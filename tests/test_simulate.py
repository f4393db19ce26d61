import json
import math
import tracemalloc

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


def test_carfollowing_grid_matches_single_runs():
    cfg = sim.SimConfig(dt=0.01, horizon=120.0, history=sim.UniformHistory(3))
    tc = nw.carfollowing_Tc(1, 10, 1.0)
    Ts = np.array([0.8 * tc, 1.2 * tc])
    grid = sim.carfollowing_rate_grid(1, 10, np.array([1.0]), Ts, cfg)
    for j, T in enumerate(Ts):
        _, est = sim.simulate_carfollowing(nw.Ring(10, 1.0), Gamma(1, float(T)), cfg)
        if math.isinf(grid[0, j]):
            assert est.rate > 0.05
        else:
            assert grid[0, j] == pytest.approx(est.rate, abs=1e-9)


def test_mas_diagonal_decouples_to_membership():
    cfg = sim.SimConfig(dt=0.01, horizon=120.0, history=sim.UniformHistory(1))
    F = presets.pd_agent_mode(1.0, 1.0, 1.0, 1.1, 0.05)
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, -2.0 * np.eye(12), cfg)
    assert res.stabilized == (membership(F, -2.0).verdict == "stable") == True  # noqa: E712
    res = sim.simulate_mas(1.0, 1.0, 1.0, 1.1, 0.05, -0.5 * np.eye(12), cfg)
    assert res.stabilized is False
    assert membership(F, -0.5).verdict == "unstable"


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
