"""Self-tests of the benchmark: oracles on known cases, tiny runs of each workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # as run.py does
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_discrete_delay_counts_known_cases():
    # zdot = z + L z(t - 1/2): NU = 1 at L = 0, stable at -1.5, NU = 2 at -3
    assert oracles.nu_discrete(1.0, 0.0, 0.5) == 1
    assert oracles.nu_discrete(1.0, -1.5, 0.5) == 0
    assert oracles.nu_discrete(1.0, -3.0, 0.5) == 2
    # the leaf region of a tau = 1/2 ends at L = -a = -1
    assert oracles.nu_discrete(1.0, [-1.01, -0.99], 0.5).tolist() == [0, 1]


def test_lambert_roots_solve_the_equation():
    A, L, tau = 0.3 + 0.7j, -1.2 + 0.4j, 1.5
    lam = oracles.lambert_roots(A, L, tau)
    res = oracles.residual_discrete(A, tau, lam, L)
    assert np.max(np.abs(res) / np.maximum(1.0, np.abs(lam))) < 1e-8
    assert len(np.unique(np.round(lam, 6))) == lam.size


def test_polynomial_roots_match_numpy_roots():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
    got = oracles.poly_roots(c)
    for row, r in zip(c, got):
        assert oracles.multiset_distance(r, np.roots(row)) < 1e-10


def test_gamma_and_pd_polynomials_clear_the_kernel():
    L = np.array([-2.0 + 1.0j, 0.5 - 3.0j])
    lam = oracles.poly_roots(oracles.gamma_poly(1.0, 2, 1.5, L))
    assert np.abs(oracles.residual_gamma(1.0, 2, 1.5, lam, L[:, None])).max() < 1e-9
    lam = oracles.poly_roots(oracles.pd_poly(1.0, 1.0, 1.0, 1.1, 0.3, L))
    assert np.abs(oracles.residual_pd(1.0, 1.0, 1.0, 1.1, 0.3, lam, L[:, None])).max() < 1e-9
    # exponential kernel, a = 1, T = 1/2 at L = 0: roots 1 and -2
    assert oracles.nu_poly(oracles.gamma_poly(1.0, 1, 0.5, 0.0)) == 1


@pytest.mark.parametrize("n,N,alpha", [(1, 5, 0.5), (2, 10, 1.0), (3, 7, 2.0)])
def test_ring_critical_delay_matches_closed_form(n, N, alpha):
    t = math.tan(math.pi / (N * n))
    exact = n * t * (1.0 + t * t) ** (n / 2.0) / (2.0 * alpha * math.sin(math.pi / N))
    assert abs(oracles.carfollowing_Tc(n, N, alpha) - exact) <= 1e-9 * exact


def test_alpha_c_matches_a_dense_grid():
    a, b, k1, k2, T, R, N = 1.0, 1.0, 1.0, 1.1, 0.05, 2.0, 100
    beta = np.linspace(-10.0, 10.0, 1_000_001)
    dense = np.sqrt(3.0 / N) * np.abs(oracles.pd_crossing(a, b, k1, k2, T, beta) + R).min()
    got = oracles.alpha_c(a, b, k1, k2, T, R, N)
    assert got <= dense and dense - got < 1e-9


def test_pd_network_abscissa_reduces_to_the_mode_cubic():
    mus = np.array([-2.0, -1.0 + 0.5j, -1.0 - 0.5j])
    J = np.diag(mus.real)
    J[1, 2], J[2, 1] = 0.5, -0.5  # real block with eigenvalues -1 +- 0.5i
    got = oracles.spectral_abscissa(oracles.pd_network_matrix(J, 1.0, 1.0, 1.0, 1.1, 0.2))
    want = oracles.abscissa_poly(oracles.pd_poly(1.0, 1.0, 1.0, 1.1, 0.2, mus)).max()
    assert abs(got - want) < 1e-10


def test_pd_agent_critical_delays():
    import workloads

    assert workloads.PD_TC1 == Fraction(1, 10)
    assert workloads.PD_TC2 == Fraction(11, 21)


def test_order_parameter():
    assert oracles.order_parameter(np.full((1, 5), 0.3))[0] == pytest.approx(1.0)
    assert oracles.order_parameter(np.linspace(0, 2 * np.pi, 4, endpoint=False)[None, :])[0] < 1e-15


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--seed", "1", "--seconds", "1", "--scale", "smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_result(out, metrics):
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_end_to_end(workload):
    out = _run("--workload", workload, "--trace", "0")
    _assert_result(out, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_run_traced():
    out = _run("--workload", "oscillators", "--trace", "1")
    _assert_result(out, SPEC["per_layer"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["cli.main.calls"] == 1 and m["simulate.simulate_kuramoto.pair_lookups_per_s"] > 0
    assert m["regions.nu_contour.calls"] == 2 and m["io.bytes"] > 0
