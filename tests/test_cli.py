import copy
import csv
import json
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaystab import cli, presets
from delaystab import io as dio
from delaystab.cli import main
from delaystab.kernels import KERNEL, kernel_from_dict
from delaystab.networks import NETWORK
from delaystab.schema import Validator, check


def run(tmp_path, command, config, *flags, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"out_{name}"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *flags])
    return code, out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


def test_scc_growth_feedback(tmp_path):
    code, out = run(
        tmp_path,
        "scc",
        {"preset": "growth-feedback", "beta": {"lo": -10, "hi": 10, "step": 0.05}, "window": [-4, 4, -4, 4]},
    )
    assert code == 0
    rows = read_csv(out / "branch_000.csv")
    row0 = min(rows, key=lambda r: abs(float(r["beta"])))
    assert float(row0["re_L"]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row0["im_L"]) == pytest.approx(0.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scc"
    assert "config_sha256" in manifest and "wall_time_s" in manifest


def test_scc_leaf_theta_prime_minimum(tmp_path):
    code, out = run(
        tmp_path,
        "scc",
        {
            "preset": "scalar-discrete",
            "params": {"a": 1.0, "d": 0.0, "tau": 0.5},
            "beta": {"lo": -8, "hi": 8, "step": 0.05},
            "window": [-3.5, 0.5, -2, 2],
        },
    )
    assert code == 0
    rows = read_csv(out / "branch_000.csv")
    tps = [(float(r["theta_prime"]), float(r["beta"])) for r in rows if r["theta_prime"] != "nan"]
    tp_min, beta_at = min(tps)
    assert tp_min == pytest.approx(0.5 - 1.0, abs=1e-9)  # tau - 1/a
    assert beta_at == pytest.approx(0.0, abs=1e-9)


def test_malformed_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    out = tmp_path / "out"
    assert main(["scc", "--config", str(p), "--out", str(out)]) == 2


def test_unknown_field_exit_2(tmp_path):
    code, _ = run(tmp_path, "scc", {"beta": {"lo": 0, "hi": 1, "step": 0.1}, "bogus": 1})
    assert code == 2


def test_zero_horizon_exit_2(tmp_path):
    code, _ = run(
        tmp_path,
        "simulate",
        {
            "model": "scalar-discrete",
            "params": {"a": 1.0, "d": 0.0, "L": [-1.5, 0.0], "tau": 0.5},
            "sim": {"dt": 0.01, "horizon": 0},
        },
    )
    assert code == 2


@pytest.mark.parametrize("model, params", [
    ("scalar-discrete", {"a": -1, "d": 0, "L": [0.2, 0], "tau": 0.5}),
    ("carfollowing", {"network": {"kind": "ring", "n": 5, "alpha": 1.0}, "n": 1, "T": 0.5}),
])
def test_short_fit_window_exit_2_writes_nothing(tmp_path, model, params):
    # a 1.0 horizon leaves 51 samples in the rate fit window, 100 are needed
    code, out = run(tmp_path, "simulate", {"model": model, "params": params, "sim": {"dt": 0.01, "horizon": 1.0}})
    assert code == 2
    assert list(out.iterdir()) == []


def test_carfollowing_on_random_network_exit_2_writes_nothing(tmp_path):
    # car-following is defined on the ring and the leader chain only
    params = {"n": 1, "T": 0.3, "network": {"kind": "random", "n": 5, "R": 2.0, "alpha": 0.1, "seed": 1}}
    code, out = run(tmp_path, "simulate", {"model": "carfollowing", "params": params,
                                           "sim": {"dt": 0.01, "horizon": 20.0}})
    assert code == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, change", [
    ("numap", {"window": [1, 0, -2, 2]}),
    ("numap", {"resolution": [0, 11]}),
    ("scc", {"beta": {"lo": 2, "hi": -2, "step": 0.1}}),
    ("scc", {"beta": {"lo": -2, "hi": 2, "step": 0}}),
], ids=["inverted-window", "zero-resolution", "reversed-beta", "zero-step"])
def test_bad_geometry_exit_2_writes_nothing(tmp_path, command, change):
    config = {"preset": "growth-feedback", "beta": {"lo": -2, "hi": 2, "step": 0.1}}
    if command == "numap":
        config.update(window=[-1, 1, -1, 1], resolution=[11, 11])
    config.update(change)
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert list(out.iterdir()) == []


def test_numap_pd_agent_negative_delay_exit_2_writes_nothing(tmp_path):
    config = {"preset": "pd-agent", "params": {"a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": -0.5},
              "window": [-6, 1, -3, 3], "resolution": [11, 11]}
    code, out = run(tmp_path, "numap", config)
    assert code == 2
    assert list(out.iterdir()) == []


def test_simulate_mas_negative_delay_exit_2_writes_nothing(tmp_path):
    params = {"a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": -0.5, "network": {"kind": "ring", "n": 5, "alpha": 1.0}}
    code, out = run(tmp_path, "simulate", {"model": "mas", "params": params, "sim": {"dt": 0.01, "horizon": 10.0}})
    assert code == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("tau", [True, "x", None, [0.5]], ids=["bool", "string", "null", "list"])
def test_preset_non_number_param_exit_2_writes_nothing(tmp_path, capsys, tau):
    config = {"preset": "scalar-discrete", "params": {"a": 1.0, "d": 0.0, "tau": tau},
              "beta": {"lo": -2, "hi": 2, "step": 0.1}}
    code, out = run(tmp_path, "scc", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"invalid preset 'scalar-discrete' params: {tau!r} is not of type 'number' (at tau)\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("n, message", [(2.0, "2.0 is not of type 'integer'"), (0, "0 is less than the minimum of 1"),
                                        (10**400, f"{10**400} is greater than the maximum of {sys.float_info.max!r}")],
                         ids=["float", "zero", "huge"])
def test_preset_gamma_shape_exit_2_writes_nothing(tmp_path, capsys, n, message):
    config = {"preset": "scalar-gamma", "params": {"a": 1.0, "n": n, "T": 0.5},
              "window": [-1, 1, -1, 1], "resolution": [5, 5]}
    code, out = run(tmp_path, "numap", config)
    assert code == 2
    assert capsys.readouterr().err == f"invalid preset 'scalar-gamma' params: {message} (at n)\n"
    assert list(out.iterdir()) == []


_HUGE = 10**400
# a bad kernel, the message that rejects it, and the path of the bad field within the kernel
_BAD_KERNELS = [
    (5, "5 is not of type 'object'", ""),
    ({"kind": "dirac", "tau": True}, "True is not of type 'number'", "tau"),
    ({"kind": "exponential", "T": "x"}, "'x' is not of type 'number'", "T"),
    ({"tau": 0.5}, "'kind' is a required property", ""),
    ({"kind": "gamma", "n": 1.5, "T": 1.0}, "1.5 is not of type 'integer'", "n"),
    ({"kind": "gamma", "n": 2.0, "T": 1.0}, "2.0 is not of type 'integer'", "n"),
    ({"kind": "dirac", "tau": _HUGE}, f"{_HUGE} is greater than the maximum of {sys.float_info.max!r}", "tau"),
    ({"kind": "gamma", "n": _HUGE, "T": 1.0}, f"{_HUGE} is greater than the maximum of {sys.float_info.max!r}", "n"),
]
_BAD_KERNEL_IDS = ["int", "bool-tau", "string-T", "missing-kind", "fractional-n", "float-n", "huge-tau", "huge-n"]


@pytest.mark.parametrize("kernel, message, at", _BAD_KERNELS, ids=_BAD_KERNEL_IDS)
def test_preset_bad_kernel_exit_2_writes_nothing(tmp_path, capsys, kernel, message, at):
    config = {"preset": "coupling-mode", "params": {"kernel": kernel}, "window": [-1, 1, -1, 1], "resolution": [5, 5]}
    code, out = run(tmp_path, "numap", config)
    assert code == 2
    path = "/".join(["kernel", at]).rstrip("/")
    assert capsys.readouterr().err == f"invalid preset 'coupling-mode' params: {message} (at {path})\n"
    assert list(out.iterdir()) == []


# NaN is no JSON number, so only a Python caller can pass it; no minimum or maximum catches it
_NAN_KERNELS = [
    ({"kind": "dirac", "tau": float("nan")}, "nan is not of type 'number'", "tau"),
    ({"kind": "uniform", "a": 0.1, "A": float("nan")}, "nan is not of type 'number'", "A"),
    ({"kind": "gamma", "n": 2, "T": np.float64("nan")}, f"{np.float64('nan')!r} is not of type 'number'", "T"),
]


@pytest.mark.parametrize("kernel, message, at", _BAD_KERNELS + _NAN_KERNELS,
                         ids=_BAD_KERNEL_IDS + ["nan-tau", "nan-A", "nan-T"])
def test_bad_kernel_fails_kernel_from_dict(kernel, message, at):
    # the library and the CLI check a kernel by the one schema, kernels.KERNEL
    with pytest.raises(ValueError) as e:
        kernel_from_dict(kernel)
    assert str(e.value) == f"invalid kernel: {message} (at {at})"


@pytest.mark.parametrize("name, params, field", [
    ("scalar-discrete", {"a": 1.0, "d": 0.0, "tau": float("nan")}, "tau"),
    ("scalar-discrete", {"a": float("nan"), "d": 0.0, "tau": 0.5}, "a"),
    ("scalar-gamma", {"a": 1.0, "n": 2, "T": float("nan")}, "T"),
    ("pd-agent", {"a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": np.float64("nan")}, "T"),
    ("oscillator-mode", {"K": float("nan"), "d": 0.0, "kernel": {"kind": "dirac", "tau": 0.5}}, "K"),
])
def test_preset_nan_param_fails_preset_charfun(name, params, field):
    with pytest.raises(ValueError) as e:
        presets.preset_charfun(name, params)
    assert str(e.value) == f"invalid preset {name!r} params: {params[field]!r} is not of type 'number' (at {field})"


def test_preset_huge_int_param_exit_2_writes_nothing(tmp_path, capsys):
    # an integer no float can hold used to escape as an OverflowError (exit 1)
    config = {"preset": "scalar-discrete", "params": {"a": 1.0, "d": 0.0, "tau": _HUGE},
              "beta": {"lo": -2, "hi": 2, "step": 0.1}}
    code, out = run(tmp_path, "scc", config)
    assert code == 2
    assert capsys.readouterr().err == (f"invalid preset 'scalar-discrete' params: {_HUGE} is greater than the maximum "
                                       f"of {sys.float_info.max!r} (at tau)\n")
    assert list(out.iterdir()) == []


def test_missing_preset_and_system_exit_2(tmp_path):
    code, _ = run(tmp_path, "scc", {"beta": {"lo": 0, "hi": 1, "step": 0.1}})
    assert code == 2


_SYSTEM = {"Q": [[[[1.0, 0.0]]]], "B": [[[[0.0, 0.0], [1.0, 0.0]]]], "kernel": {"kind": "dirac", "tau": 0.5}}


@pytest.mark.parametrize("command, extra", [
    ("scc", {"beta": {"lo": -2, "hi": 2, "step": 0.1}}),
    ("numap", {"window": [-1, 1, -1, 1], "resolution": [5, 5]}),
])
@pytest.mark.parametrize("source, message", [
    ({"params": {"a": 1.0, "d": 0.0, "tau": 0.5}, "system": _SYSTEM}, "'preset' is a dependency of 'params'"),
    ({"preset": "growth-feedback", "system": _SYSTEM}, "is valid under each of"),
], ids=["params-beside-system", "preset-and-system"])
def test_system_with_preset_or_params_exit_2_writes_nothing(tmp_path, capsys, command, extra, source, message):
    # params given beside a system used to be ignored, and the run exited 0
    code, out = run(tmp_path, command, {**source, **extra})
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_numap_unstable_product_has_no_stable_cells(tmp_path):
    code, out = run(
        tmp_path,
        "numap",
        {
            "preset": "scalar-discrete",
            "params": {"a": 1.0, "d": 0.0, "tau": 1.5},
            "window": [-3, 3, -3, 3],
            "resolution": [21, 21],
        },
    )
    assert code == 0
    rows = read_csv(out / "numap.csv")
    assert all(int(r["nu"]) != 0 for r in rows)
    assert json.loads((out / "boundaries.json").read_text()) == []


def test_numap_full_oracle_flag_identical(tmp_path):
    cfg = {
        "preset": "growth-feedback",
        "window": [-4, 4, -4, 4],
        "resolution": [15, 15],
    }
    code, out_a = run(tmp_path, "numap", cfg, name="a.json")
    assert code == 0
    code, out_b = run(tmp_path, "numap", cfg, "--full-oracle", name="b.json")
    assert code == 0
    assert (out_a / "numap.csv").read_text() == (out_b / "numap.csv").read_text()


def test_critical_mas_values(tmp_path):
    code, out = run(tmp_path, "critical", {"which": "mas", "a": 1, "b": 1, "k1": 1, "k2": 1.1})
    assert code == 0
    doc = json.loads((out / "critical.json").read_text())
    assert doc["Tc1"] == pytest.approx(0.1, abs=1e-15)
    assert doc["Tc2"] == pytest.approx(1.1 / 2.1, abs=1e-12)


def test_critical_chain_infinite(tmp_path):
    code, out = run(tmp_path, "critical", {"which": "chain", "n": 1, "alpha": 0.7})
    assert code == 0
    assert json.loads((out / "critical.json").read_text())["Tc"] == "inf"


def test_critical_carfollowing_high_precision(tmp_path):
    code, out = run(tmp_path, "critical", {"which": "carfollowing", "n": 2, "N": 5, "alpha": 1.0})
    assert code == 0
    got = json.loads((out / "critical.json").read_text())["Tc"]
    mpmath.mp.dps = 40
    t = mpmath.tan(mpmath.pi / 10)
    oracle = 2 * t * (1 + t**2) / (2 * mpmath.sin(mpmath.pi / 5))
    assert got == pytest.approx(float(oracle), rel=1e-12)


@pytest.mark.parametrize("config", [
    {"which": "carfollowing", "n": 0, "N": 5, "alpha": 1.0},
    {"which": "chain", "n": 1, "alpha": -1.0},
    {"which": "mas", "a": 1, "b": 0, "k1": 1, "k2": 1.1},
    {"which": "alpha_c", "a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": 0.1, "R": 2.0, "N": 0},
    {"which": "alpha_c", "a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": -0.5, "R": 2, "N": 50},
], ids=["carfollowing", "chain", "mas", "alpha_c", "alpha_c-negative-delay"])
def test_critical_bad_value_exit_2_writes_nothing(tmp_path, config):
    code, out = run(tmp_path, "critical", config)
    assert code == 2
    assert list(out.iterdir()) == []


def test_simulate_writes_rate_and_determinism(tmp_path):
    cfg = {
        "model": "scalar-discrete",
        "params": {"a": 1.0, "d": 0.0, "L": [-1.5, 0.0], "tau": 0.5},
        "sim": {"dt": 0.01, "horizon": 20.0, "history": {"kind": "constant", "value": [0.1, 0.0]}},
    }
    code, out_a = run(tmp_path, "simulate", cfg, name="s1.json")
    assert code == 0
    rate = json.loads((out_a / "rate.json").read_text())
    assert rate["verdict"] == "converging"
    code, out_b = run(tmp_path, "simulate", cfg, name="s2.json")
    assert (out_a / "trajectory.csv").read_text() == (out_b / "trajectory.csv").read_text()
    assert (out_a / "rate.json").read_text() == (out_b / "rate.json").read_text()


def test_simulate_kuramoto_deterministic(tmp_path):
    cfg = {
        "model": "kuramoto",
        "params": {"N": 40, "K": 4.0, "C": -4.0, "S": 1.0, "d": 0.0,
                   "delays": {"kind": "exponential", "value": 0.4}, "control_on": 2.0},
        "sim": {"dt": 0.01, "horizon": 5.0},
        "seed": 9,
    }
    code, out_a = run(tmp_path, "simulate", cfg, name="k1.json")
    assert code == 0
    code, out_b = run(tmp_path, "simulate", cfg, name="k2.json")
    assert (out_a / "order_parameter.csv").read_text() == (out_b / "order_parameter.csv").read_text()


def test_simulate_mas_network_config(tmp_path):
    cfg = {
        "model": "mas",
        "params": {"a": 1.0, "b": 1.0, "k1": 1.0, "k2": 1.1, "T": 0.05,
                   "network": {"kind": "random", "n": 20, "R": 2.0, "alpha": 0.05, "seed": 4}},
        "sim": {"dt": 0.01, "horizon": 100.0},
    }
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    assert json.loads((out / "stabilized.json").read_text())["stabilized"] is True
    spec_rows = read_csv(out / "spectrum.csv")
    assert len(spec_rows) == 20  # one eigenvalue per agent


def test_reproduce_fig12_small(tmp_path):
    code, out = run(
        tmp_path,
        "reproduce",
        {"figure": "fig12-heat", "grid": [6, 6], "horizon": 60.0, "n": 1, "N": 5},
    )
    assert code == 0
    rows = read_csv(out / "rates.csv")
    assert len(rows) == 36
    tc_rows = read_csv(out / "analytic_Tc.csv")
    assert len(tc_rows) == 6
    # sign structure: small T converges, large T diverges for mid alphas
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(float(r["alpha"]), []).append((float(r["T"]), float(r["value"])))
    alphas = sorted(by_alpha)
    hi_alpha = by_alpha[alphas[-1]]
    assert min(hi_alpha)[1] < 0  # smallest T converges
    assert max(hi_alpha)[1] > 0  # largest T diverges


@pytest.mark.parametrize("config, name", [
    ({"figure": "fig12-heat", "grid": [3, 3], "horizon": 20.0, "N": 5}, "analytic_Tc.csv"),
    ({"figure": "fig15-heat", "grid": [3, 3], "seeds": 1, "N": 6, "horizon": 20.0}, "analytic_alpha_c.csv"),
], ids=["fig12", "fig15"])
def test_reproduce_analytic_csv_plain_floats(tmp_path, config, name):
    code, out = run(tmp_path, "reproduce", config)
    assert code == 0
    lines = (out / name).read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)


def test_reproduce_fig16_small(tmp_path):
    code, out = run(tmp_path, "reproduce", {"figure": "fig16-series", "case": "a", "N": 60, "horizon": 14.0})
    assert code == 0
    snaps = read_csv(out / "phase_snapshots.csv")
    assert len(snaps) > 10 and len(snaps[0]) == 61  # t plus one column per oscillator
    rows = read_csv(out / "order_parameter.csv")
    pre = [float(r["abs_r"]) for r in rows if 8.0 <= float(r["t"]) <= 10.0]
    post = [float(r["abs_r"]) for r in rows if float(r["t"]) >= 12.0]
    assert np.mean(pre) > 0.5
    assert np.mean(post) < np.mean(pre)


def test_cli_rejects_unknown_figure(tmp_path):
    code, _ = run(tmp_path, "reproduce", {"figure": "fig99"})
    assert code == 2


# --- one schema per variant: every bad value exits 2 before any computation ---

def write_literal(path, config):
    """Write ``config`` as JSON, the string "1e400" as that literal: the parser reads it as inf."""
    path.write_text(json.dumps(config).replace('"1e400"', "1e400"))


def run_literal(tmp_path, command, config):
    cfg_path = tmp_path / "cfg.json"
    write_literal(cfg_path, config)
    out = tmp_path / "out"
    return main([command, "--config", str(cfg_path), "--out", str(out)]), out


def assert_rejected(tmp_path, code, out):
    assert code == 2
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]  # no temp dir left behind


_SD = {"a": 1.0, "d": 0.0, "L": [-1.5, 0.0], "tau": 0.5}
_KURAMOTO = {"N": 40, "K": 4.0, "C": -4.0, "S": 1.0, "d": 0.0, "delays": {"kind": "exponential", "value": 0.4},
             "control_on": 2.0}
_SIM = {"dt": 0.01, "horizon": 20.0, "history": {"kind": "uniform", "seed": 3, "amplitude": 0.5},
        "rate_window_fraction": 0.5, "rate_tol": 0.01}

# one valid config per variant, with every optional field set
VALID = {
    ("simulate", "scalar-discrete"): {"model": "scalar-discrete", "params": _SD, "sim": _SIM},
    ("simulate", "scalar-gamma"): {"model": "scalar-gamma", "params": {"a": 1.0, "L": [-1.5, 0.5], "n": 2, "T": 0.3},
                                   "sim": _SIM},
    ("simulate", "carfollowing"): {"model": "carfollowing", "sim": _SIM, "params": {
        "network": {"kind": "ring", "n": 5, "alpha": 1.0}, "n": 1, "T": 0.5}},
    ("simulate", "mas"): {"model": "mas", "sim": _SIM, "params": {
        "a": 1.0, "b": 1.0, "k1": 1.0, "k2": 1.1, "T": 0.05,
        "network": {"kind": "random", "n": 20, "R": 2.0, "alpha": 0.05, "seed": 4}}},
    ("simulate", "kuramoto"): {"model": "kuramoto", "params": _KURAMOTO, "sim": _SIM, "seed": 9},
    ("simulate", "oa"): {"model": "oa", "sim": _SIM, "params": {
        "K": 4.0, "d": 0.0, "L": [-8.0, 1.0], "kernel": {"kind": "exponential", "T": 0.5}, "r0": [0.1, 0.0],
        "control_on": 5.0}},
    ("reproduce", "fig7-heat"): {"figure": "fig7-heat", "grid": [5, 5], "horizon": 20.0, "d": 0.5},
    ("reproduce", "fig9-heat"): {"figure": "fig9-heat", "grid": [5, 5], "horizon": 20.0},
    ("reproduce", "fig12-heat"): {"figure": "fig12-heat", "grid": [3, 3], "horizon": 20.0, "n": 1, "N": 5},
    ("reproduce", "fig15-heat"): {"figure": "fig15-heat", "grid": [3, 3], "horizon": 20.0, "R": 2.0, "N": 6,
                                  "seeds": 1},
    ("reproduce", "fig16-series"): {"figure": "fig16-series", "case": "b", "N": 40, "horizon": 12.0, "seeds": 5},
    ("critical", "carfollowing"): {"which": "carfollowing", "n": 2, "N": 5, "alpha": 1.0},
    ("critical", "chain"): {"which": "chain", "n": 2, "alpha": 0.7},
    ("critical", "mas"): {"which": "mas", "a": 1, "b": 1, "k1": 1, "k2": 1.1},
    ("critical", "alpha_c"): {"which": "alpha_c", "a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": 0.05, "R": 2.0, "N": 50},
}


def test_every_variant_has_a_valid_config_that_validates():
    assert {v for _, v in VALID} == set(cli._SIMULATE) | set(cli._REPRODUCE) | set(cli._CRITICAL)
    for (command, _), config in VALID.items():
        check(config, cli._COMMANDS[command][0], f"{command} config")


def test_schemas_are_valid_json_schemas():
    library = [KERNEL, NETWORK] + [s for _, s in presets._PRESETS.values()]
    for schema in [s for s, _ in cli._COMMANDS.values()] + library:
        Validator.check_schema(schema)


@pytest.mark.parametrize("command, config", [
    ("simulate", {"model": "scalar-discrete", "params": {**_SD, "a": "x"}}),
    ("simulate", {"model": "scalar-discrete", "params": {**_SD, "a": True}}),
    ("simulate", {"model": "scalar-discrete", "params": {**_SD, "L": [1]}}),
    ("simulate", {"model": "scalar-discrete", "params": {**_SD, "bogus": 1}}),
    ("simulate", {"model": "mas", "params": {"a": 1, "b": 1, "k1": 1, "k2": 1.1, "T": 0.1,
                                             "network": {"kind": "ring", "n": 5.7, "alpha": 1.0}}}),
    ("simulate", {"model": "kuramoto", "params": {**_KURAMOTO, "delays": {"kind": "constant", "value": -1}}}),
    ("reproduce", {"figure": "fig7-heat", "grid": [0, 0]}),
    ("reproduce", {"figure": "fig15-heat", "seeds": 0}),
    ("reproduce", {"figure": "fig7-heat", "horizon": -1}),
    ("reproduce", {"figure": "fig12-heat", "n": 0}),
    ("reproduce", {"figure": "fig16-series", "N": 1}),
    ("critical", {"which": "carfollowing", "n": 2, "N": 5, "alpha": "1e400"}),
    ("critical", {"which": "chain", "n": _HUGE, "alpha": 1.0}),
    ("critical", {"which": "mas", "a": float("nan"), "b": 1, "k1": 1, "k2": 1.1}),
    ("critical", {"which": "mas", "a": 1, "b": 1, "k1": 1, "k2": 1.1, "N": 5}),
], ids=["string", "bool", "short-pair", "unknown-param", "fractional-ring", "negative-delay", "zero-grid",
        "zero-seeds", "negative-horizon", "zero-n", "one-oscillator", "1e400", "huge-count", "NaN", "stray-N"])
def test_bad_variant_value_exit_2_writes_nothing(tmp_path, command, config):
    assert_rejected(tmp_path, *run_literal(tmp_path, command, config))


def _fields(config):
    """Paths of the fields a variant config sets, the discriminator aside."""
    paths = [(k,) for k in config if k not in ("model", "figure", "which")]
    for block in ("params", "sim"):
        paths += [(block, k) for k in config.get(block, {})]
    return paths


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_bad_field_exit_2_writes_nothing(tmp_path_factory, data):
    (command, _), config = data.draw(st.sampled_from(sorted(VALID.items())))
    path = data.draw(st.sampled_from(_fields(config)))
    value = data.draw(st.sampled_from(["x", True, False, None, [], [1.0], "1e400"]))
    config = copy.deepcopy(config)
    parent = config
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    tmp_path = tmp_path_factory.mktemp("bad_field")
    assert_rejected(tmp_path, *run_literal(tmp_path, command, config))


def _draw_simulate_config(rng, model):
    """A schema-valid simulate config of ``model`` at a cheap size: short horizons, few agents, short chains."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def pair(r):
        return [u(-r, r), u(-r, r)]

    def maybe(**fields):
        return {k: v for k, v in fields.items() if rng.random() < 0.7}

    def network(*kinds):
        kind = str(rng.choice(kinds))
        n = int(rng.integers(2, 7))
        fields = {
            "ring": lambda: {"n": n, "alpha": u(0.05, 3.0)},
            "chain": lambda: {"n": n, "alpha": u(0.05, 3.0)},
            # mostly a zero diagonal: a nonzero one is schema-valid but no Laplacian's weights (exit 2)
            "laplacian": lambda: {"weights": (rng.uniform(0.0, 2.0, (n, n)).round(3)
                                              * (1 - np.eye(n) * (rng.random() < 0.8))).tolist()},
            "random": lambda: {"n": int(rng.integers(1, 7)), "R": u(0.1, 3.0), "alpha": u(0.0, 1.0),
                               "seed": int(rng.integers(0, 100))},
        }[kind]()
        return {"kind": kind, **fields}

    def kernel():
        return [lambda: {"kind": "dirac", "tau": u(0.02, 1.0)},
                lambda: {"kind": "exponential", "T": u(0.02, 1.0)},
                lambda: {"kind": "gamma", "n": int(rng.integers(1, 4)), "T": u(0.02, 1.0)},
                lambda: {"kind": "uniform", "a": u(0.0, 0.3), "A": u(0.3, 1.0)}][rng.integers(4)]()

    params = {
        "scalar-discrete": lambda: {"a": u(-2, 2), "d": u(-2, 2), "L": pair(4.0), "tau": u(0.02, 1.5)},
        "scalar-gamma": lambda: {"a": u(-2, 2), "L": pair(4.0), "n": int(rng.integers(1, 4)), "T": u(0.02, 1.5)},
        "carfollowing": lambda: {"network": network("ring", "chain"), "n": int(rng.integers(1, 4)),
                                 "T": u(0.02, 2.0)},
        "mas": lambda: {"a": u(-2, 2), "b": u(-2, 2), "k1": u(-2, 2), "k2": u(-2, 2),
                        "T": float(rng.choice([0.0, u(0.01, 0.5)])),
                        "network": network("ring", "chain", "laplacian", "random")},
        "kuramoto": lambda: {"N": int(rng.integers(2, 7)), "K": u(-5, 5), "C": u(-5, 5), "S": u(-5, 5),
                             "d": u(-3, 3), **maybe(control_on=u(-1.0, 6.0)),
                             "delays": {"kind": str(rng.choice(["constant", "exponential"])), "value": u(0.01, 1.0)}},
        "oa": lambda: {"K": u(-5, 5), "d": u(-3, 3), "L": pair(6.0), "kernel": kernel(),
                       **maybe(r0=pair(0.5), control_on=u(-1.0, 6.0))},
    }[model]()
    history = [lambda: {"kind": "constant", **maybe(value=pair(1.0))},
               lambda: {"kind": "uniform", **maybe(seed=int(rng.integers(0, 100)), amplitude=u(-2.0, 2.0))}]
    # dt and horizon are always set, as their defaults (0.01, 50) are no cheap size; at dt = 0.05
    # the rate fit's window mostly holds fewer than its 100 samples, so most of those runs exit 2
    sim = {"dt": float(rng.choice([0.02, 0.05])), "horizon": u(3.0, 6.0),
           **maybe(history=history[rng.integers(2)](), rate_window_fraction=u(0.5, 0.95), rate_tol=u(0.0, 0.1))}
    config = {"model": model, "params": params, "sim": sim}
    if model == "kuramoto":
        config.update(maybe(seed=int(rng.integers(0, 100))))
    return config


@pytest.mark.parametrize("seed", range(60))
def test_valid_simulate_config_exits_cleanly(tmp_path, capsys, seed):
    # any schema-valid config exits 0, 1 or 2 without a traceback, and --out gets all or nothing
    model = sorted(cli._SIMULATE)[seed % len(cli._SIMULATE)]
    config = _draw_simulate_config(np.random.default_rng(seed), model)
    check(config, cli._COMMANDS["simulate"][0], "simulate config")
    code, out = run(tmp_path, "simulate", config)
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    files = sorted(p.name for p in out.iterdir())
    if code == 0:
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert files == sorted(listed + ["manifest.json"])
    else:
        assert files == []


def test_readme_examples_validate():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    configs = {name: json.loads(body) for body, name in re.findall(r"echo '(\{.*?\})' > (\S+)", text, re.S)}
    runs = re.findall(r"delaystab (\w+) --config (\S+)", text)
    assert len(runs) >= 5 and {name for _, name in runs} == set(configs)
    for command, name in runs:
        check(configs[name], cli._COMMANDS[command][0], f"{command} config")


def test_blown_up_rate_json_is_strict_json(tmp_path):
    def no_constant(name):
        raise ValueError(f"bare {name}")

    cfg = {"model": "scalar-discrete", "params": {**_SD, "L": [5, 0]}, "sim": {"dt": 0.01, "horizon": 20.0}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    rate = json.loads((out / "rate.json").read_text(), parse_constant=no_constant)
    assert rate == {"rate": "inf", "r_squared": 1.0, "verdict": "diverging", "note": "blow_up"}


def test_simulate_oa_uniform_kernel_exit_2_writes_nothing(tmp_path, capsys):
    params = {"K": 4.0, "d": 0.0, "L": [-1.0, 0.0], "kernel": {"kind": "uniform", "a": 0.1, "A": 0.5}}
    code, out = run(tmp_path, "simulate", {"model": "oa", "params": params})
    assert code == 2
    assert "needs a Dirac or exponential kernel" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_numap_tiny_beta_step_exit_1_writes_nothing(tmp_path, capsys):
    config = {"preset": "growth-feedback", "window": [-1, 1, -1, 1], "resolution": [5, 5],
              "beta": {"lo": -2, "hi": 2, "step": 1e-300}}
    code, out = run(tmp_path, "numap", config)
    assert code == 1
    assert "trace exceeded" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_write_leaves_out_empty(tmp_path, monkeypatch):
    # fig12 writes rates.csv, then analytic_Tc.csv: fail the second
    config = {"figure": "fig12-heat", "grid": [2, 2], "horizon": 5.0, "N": 5}
    code, out = run(tmp_path, "reproduce", config, name="ok.json")
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["analytic_Tc.csv", "manifest.json", "rates.csv"]

    write, written = dio.write_columns_csv, []

    def disk_full(path, *args, **kwargs):
        if written:
            raise OSError("disk full")
        written.append(path.name)
        write(path, *args, **kwargs)

    monkeypatch.setattr(dio, "write_columns_csv", disk_full)
    code, out = run(tmp_path, "reproduce", config)
    assert written == ["rates.csv"]
    assert code == 1
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ok.json", "out_cfg.json", "out_ok.json"]


def test_eigen_solver_failure_exit_1_writes_nothing(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, but it is a numerical failure, not a bad config
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    config = {"figure": "fig15-heat", "grid": [1, 1], "horizon": 5.0, "N": 4, "seeds": 1}
    code, out = run(tmp_path, "reproduce", config)
    assert code == 1
    assert "runtime failure: LinAlgError" in capsys.readouterr().err
    assert list(out.iterdir()) == []
