"""Command-line front end: JSON experiment configs in, CSV/JSON artifacts out.

Subcommands: scc | numap | critical | simulate | reproduce.  Every run
validates its config against a schema (unknown fields rejected), writes its
artifacts into --out, and finishes with a manifest.json echoing the resolved
configuration, a content hash, wall time, and the library version.  Exit
codes: 0 success, 1 runtime numerical failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import io as dio
from . import networks as nw
from . import presets
from . import simulate as sim
from .charfun import CharFun, build_charfun
from .kernels import kernel_from_dict
from .regions import nu_map, stability_region, trace_covering
from .scc import trace


class ConfigError(ValueError):
    pass


_NUM = {"type": "number"}
_POLY = {"type": "array", "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}}
_KERNEL = {
    "type": "object",
    "properties": {"kind": {"type": "string"}, "tau": _NUM, "a": _NUM, "A": _NUM, "n": {"type": "integer"}, "T": _NUM},
    "required": ["kind"],
    "additionalProperties": False,
}
_SYSTEM = {
    "type": "object",
    "properties": {
        "Q": {"type": "array", "items": {"type": "array", "items": _POLY}},
        "B": {"type": "array", "items": {"type": "array", "items": _POLY}},
        "kernel": _KERNEL,
    },
    "required": ["Q", "B", "kernel"],
    "additionalProperties": False,
}
_BETA = {
    "type": "object",
    "properties": {"lo": _NUM, "hi": _NUM, "step": _NUM},
    "required": ["lo", "hi", "step"],
    "additionalProperties": False,
}
_WINDOW = {"type": "array", "items": _NUM, "minItems": 4, "maxItems": 4}
_SIM = {
    "type": "object",
    "properties": {
        "dt": _NUM,
        "horizon": _NUM,
        "history": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["constant", "uniform"]},
                "value": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
                "seed": {"type": "integer"},
                "amplitude": _NUM,
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "rate_window_fraction": _NUM,
        "rate_tol": _NUM,
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "scc": {
        "type": "object",
        "properties": {
            "preset": {"type": "string"},
            "params": {"type": "object"},
            "system": _SYSTEM,
            "beta": _BETA,
            "window": _WINDOW,
        },
        "required": ["beta"],
        "additionalProperties": False,
    },
    "numap": {
        "type": "object",
        "properties": {
            "preset": {"type": "string"},
            "params": {"type": "object"},
            "system": _SYSTEM,
            "window": _WINDOW,
            "resolution": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            "beta": _BETA,
        },
        "required": ["window", "resolution"],
        "additionalProperties": False,
    },
    "critical": {
        "type": "object",
        "properties": {
            "which": {"enum": ["carfollowing", "chain", "mas", "alpha_c"]},
            "n": {"type": "integer"},
            "N": {"type": "integer"},
            "alpha": _NUM,
            "a": _NUM,
            "b": _NUM,
            "k1": _NUM,
            "k2": _NUM,
            "T": _NUM,
            "R": _NUM,
        },
        "required": ["which"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "model": {"enum": ["scalar-discrete", "scalar-gamma", "carfollowing", "mas", "kuramoto", "oa"]},
            "params": {"type": "object"},
            "sim": _SIM,
            "seed": {"type": "integer"},
        },
        "required": ["model", "params"],
        "additionalProperties": False,
    },
    "reproduce": {
        "type": "object",
        "properties": {
            "figure": {"enum": ["fig7-heat", "fig9-heat", "fig12-heat", "fig15-heat", "fig16-series"]},
            "grid": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            "seeds": {"type": "integer"},
            "N": {"type": "integer"},
            "horizon": _NUM,
            "case": {"enum": ["a", "b"]},
            "d": _NUM,
            "n": {"type": "integer"},
            "R": _NUM,
        },
        "required": ["figure"],
        "additionalProperties": False,
    },
}


def _validate(command: str, config: dict) -> None:
    if jsonschema is None:
        raise ConfigError("jsonschema is required for config validation")
    try:
        jsonschema.validate(config, _SCHEMAS[command])
    except jsonschema.ValidationError as e:
        raise ConfigError(f"invalid {command} config: {e.message} (at {'/'.join(map(str, e.path))})")


def _charfun_from_config(config: dict) -> CharFun:
    if ("preset" in config) == ("system" in config):
        raise ConfigError("exactly one of 'preset' or 'system' must be given")
    if "preset" in config:
        try:
            return presets.preset_charfun(config["preset"], config.get("params", {}))
        except (ValueError, TypeError) as e:
            raise ConfigError(str(e))
    sysd = config["system"]

    def grid(rows):
        return [[[complex(re, im) for re, im in entry] for entry in row] for row in rows]

    try:
        return build_charfun(grid(sysd["Q"]), grid(sysd["B"]), kernel_from_dict(sysd["kernel"]))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))


def _check_geometry(config: dict) -> None:
    """Reject an empty beta range, a nonpositive step, an unordered window or a map under 2x2."""
    if "beta" in config:
        b = config["beta"]
        if not b["hi"] > b["lo"]:
            raise ConfigError(f"empty beta range: lo={b['lo']} must be below hi={b['hi']}")
        if not b["step"] > 0:
            raise ConfigError(f"beta step must be positive, got {b['step']}")
    if "window" in config:
        re_lo, re_hi, im_lo, im_hi = config["window"]
        if not (re_hi > re_lo and im_hi > im_lo):
            raise ConfigError(f"window must be [re_lo, re_hi, im_lo, im_hi] with lo < hi, got {config['window']}")
    if "resolution" in config and min(config["resolution"]) < 2:
        raise ConfigError(f"resolution must be at least 2x2, got {config['resolution']}")


def _sim_config(doc: dict) -> sim.SimConfig:
    doc = dict(doc or {})
    hist = None
    if "history" in doc:
        h = doc.pop("history")
        if h["kind"] == "constant":
            re, im = h.get("value", [0.1, 0.0])
            hist = sim.ConstantHistory(complex(re, im))
        else:
            hist = sim.UniformHistory(seed=h.get("seed", 0), amplitude=h.get("amplitude", 1.0))
    try:
        return sim.SimConfig(history=hist, **doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def _pmap(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def cmd_scc(config: dict, out: Path, args) -> List[str]:
    _check_geometry(config)
    F = _charfun_from_config(config)
    b = config["beta"]
    window = tuple(config["window"]) if "window" in config else None
    branches = trace(F, b["lo"], b["hi"], b["step"], window=window)
    outputs = []
    for i, br in enumerate(branches):
        name = f"branch_{i:03d}.csv"
        dio.write_branch_csv(out / name, br)
        outputs.append(name)
    return outputs


def cmd_numap(config: dict, out: Path, args) -> List[str]:
    _check_geometry(config)
    F = _charfun_from_config(config)
    window = tuple(config["window"])
    nx, ny = config["resolution"]
    if "beta" in config:
        b = config["beta"]
        branches = trace(F, b["lo"], b["hi"], b["step"], window=window)
    else:
        branches = trace_covering(F, window)
    m = nu_map(F, window, (nx, ny), branches, full_oracle=args.full_oracle)
    dio.write_numap_csv(out / "numap.csv", m)
    dio.write_boundaries_json(out / "boundaries.json", stability_region(m))
    return ["numap.csv", "boundaries.json"]


def cmd_critical(config: dict, out: Path, args) -> List[str]:
    which = config["which"]

    def need(*names):
        missing = [k for k in names if k not in config]
        if missing:
            raise ConfigError(f"critical/{which} missing parameters: {missing}")
        return [config[k] for k in names]

    try:
        if which == "carfollowing":
            n, N, alpha = need("n", "N", "alpha")
            doc = {"Tc": nw.carfollowing_Tc(n, N, alpha)}
        elif which == "chain":
            n, alpha = need("n", "alpha")
            tc = nw.chain_Tc(n, alpha)
            doc = {"Tc": "inf" if np.isinf(tc) else tc}
        elif which == "mas":
            a, b, k1, k2 = need("a", "b", "k1", "k2")
            doc = {"Tc1": nw.mas_Tc1(a, b, k1, k2), "Tc2": nw.mas_Tc2(a, k1, k2)}
        else:
            a, b, k1, k2, T, R, N = need("a", "b", "k1", "k2", "T", "R", "N")
            doc = {"alpha_c": nw.alpha_c(a, b, k1, k2, T, R, N)}
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as e:
        # the closed forms raise these only for parameter values outside
        # their domain (n < 1, alpha <= 0, b = 0, N = 0, an unstable anchor)
        raise ConfigError(f"critical/{which}: {type(e).__name__}: {e}")
    (out / "critical.json").write_text(json.dumps(doc, indent=1) + "\n")
    return ["critical.json"]


def cmd_simulate(config: dict, out: Path, args) -> List[str]:
    model = config["model"]
    p = dict(config["params"])
    cfg = _sim_config(config.get("sim"))
    outputs = []

    def ship(traj, rate=None):
        est = rate if rate is not None else sim.estimate_rate(traj, cfg)
        dio.write_trajectory_csv(out / "trajectory.csv", traj)
        outputs.append("trajectory.csv")
        (out / "rate.json").write_text(
            json.dumps(
                {"rate": est.rate, "r_squared": est.r_squared, "verdict": est.verdict, "note": est.note},
                indent=1,
            )
            + "\n"
        )
        outputs.append("rate.json")

    try:
        if model == "scalar-discrete":
            traj = sim.simulate_scalar_discrete(p["a"], p["d"], complex(*p["L"]), p["tau"], cfg)
            ship(traj)
        elif model == "scalar-gamma":
            from .kernels import Gamma

            traj = sim.simulate_scalar_gamma(p["a"], complex(*p["L"]), Gamma(p["n"], p["T"]), cfg)
            ship(traj)
        elif model == "carfollowing":
            from .kernels import Gamma

            net = nw.network_from_dict(p["network"])
            traj, est = sim.simulate_carfollowing(net, Gamma(p["n"], p["T"]), cfg)
            ship(traj, est)
        elif model == "mas":
            net = nw.network_from_dict(p["network"])
            J = nw.network_matrix(net)
            res = sim.simulate_mas(p["a"], p["b"], p["k1"], p["k2"], p["T"], J, cfg)
            ship(res.trajectory)
            (out / "stabilized.json").write_text(json.dumps({"stabilized": res.stabilized}) + "\n")
            outputs.append("stabilized.json")
            mu = nw.spectrum(net).eigenvalues
            dio.write_columns_csv(out / "spectrum.csv", ["re", "im"], mu.real, mu.imag)
            outputs.append("spectrum.csv")
        elif model == "kuramoto":
            res = sim.simulate_kuramoto(
                p["N"], p["K"], p["C"], p["S"], p["d"],
                (p["delays"]["kind"], p["delays"]["value"]),
                cfg, seed=config.get("seed", 0), control_on=p.get("control_on", 10.0),
            )
            dio.write_kuramoto_csv(out / "order_parameter.csv", res)
            outputs.append("order_parameter.csv")
        elif model == "oa":
            traj = sim.simulate_oa(
                p["K"], p["d"], complex(*p["L"]), kernel_from_dict(p["kernel"]), cfg,
                r0=complex(*p.get("r0", [0.1, 0.0])), control_on=p.get("control_on"),
            )
            ship(traj)
    except KeyError as e:
        raise ConfigError(f"simulate/{model} missing parameter {e}")
    except ValueError as e:
        # each ValueError on this path rejects a parameter value: a kernel,
        # network or delay out of range, or a horizon too short for the
        # rate fit window (raised before any file is written)
        raise ConfigError(f"simulate/{model}: {e}")
    return outputs


def cmd_reproduce(config: dict, out: Path, args) -> List[str]:
    fig = config["figure"]
    paper = args.paper_scale
    outputs = []
    if fig == "fig7-heat":
        d = config.get("d", 0.0)
        nxy = config.get("grid", [41, 41] if paper else [21, 21])
        horizon = config.get("horizon", 100.0 if paper else 40.0)
        cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.ConstantHistory(0.1))
        lim = 3.2
        xs = np.linspace(-lim, lim, nxy[0])
        ys = np.linspace(-lim, lim, nxy[1])
        G = xs[None, :] + 1j * ys[:, None]
        rates = sim.scalar_discrete_rate_grid(1.0, d, G.ravel(), 0.5, cfg).reshape(G.shape)
        dio.write_heat_csv(out / "rates.csv", "im_L", ys, "re_L", xs, rates)
        outputs.append("rates.csv")
    elif fig == "fig9-heat":
        from .kernels import Gamma

        nxy = config.get("grid", [41, 41] if paper else [21, 21])
        horizon = config.get("horizon", 100.0 if paper else 40.0)
        cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.ConstantHistory(0.1))
        xs = np.linspace(-8.0, 2.0, nxy[0])
        ys = np.linspace(-5.0, 5.0, nxy[1])
        G = xs[None, :] + 1j * ys[:, None]
        rates = sim.scalar_gamma_rate_grid(1.0, G.ravel(), Gamma(1, 0.5), cfg).reshape(G.shape)
        dio.write_heat_csv(out / "rates.csv", "im_L", ys, "re_L", xs, rates)
        outputs.append("rates.csv")
    elif fig == "fig12-heat":
        n = config.get("n", 1)
        N = config.get("N", 10)
        nxy = config.get("grid", [21, 21])
        horizon = config.get("horizon", 200.0 if paper else 100.0)
        cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.UniformHistory(0))
        alphas = (np.arange(nxy[0]) + 0.5) * 2.0 / nxy[0]
        Ts = (np.arange(nxy[1]) + 0.5) * 2.0 / nxy[1]
        rates = sim.carfollowing_rate_grid(n, N, alphas, Ts, cfg)
        dio.write_heat_csv(out / "rates.csv", "alpha", alphas, "T", Ts, rates)
        tc = [nw.carfollowing_Tc(n, N, a) for a in alphas]
        dio.write_columns_csv(out / "analytic_Tc.csv", ["alpha", "Tc"], alphas, tc)
        outputs += ["rates.csv", "analytic_Tc.csv"]
    elif fig == "fig15-heat":
        R = config.get("R", 2.0)
        N = config.get("N", 100 if paper else 50)
        seeds = config.get("seeds", 1000 if paper else 20)
        nxy = config.get("grid", [21, 13] if paper else [7, 5])
        horizon = config.get("horizon", 150.0 if paper else 100.0)
        cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.UniformHistory(0))
        alphas = (np.arange(nxy[0]) + 0.5) * 4.0 / nxy[0]
        Ts = (np.arange(nxy[1]) + 0.5) * 0.3 / nxy[1]
        freq = np.zeros((len(alphas), len(Ts)))

        def cell(idx):
            i, j = idx
            Js = np.stack(
                [nw.network_matrix(nw.RandomNet(N, R, alphas[i], seed=100000 + 97 * s)) for s in range(seeds)]
            )
            return idx, sim.mas_ensemble(1.0, 1.0, 1.0, 1.1, Ts[j], Js, cfg).mean()

        cells = [(i, j) for i in range(len(alphas)) for j in range(len(Ts))]
        for idx, val in _pmap(cell, cells, args.jobs):
            freq[idx] = val
        dio.write_heat_csv(out / "frequency.csv", "alpha", alphas, "T", Ts, freq)
        ac = [nw.alpha_c(1.0, 1.0, 1.0, 1.1, t, R, N) for t in Ts]
        dio.write_columns_csv(out / "analytic_alpha_c.csv", ["T", "alpha_c"], Ts, ac)
        outputs += ["frequency.csv", "analytic_alpha_c.csv"]
    else:  # fig16-series
        case = config.get("case", "a")
        N = config.get("N", 200)
        horizon = config.get("horizon", 20.0)
        cfg = sim.SimConfig(dt=0.01, horizon=horizon)
        if case == "a":
            res = sim.simulate_kuramoto(N, 4.0, -16.0, 2.0, 0.0, ("exponential", 0.5), cfg,
                                        seed=config.get("seeds", 42), control_on=10.0, snapshot_every=50)
        else:
            res = sim.simulate_kuramoto(N, 4.0, -1.0, -3.0, 2.5, ("constant", 0.5), cfg,
                                        seed=config.get("seeds", 42), control_on=10.0, snapshot_every=50)
        dio.write_kuramoto_csv(out / "order_parameter.csv", res)
        outputs.append("order_parameter.csv")
        if res.phases.size:
            dio.write_phases_csv(out / "phase_snapshots.csv", res.phase_times, res.phases)
            outputs.append("phase_snapshots.csv")
    return outputs


_COMMANDS = {
    "scc": cmd_scc,
    "numap": cmd_numap,
    "critical": cmd_critical,
    "simulate": cmd_simulate,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="delaystab", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument("--full-oracle", action="store_true", help="numap: contour-count every cell")
    parser.add_argument("--paper-scale", action="store_true", help="reproduce: full-size grids and trial counts")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        raw = Path(args.config).read_text()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as e:
        print(f"config is not valid JSON: {e}", file=sys.stderr)
        return 2
    try:
        _validate(args.command, config)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        outputs = _COMMANDS[args.command](config, out, args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    dio.write_manifest(out, args.command, config, outputs, time.time() - t0)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
