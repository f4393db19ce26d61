"""Command-line front end: JSON experiment configs in, CSV/JSON artifacts out.

Subcommands: scc | numap | critical | simulate | reproduce.  ``scc`` and
``numap`` have one schema each.  ``critical``, ``simulate`` and
``reproduce`` each have one table, keyed by the config's ``which``,
``model`` or ``figure``; an entry pairs that variant's schema with the
builder that runs it.  A run checks the config before any computation:
NaN and Infinity are not JSON numbers and fail parsing, the discriminator
must name a table entry, and the whole config must then match that
entry's schema (types, numbers a float holds finitely, positive sizes and
delays, unknown fields rejected).  Only then does the builder run.  It
writes into a temporary directory next to --out; on success its artifacts
and a manifest.json (the resolved configuration, a content hash, wall
time, and the library version) move into --out, and on failure nothing
does.  JSON artifacts spell a non-finite number "inf", "-inf" or "nan".
Exit codes: 0 success, 1 runtime numerical failure, 2 invalid
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List

import jsonschema
import numpy as np

from . import io as dio
from . import networks as nw
from . import presets
from . import simulate as sim
from .charfun import CharFun, build_charfun
from .kernels import Gamma, kernel_from_dict
from .regions import nu_map, stability_region, trace_covering
from .scc import trace


class ConfigError(ValueError):
    pass


# "integer" is a JSON integer: 2.0 is no count, nor is true
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)

# a number a float holds finitely: 1e400 parses as inf and fails, as does 10**400
_NUM = {"type": "number", "minimum": -sys.float_info.max, "maximum": sys.float_info.max}
_POS = {**_NUM, "exclusiveMinimum": 0}
_NONNEG = {**_NUM, "minimum": 0}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}  # a complex number [re, im]


def _int(lo: int) -> dict:
    return {"type": "integer", "minimum": lo}


def _obj(optional=(), **props) -> dict:
    """An object with the fields ``props`` only; all are required but those in ``optional`` (True: none)."""
    required = [] if optional is True else [k for k in props if k not in optional]
    return {"type": "object", "properties": props, "required": required, "additionalProperties": False}


def _tagged(key: str, variants: dict) -> dict:
    """An object whose field ``key`` names one of ``variants``, and whose other fields that variant's schema checks."""
    return {
        "type": "object",
        "required": [key],
        "properties": {key: {"enum": sorted(variants)}},
        "allOf": [
            {"if": {"properties": {key: {"const": k}}, "required": [key]},
             "then": {**s, "properties": {key: True, **s["properties"]}}}
            for k, s in variants.items()
        ],
    }


_GRID = {"type": "array", "items": _int(1), "minItems": 2, "maxItems": 2}
_POLY = {"type": "array", "items": _PAIR}
# kernel_from_dict checks the fields each kind takes, and that a Gamma shape is a JSON integer
_KERNEL = _obj(optional=("tau", "a", "A", "n", "T"), kind={"type": "string"}, tau=_NUM, a=_NUM, A=_NUM, n=_NUM, T=_NUM)
_SYSTEM = _obj(
    Q={"type": "array", "items": {"type": "array", "items": _POLY}},
    B={"type": "array", "items": {"type": "array", "items": _POLY}},
    kernel=_KERNEL,
)
_BETA = _obj(lo=_NUM, hi=_NUM, step=_POS)
_WINDOW = {"type": "array", "items": _NUM, "minItems": 4, "maxItems": 4}
# preset_charfun checks a preset's params, and names the preset in its messages
_PRESET = {"preset": {"type": "string"}, "params": {"type": "object"}, "system": _SYSTEM}
_SCC = _obj(optional=("preset", "params", "system", "window"), **_PRESET, beta=_BETA, window=_WINDOW)
_NUMAP = _obj(optional=("preset", "params", "system", "beta"), **_PRESET, window=_WINDOW,
              resolution={"type": "array", "items": _int(2), "minItems": 2, "maxItems": 2}, beta=_BETA)

_NETWORKS = {
    "ring": _obj(n=_int(2), alpha=_POS),
    "chain": _obj(n=_int(2), alpha=_POS),
    "laplacian": _obj(weights={"type": "array", "items": {"type": "array", "items": _NONNEG}}),
    "random": _obj(n=_int(1), R=_POS, alpha=_NONNEG, seed=_int(0)),
}
_HISTORIES = {
    "constant": (_obj(optional=True, value=_PAIR), lambda h: sim.ConstantHistory(complex(*h.get("value", [0.1, 0.0])))),
    "uniform": (_obj(optional=True, seed=_int(0), amplitude=_NUM),
                lambda h: sim.UniformHistory(seed=h.get("seed", 0), amplitude=h.get("amplitude", 1.0))),
}
_SIM = _obj(
    optional=True,
    dt=_POS,
    horizon=_POS,
    history=_tagged("kind", {k: s for k, (s, _) in _HISTORIES.items()}),
    rate_window_fraction={**_NUM, "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    rate_tol=_NONNEG,
)


def _validate(command: str, config, schema: dict) -> None:
    err = jsonschema.exceptions.best_match(_Validator(schema).iter_errors(config))
    if err is not None:
        raise ConfigError(f"invalid {command} config: {err.message} (at {'/'.join(map(str, err.path))})")


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def _load(command: str, path: str):
    """The config at ``path`` and its builder; ConfigError if it is unreadable, not JSON or off the schema."""
    schema, build = _COMMANDS[command]
    try:
        config = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    _validate(command, config, schema)
    return config, build


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
    """Reject an empty beta range or an unordered window; the schema holds the step and the resolution."""
    if "beta" in config and not config["beta"]["hi"] > config["beta"]["lo"]:
        raise ConfigError(f"empty beta range: lo={config['beta']['lo']} must be below hi={config['beta']['hi']}")
    if "window" in config:
        re_lo, re_hi, im_lo, im_hi = config["window"]
        if not (re_hi > re_lo and im_hi > im_lo):
            raise ConfigError(f"window must be [re_lo, re_hi, im_lo, im_hi] with lo < hi, got {config['window']}")


def _sim_config(config: dict) -> sim.SimConfig:
    doc = dict(config.get("sim", {}))
    h = doc.pop("history", None)
    return sim.SimConfig(history=None if h is None else _HISTORIES[h["kind"]][1](h), **doc)


def _dump(out: Path, name: str, **doc) -> List[str]:
    """Write ``doc`` as JSON to ``out / name``, a non-finite float spelled "inf", "-inf" or "nan"; return [name]."""
    doc = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}
    (out / name).write_text(json.dumps(doc, indent=1) + "\n")
    return [name]


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


_CRITICAL = {
    "carfollowing": (_obj(n=_int(1), N=_int(2), alpha=_POS),
                     lambda c, out, args: _dump(out, "critical.json",
                                                Tc=nw.carfollowing_Tc(c["n"], c["N"], c["alpha"]))),
    "chain": (_obj(n=_int(1), alpha=_POS),
              lambda c, out, args: _dump(out, "critical.json", Tc=nw.chain_Tc(c["n"], c["alpha"]))),
    "mas": (_obj(a=_NUM, b=_NUM, k1=_NUM, k2=_NUM),
            lambda c, out, args: _dump(out, "critical.json", Tc1=nw.mas_Tc1(c["a"], c["b"], c["k1"], c["k2"]),
                                       Tc2=nw.mas_Tc2(c["a"], c["k1"], c["k2"]))),
    "alpha_c": (_obj(a=_NUM, b=_NUM, k1=_NUM, k2=_NUM, T=_NONNEG, R=_NUM, N=_int(1)),
                lambda c, out, args: _dump(out, "critical.json", alpha_c=nw.alpha_c(
                    c["a"], c["b"], c["k1"], c["k2"], c["T"], c["R"], c["N"]))),
}


def _ship(out: Path, cfg: sim.SimConfig, traj: sim.Trajectory, est=None) -> List[str]:
    """trajectory.csv and rate.json of a run; the rate is fitted here unless the model gave its own."""
    est = est if est is not None else sim.estimate_rate(traj, cfg)
    dio.write_trajectory_csv(out / "trajectory.csv", traj)
    return ["trajectory.csv"] + _dump(out, "rate.json", rate=est.rate, r_squared=est.r_squared,
                                      verdict=est.verdict, note=est.note)


def _simulate_scalar_discrete(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    return _ship(out, cfg, sim.simulate_scalar_discrete(p["a"], p["d"], complex(*p["L"]), p["tau"], cfg))


def _simulate_scalar_gamma(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    return _ship(out, cfg, sim.simulate_scalar_gamma(p["a"], complex(*p["L"]), Gamma(p["n"], p["T"]), cfg))


def _simulate_carfollowing(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    return _ship(out, cfg, *sim.simulate_carfollowing(nw.network_from_dict(p["network"]), Gamma(p["n"], p["T"]), cfg))


def _simulate_mas(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    net = nw.network_from_dict(p["network"])
    res = sim.simulate_mas(p["a"], p["b"], p["k1"], p["k2"], p["T"], nw.network_matrix(net), cfg)
    outputs = _ship(out, cfg, res.trajectory)
    (out / "stabilized.json").write_text(json.dumps({"stabilized": res.stabilized}) + "\n")
    mu = nw.spectrum(net).eigenvalues
    dio.write_columns_csv(out / "spectrum.csv", ["re", "im"], mu.real, mu.imag)
    return outputs + ["stabilized.json", "spectrum.csv"]


def _simulate_kuramoto(config, out, args):
    p = config["params"]
    res = sim.simulate_kuramoto(
        p["N"], p["K"], p["C"], p["S"], p["d"], (p["delays"]["kind"], p["delays"]["value"]),
        _sim_config(config), seed=config.get("seed", 0), control_on=p.get("control_on", 10.0),
    )
    dio.write_kuramoto_csv(out / "order_parameter.csv", res)
    return ["order_parameter.csv"]


def _simulate_oa(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    traj = sim.simulate_oa(
        p["K"], p["d"], complex(*p["L"]), kernel_from_dict(p["kernel"]), cfg,
        r0=complex(*p.get("r0", [0.1, 0.0])), control_on=p.get("control_on"),
    )
    return _ship(out, cfg, traj)


def _model(optional=(), **params) -> dict:
    """The config schema of a simulate model: its ``params``, and an optional ``sim`` block."""
    return _obj(optional=("sim",), params=_obj(optional, **params), sim=_SIM)


_SIMULATE = {
    "scalar-discrete": (_model(a=_NUM, d=_NUM, L=_PAIR, tau=_POS), _simulate_scalar_discrete),
    "scalar-gamma": (_model(a=_NUM, L=_PAIR, n=_int(1), T=_POS), _simulate_scalar_gamma),
    "carfollowing": (_model(network=_tagged("kind", {k: _NETWORKS[k] for k in ("ring", "chain")}), n=_int(1), T=_POS),
                     _simulate_carfollowing),
    "mas": (_model(a=_NUM, b=_NUM, k1=_NUM, k2=_NUM, T=_NONNEG, network=_tagged("kind", _NETWORKS)), _simulate_mas),
    "kuramoto": (
        _obj(optional=("sim", "seed"), sim=_SIM, seed=_int(0), params=_obj(
            optional=("control_on",), N=_int(2), K=_NUM, C=_NUM, S=_NUM, d=_NUM, control_on=_NUM,
            delays=_tagged("kind", {"constant": _obj(value=_POS), "exponential": _obj(value=_POS)}))),
        _simulate_kuramoto,
    ),
    "oa": (_model(optional=("r0", "control_on"), K=_NUM, d=_NUM, L=_PAIR, kernel=_KERNEL, r0=_PAIR, control_on=_NUM),
           _simulate_oa),
}


def _scalar_heat(config, out, args, re_lim, im_lim, rates) -> List[str]:
    """rates.csv of a scalar system over a grid of gains: ``rates(gains, cfg)`` gives one rate per gain."""
    nxy = config.get("grid", [41, 41] if args.paper_scale else [21, 21])
    horizon = config.get("horizon", 100.0 if args.paper_scale else 40.0)
    cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.ConstantHistory(0.1))
    xs = np.linspace(*re_lim, nxy[0])
    ys = np.linspace(*im_lim, nxy[1])
    G = xs[None, :] + 1j * ys[:, None]
    dio.write_heat_csv(out / "rates.csv", "im_L", ys, "re_L", xs, rates(G.ravel(), cfg).reshape(G.shape))
    return ["rates.csv"]


def _fig7(config, out, args):
    d = config.get("d", 0.0)
    return _scalar_heat(config, out, args, (-3.2, 3.2), (-3.2, 3.2),
                        lambda G, cfg: sim.scalar_discrete_rate_grid(1.0, d, G, 0.5, cfg))


def _fig9(config, out, args):
    return _scalar_heat(config, out, args, (-8.0, 2.0), (-5.0, 5.0),
                        lambda G, cfg: sim.scalar_gamma_rate_grid(1.0, G, Gamma(1, 0.5), cfg))


def _fig12(config, out, args):
    n, N, nxy = config.get("n", 1), config.get("N", 10), config.get("grid", [21, 21])
    horizon = config.get("horizon", 200.0 if args.paper_scale else 100.0)
    cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.UniformHistory(0))
    alphas = (np.arange(nxy[0]) + 0.5) * 2.0 / nxy[0]
    Ts = (np.arange(nxy[1]) + 0.5) * 2.0 / nxy[1]
    rates = sim.carfollowing_rate_grid(n, N, alphas, Ts, cfg)
    dio.write_heat_csv(out / "rates.csv", "alpha", alphas, "T", Ts, rates)
    tc = [nw.carfollowing_Tc(n, N, a) for a in alphas]
    dio.write_columns_csv(out / "analytic_Tc.csv", ["alpha", "Tc"], alphas, tc)
    return ["rates.csv", "analytic_Tc.csv"]


def _fig15(config, out, args):
    paper = args.paper_scale
    R = config.get("R", 2.0)
    N = config.get("N", 100 if paper else 50)
    seeds = config.get("seeds", 1000 if paper else 20)
    nxy = config.get("grid", [21, 13] if paper else [7, 5])
    horizon = config.get("horizon", 150.0 if paper else 100.0)
    cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.UniformHistory(0))
    alphas = (np.arange(nxy[0]) + 0.5) * 4.0 / nxy[0]
    Ts = (np.arange(nxy[1]) + 0.5) * 0.3 / nxy[1]
    # first, so an anchor -R outside the zero-noise region fails before the ensembles run
    ac = [nw.alpha_c(1.0, 1.0, 1.0, 1.1, t, R, N) for t in Ts]
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
    dio.write_columns_csv(out / "analytic_alpha_c.csv", ["T", "alpha_c"], Ts, ac)
    return ["frequency.csv", "analytic_alpha_c.csv"]


# fig16 cases: coupling C, S, frequency centre d and pairwise delays
_FIG16_CASES = {"a": (-16.0, 2.0, 0.0, ("exponential", 0.5)), "b": (-1.0, -3.0, 2.5, ("constant", 0.5))}


def _fig16(config, out, args):
    C, S, d, delays = _FIG16_CASES[config.get("case", "a")]
    cfg = sim.SimConfig(dt=0.01, horizon=config.get("horizon", 20.0))
    res = sim.simulate_kuramoto(config.get("N", 200), 4.0, C, S, d, delays, cfg,
                                seed=config.get("seeds", 42), control_on=10.0, snapshot_every=50)
    dio.write_kuramoto_csv(out / "order_parameter.csv", res)
    if not res.phases.size:
        return ["order_parameter.csv"]
    dio.write_phases_csv(out / "phase_snapshots.csv", res.phase_times, res.phases)
    return ["order_parameter.csv", "phase_snapshots.csv"]


_REPRODUCE = {
    "fig7-heat": (_obj(optional=True, grid=_GRID, horizon=_POS, d=_NUM), _fig7),
    "fig9-heat": (_obj(optional=True, grid=_GRID, horizon=_POS), _fig9),
    "fig12-heat": (_obj(optional=True, grid=_GRID, horizon=_POS, n=_int(1), N=_int(2)), _fig12),
    "fig15-heat": (_obj(optional=True, grid=_GRID, horizon=_POS, R=_POS, N=_int(1), seeds=_int(1)), _fig15),
    "fig16-series": (_obj(optional=True, horizon=_POS, N=_int(2), case={"enum": sorted(_FIG16_CASES)},
                          seeds=_int(0)), _fig16),
}


def _dispatch(key: str, table: dict):
    """The (schema, builder) of a command with a variant table: ``key`` names the entry that checks and builds.

    Past the schema, a model or closed form raises ValueError or
    ZeroDivisionError only for a value outside its domain (a network or
    kernel out of range, b = 0, an unstable anchor, a horizon too short
    for the rate fit), so those reject the config too.  numpy's
    LinAlgError is a ValueError too, but a failed eigen-solve is a
    numerical failure, not a bad config.
    """
    def build(config, out, args):
        try:
            return table[config[key]][1](config, out, args)
        except np.linalg.LinAlgError:
            raise
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{key} {config[key]!r}: {type(e).__name__}: {e}") from None

    return _tagged(key, {k: s for k, (s, _) in table.items()}), build


_COMMANDS = {
    "scc": (_SCC, cmd_scc),
    "numap": (_NUMAP, cmd_numap),
    "critical": _dispatch("which", _CRITICAL),
    "simulate": _dispatch("model", _SIMULATE),
    "reproduce": _dispatch("figure", _REPRODUCE),
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
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.absolute().parent))
    except OSError as e:
        print(f"cannot create output directory: {e}", file=sys.stderr)
        return 2
    try:
        config, build = _load(args.command, args.config)
        outputs = build(config, work, args)
        dio.write_manifest(work, args.command, config, outputs, time.time() - t0)
        for name in outputs + ["manifest.json"]:
            os.replace(work / name, out / name)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
