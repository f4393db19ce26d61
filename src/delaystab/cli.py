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
writes its artifacts into a temporary directory next to --out; on success
every file there and a manifest.json listing them (the resolved
configuration, a content hash, wall time, and the library version) move
into --out, and on failure nothing does.  JSON artifacts spell a
non-finite number "inf", "-inf" or "nan".  Exit codes: 0 success, 1
runtime numerical failure, 2 invalid configuration.
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

import numpy as np

from . import io as dio
from . import networks as nw
from . import presets
from . import simulate as sim
from .charfun import CharFun, build_charfun
from .kernels import KERNEL, Gamma, kernel_from_dict
from .regions import nu_map, stability_region, trace_covering
from .schema import NONNEG, NUM, PAIR, POS, SEED, check, integer, obj, tagged
from .scc import trace


class ConfigError(ValueError):
    pass


_GRID = {"type": "array", "items": integer(1), "minItems": 2, "maxItems": 2}
_POLY = {"type": "array", "items": PAIR}
_SYSTEM = obj(
    Q={"type": "array", "items": {"type": "array", "items": _POLY}},
    B={"type": "array", "items": {"type": "array", "items": _POLY}},
    kernel=KERNEL,
)
_BETA = obj(lo=NUM, hi=NUM, step=POS)
_WINDOW = {"type": "array", "items": NUM, "minItems": 4, "maxItems": 4}
# a preset (its params checked by preset_charfun, which names the preset) or a system, never both
_SOURCE = {"preset": {"type": "string"}, "params": {"type": "object"}, "system": _SYSTEM}
_ONE_SOURCE = {"oneOf": [{"required": ["preset"]}, {"required": ["system"]}],
               "dependentRequired": {"params": ["preset"]}}
_SCC = {**obj(optional=("preset", "params", "system", "window"), **_SOURCE, beta=_BETA, window=_WINDOW), **_ONE_SOURCE}
_NUMAP = {**obj(optional=("preset", "params", "system", "beta"), **_SOURCE, window=_WINDOW,
                resolution={"type": "array", "items": integer(2), "minItems": 2, "maxItems": 2}, beta=_BETA),
          **_ONE_SOURCE}

_HISTORIES = {
    "constant": (obj(optional=True, value=PAIR), lambda h: sim.ConstantHistory(complex(*h.get("value", [0.1, 0.0])))),
    "uniform": (obj(optional=True, seed=SEED, amplitude=NUM),
                lambda h: sim.UniformHistory(seed=h.get("seed", 0), amplitude=h.get("amplitude", 1.0))),
}
_SIM = obj(
    optional=True,
    dt=POS,
    horizon=POS,
    history=tagged("kind", {k: s for k, (s, _) in _HISTORIES.items()}),
    rate_window_fraction={**NUM, "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    rate_tol=NONNEG,
)


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def _load(command: str, path: str):
    """The config at ``path`` and its builder; ConfigError if it is unreadable, not JSON or off the schema."""
    schema, build = _COMMANDS[command]
    try:
        config = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        check(config, schema, f"{command} config")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return config, build


def _charfun_from_config(config: dict) -> CharFun:
    def grid(rows):
        return [[[complex(re, im) for re, im in entry] for entry in row] for row in rows]

    try:
        if "preset" in config:
            return presets.preset_charfun(config["preset"], config.get("params", {}))
        sysd = config["system"]
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


def _dump(out: Path, name: str, **doc) -> None:
    """Write ``doc`` as JSON to ``out / name``, a non-finite float spelled "inf", "-inf" or "nan"."""
    doc = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}
    (out / name).write_text(json.dumps(doc, indent=1) + "\n")


def _pmap(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def cmd_scc(config: dict, out: Path, args) -> None:
    _check_geometry(config)
    F = _charfun_from_config(config)
    b = config["beta"]
    window = tuple(config["window"]) if "window" in config else None
    for i, br in enumerate(trace(F, b["lo"], b["hi"], b["step"], window=window)):
        dio.write_branch_csv(out / f"branch_{i:03d}.csv", br)


def cmd_numap(config: dict, out: Path, args) -> None:
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


_CRITICAL = {
    "carfollowing": (obj(n=integer(1), N=integer(2), alpha=POS),
                     lambda c, out, args: _dump(out, "critical.json",
                                                Tc=nw.carfollowing_Tc(c["n"], c["N"], c["alpha"]))),
    "chain": (obj(n=integer(1), alpha=POS),
              lambda c, out, args: _dump(out, "critical.json", Tc=nw.chain_Tc(c["n"], c["alpha"]))),
    "mas": (obj(a=NUM, b=NUM, k1=NUM, k2=NUM),
            lambda c, out, args: _dump(out, "critical.json", Tc1=nw.mas_Tc1(c["a"], c["b"], c["k1"], c["k2"]),
                                       Tc2=nw.mas_Tc2(c["a"], c["k1"], c["k2"]))),
    "alpha_c": (obj(a=NUM, b=NUM, k1=NUM, k2=NUM, T=NONNEG, R=NUM, N=integer(1)),
                lambda c, out, args: _dump(out, "critical.json", alpha_c=nw.alpha_c(
                    c["a"], c["b"], c["k1"], c["k2"], c["T"], c["R"], c["N"]))),
}


def _ship(out: Path, cfg: sim.SimConfig, traj: sim.Trajectory, est=None) -> None:
    """trajectory.csv and rate.json of a run; the rate is fitted here unless the model gave its own."""
    est = est if est is not None else sim.estimate_rate(traj, cfg)
    dio.write_trajectory_csv(out / "trajectory.csv", traj)
    _dump(out, "rate.json", rate=est.rate, r_squared=est.r_squared, verdict=est.verdict, note=est.note)


def _simulate_scalar_discrete(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    _ship(out, cfg, sim.simulate_scalar_discrete(p["a"], p["d"], complex(*p["L"]), p["tau"], cfg))


def _simulate_scalar_gamma(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    _ship(out, cfg, sim.simulate_scalar_gamma(p["a"], complex(*p["L"]), Gamma(p["n"], p["T"]), cfg))


def _simulate_carfollowing(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    _ship(out, cfg, *sim.simulate_carfollowing(nw.network_from_dict(p["network"]), Gamma(p["n"], p["T"]), cfg))


def _simulate_mas(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    net = nw.network_from_dict(p["network"])
    res = sim.simulate_mas(p["a"], p["b"], p["k1"], p["k2"], p["T"], nw.network_matrix(net), cfg)
    _ship(out, cfg, res.trajectory)
    (out / "stabilized.json").write_text(json.dumps({"stabilized": res.stabilized}) + "\n")
    mu = nw.spectrum(net).eigenvalues
    dio.write_columns_csv(out / "spectrum.csv", ["re", "im"], mu.real, mu.imag)


def _simulate_kuramoto(config, out, args):
    p = config["params"]
    res = sim.simulate_kuramoto(
        p["N"], p["K"], p["C"], p["S"], p["d"], (p["delays"]["kind"], p["delays"]["value"]),
        _sim_config(config), seed=config.get("seed", 0), control_on=p.get("control_on", 10.0),
    )
    dio.write_kuramoto_csv(out / "order_parameter.csv", res)


def _simulate_oa(config, out, args):
    p, cfg = config["params"], _sim_config(config)
    traj = sim.simulate_oa(
        p["K"], p["d"], complex(*p["L"]), kernel_from_dict(p["kernel"]), cfg,
        r0=complex(*p.get("r0", [0.1, 0.0])), control_on=p.get("control_on"),
    )
    _ship(out, cfg, traj)


def _model(optional=(), **params) -> dict:
    """The config schema of a simulate model: its ``params``, and an optional ``sim`` block."""
    return obj(optional=("sim",), params=obj(optional, **params), sim=_SIM)


_SIMULATE = {
    "scalar-discrete": (_model(a=NUM, d=NUM, L=PAIR, tau=POS), _simulate_scalar_discrete),
    "scalar-gamma": (_model(a=NUM, L=PAIR, n=integer(1), T=POS), _simulate_scalar_gamma),
    "carfollowing": (_model(network={"allOf": [nw.NETWORK, {"properties": {"kind": {"enum": ["chain", "ring"]}}}]},
                            n=integer(1), T=POS), _simulate_carfollowing),
    "mas": (_model(a=NUM, b=NUM, k1=NUM, k2=NUM, T=NONNEG, network=nw.NETWORK), _simulate_mas),
    "kuramoto": (
        obj(optional=("sim", "seed"), sim=_SIM, seed=SEED, params=obj(
            optional=("control_on",), N=integer(2), K=NUM, C=NUM, S=NUM, d=NUM, control_on=NUM,
            delays=tagged("kind", {"constant": obj(value=POS), "exponential": obj(value=POS)}))),
        _simulate_kuramoto,
    ),
    "oa": (_model(optional=("r0", "control_on"), K=NUM, d=NUM, L=PAIR, kernel=KERNEL, r0=PAIR, control_on=NUM),
           _simulate_oa),
}


def _scalar_heat(config, out, args, re_lim, im_lim, rates) -> None:
    """rates.csv of a scalar system over a grid of gains: ``rates(gains, cfg)`` gives one rate per gain."""
    nxy = config.get("grid", [41, 41] if args.paper_scale else [21, 21])
    horizon = config.get("horizon", 100.0 if args.paper_scale else 40.0)
    cfg = sim.SimConfig(dt=0.01, horizon=horizon, history=sim.ConstantHistory(0.1))
    xs = np.linspace(*re_lim, nxy[0])
    ys = np.linspace(*im_lim, nxy[1])
    G = xs[None, :] + 1j * ys[:, None]
    dio.write_heat_csv(out / "rates.csv", "im_L", ys, "re_L", xs, rates(G.ravel(), cfg).reshape(G.shape))


def _fig7(config, out, args):
    d = config.get("d", 0.0)
    _scalar_heat(config, out, args, (-3.2, 3.2), (-3.2, 3.2),
                        lambda G, cfg: sim.scalar_discrete_rate_grid(1.0, d, G, 0.5, cfg))


def _fig9(config, out, args):
    _scalar_heat(config, out, args, (-8.0, 2.0), (-5.0, 5.0),
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


# fig16 cases: coupling C, S, frequency centre d and pairwise delays
_FIG16_CASES = {"a": (-16.0, 2.0, 0.0, ("exponential", 0.5)), "b": (-1.0, -3.0, 2.5, ("constant", 0.5))}


def _fig16(config, out, args):
    C, S, d, delays = _FIG16_CASES[config.get("case", "a")]
    cfg = sim.SimConfig(dt=0.01, horizon=config.get("horizon", 20.0))
    res = sim.simulate_kuramoto(config.get("N", 200), 4.0, C, S, d, delays, cfg,
                                seed=config.get("seeds", 42), control_on=10.0, snapshot_every=50)
    dio.write_kuramoto_csv(out / "order_parameter.csv", res)
    dio.write_phases_csv(out / "phase_snapshots.csv", res.phase_times, res.phases)


_REPRODUCE = {
    "fig7-heat": (obj(optional=True, grid=_GRID, horizon=POS, d=NUM), _fig7),
    "fig9-heat": (obj(optional=True, grid=_GRID, horizon=POS), _fig9),
    "fig12-heat": (obj(optional=True, grid=_GRID, horizon=POS, n=integer(1), N=integer(2)), _fig12),
    "fig15-heat": (obj(optional=True, grid=_GRID, horizon=POS, R=POS, N=integer(1), seeds=integer(1)), _fig15),
    "fig16-series": (obj(optional=True, horizon=POS, N=integer(2), case={"enum": sorted(_FIG16_CASES)},
                          seeds=SEED), _fig16),
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
            table[config[key]][1](config, out, args)
        except np.linalg.LinAlgError:
            raise
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{key} {config[key]!r}: {type(e).__name__}: {e}") from None

    return tagged(key, {k: s for k, (s, _) in table.items()}), build


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
        build(config, work, args)
        outputs = sorted(p.name for p in work.iterdir())
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
