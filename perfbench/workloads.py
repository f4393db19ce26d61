"""The benchmark's three workloads: inputs, operations and checks.

A workload is built in three steps.  ``prepare`` (the set-up) builds the
inputs from the seed: characteristic functions, network specs, simulation
configs and the CLI config files.  ``operations`` lists the operations of
one round; each takes the round's output directory and the results of the
earlier operations of the same round.  ``check`` runs after the timed
region and compares every round's outputs with exact answers from
``oracles``, which does not import delaystab.  ``oracles`` loads scipy, so
it is imported inside the checks only, outside set-up and the timed region.

Operations go through ``delaystab.cli.main`` in-process where a command
covers them, and otherwise through the public library functions.  Library
functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from delaystab import cli, networks, presets, regions, simulate
from delaystab.kernels import Exponential

JOBS = 1  # --jobs passed to every CLI call

# Check tolerances (stated in the README).
NODE_RESIDUAL = 1e-8  # |F(i beta, L)| / max(1, |i beta|^q) at traced nodes
RATE_TOL_SCALAR = 0.02  # fitted vs exact rate, fig7/fig9, where |exact| > RATE_FLOOR_SCALAR
RATE_FLOOR_SCALAR = 0.05
RATE_TOL_CAR = 0.02  # fitted vs exact transverse rate, fig12, where |exact| > RATE_FLOOR_CAR
RATE_FLOOR_CAR = 0.02
EIG_TOL = 1e-9  # eigvals vs numpy, relative to max(1, max |eigenvalue|)
CRITICAL_RTOL = 1e-6  # alpha_c and Tc against the oracle
PLATEAU_TOL = 0.1  # pre-control mean |r| on [5, 10] vs sqrt(1 - 2/K)
POST_RATIO = 0.6  # post-control mean |r| on [15, 20] at most this share of the plateau
SNAPSHOT_TOL = 1e-12  # |r| from the phase snapshots vs order_parameter.csv


def _cli(command: str, config_path: Path, out: Path, *flags: str) -> Path:
    code = cli.main([command, "--config", str(config_path), "--out", str(out), "--jobs", str(JOBS), *flags])
    if code != 0:
        raise RuntimeError(f"delaystab {command} exited with {code}")
    return out


def _write_config(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def _read_heat(path: Path):
    """rates.csv of `reproduce` -> (rows, cols, values[row, col])."""
    r, c, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    ru, cu = np.unique(r), np.unique(c)
    return ru, cu, v.reshape(len(ru), len(cu))


def _cell_centers(window, resolution):
    re_lo, re_hi, im_lo, im_hi = window
    nx, ny = resolution
    xs = re_lo + (np.arange(nx) + 0.5) * (re_hi - re_lo) / nx
    ys = im_lo + (np.arange(ny) + 0.5) * (im_hi - im_lo) / ny
    return xs[None, :] + 1j * ys[:, None]  # [iy, ix]


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.stats = {}  # worst value of each checked quantity, for the run record
        self.prepare()

    def note(self, key: str, value: float) -> float:
        self.stats[key] = max(self.stats.get(key, -math.inf), float(value))
        return value

    def heat_mismatch(self, tag, path: Path, oracle, tol, floor) -> list:
        """Fitted rates of a `reproduce` heatmap against the exact rates."""
        rows, cols, fit = _read_heat(path)
        exact = oracle(rows, cols)
        blown = np.isinf(fit)
        out = []
        if np.any(blown & ~(exact > 0)):
            out.append(f": {int((blown & ~(exact > 0)).sum())} blow-up cells with a nonpositive exact rate")
        sel = ~blown & (np.abs(exact) > floor)
        if not np.all(np.isfinite(fit[sel])):
            out.append(f": unfitted cells where the exact rate is {floor} away from zero")
            return out
        err = np.abs(fit[sel] - exact[sel])
        self.note(tag + "_rate_error", err.max(initial=0.0))
        if err.size and err.max() > tol:
            out.append(f": fitted rate off by {err.max():.4f} > {tol} ({int((err > tol).sum())} cells)")
        return out

    def prepare(self) -> None:
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def check(self, r) -> list:
        raise NotImplementedError


# ----------------------------------------------------------------- region maps

class System:
    """A scalar benchmark system: delaystab preset plus its closed form."""

    def __init__(self, label, kind, params, window):
        self.label, self.kind, self.params, self.window = label, kind, params, window

    def charfun(self):
        p = self.params
        if self.kind == "discrete":
            return presets.scalar_discrete(p["a"], p["d"], p["tau"])
        if self.kind == "drift-difference":
            return presets.drift_difference_coupling()
        return presets.scalar_gamma(p["a"], p["n"], p["T"])

    def nu(self, L):
        from oracles import gamma_poly, nu_discrete, nu_poly

        p = self.params
        if self.kind == "discrete":
            return nu_discrete(complex(p["a"], p["d"]), L, p["tau"])
        if self.kind == "drift-difference":
            return nu_discrete(p["c"] - np.asarray(L), L, 1.0)
        return nu_poly(gamma_poly(p["a"], p["n"], p["T"], L))

    def residual(self, lam, L):
        import oracles

        p = self.params
        if self.kind == "discrete":
            return oracles.residual_discrete(complex(p["a"], p["d"]), p["tau"], lam, L)
        if self.kind == "drift-difference":
            return oracles.residual_drift_difference(p["c"], lam, L)
        return oracles.residual_gamma(p["a"], p["n"], p["T"], lam, L)


SYSTEMS = [
    System("growth-feedback", "discrete", {"a": 1.0, "d": 0.0, "tau": 0.5}, (-4.0, 4.0, -4.0, 4.0)),
    System("drift-difference", "drift-difference", {"c": 0.1 + 0.1j}, (-1.0, 1.0, -1.0, 1.0)),
    System("point-delay-atau<1", "discrete", {"a": 1.0, "d": 0.0, "tau": 0.5}, (-3.5, 0.5, -2.0, 2.0)),
    System("point-delay-atau>1", "discrete", {"a": 1.0, "d": 0.0, "tau": 1.5}, (-3.0, 3.0, -3.0, 3.0)),
    System("gamma-n1-aT<1", "gamma", {"a": 1.0, "n": 1, "T": 0.5}, (-6.0, 2.0, -4.0, 4.0)),
    System("gamma-n1-aT>1", "gamma", {"a": 1.0, "n": 1, "T": 1.5}, (-4.0, 4.0, -4.0, 4.0)),
    System("gamma-n2-aT<1", "gamma", {"a": 1.0, "n": 2, "T": 0.5}, (-7.0, 3.0, -5.0, 5.0)),
    System("gamma-n2-aT>1", "gamma", {"a": 1.0, "n": 2, "T": 1.5}, (-4.0, 4.0, -4.0, 4.0)),
    System("rotated-point-delay", "discrete", {"a": 1.0, "d": 2.5, "tau": 0.5}, (-3.5, 3.5, -3.5, 3.5)),
]

PD = dict(a=1.0, b=1.0, k1=1.0, k2=1.1)
PD_WINDOW = (-6.0, 1.0, -3.0, 3.0)
# paper: Tc1 = k2/k1 - a/b = 1/10 and Tc2 = 1/(a + k1/k2) = 11/21
PD_TC1 = Fraction(11, 10) - 1
PD_TC2 = 1 / (1 + 1 / Fraction(11, 10))

REGION_SCALES = {
    # systems, map resolution, PD delays, PD map resolution, PD refine_frac, heat grid
    "full": dict(systems=SYSTEMS, res=(41, 41), pd_T=(0.05, 0.3, 0.6), pd_res=(141, 601),
                 pd_refine=0.002, heat=(21, 21)),
    "smoke": dict(systems=[SYSTEMS[0], SYSTEMS[4]], res=(21, 21), pd_T=(0.6,), pd_res=(41, 121),
                  pd_refine=0.02, heat=(7, 7)),
}


class RegionMaps(Workload):
    """Crossing curves, propagated and full-oracle NU maps, fine PD-agent maps, scalar heatmaps."""

    name = "region_maps"

    def prepare(self):
        s = REGION_SCALES[self.scale]
        self.res = s["res"]
        self.systems = [(sys_, sys_.charfun()) for sys_ in s["systems"]]
        self.pd = [(T, presets.pd_agent_mode(PD["a"], PD["b"], PD["k1"], PD["k2"], T)) for T in s["pd_T"]]
        self.pd_res, self.pd_refine = s["pd_res"], s["pd_refine"]
        gf = self.cli_system = SYSTEMS[0]
        self.cfg_scc = _write_config(self.workdir, "scc", {
            "preset": "growth-feedback", "beta": {"lo": -12.0, "hi": 12.0, "step": 0.05},
            "window": list(gf.window)})
        self.cfg_numap = _write_config(self.workdir, "numap", {
            "preset": "growth-feedback", "window": list(gf.window), "resolution": list(self.res)})
        self.cfg_fig7 = _write_config(self.workdir, "fig7", {
            "figure": "fig7-heat", "grid": list(s["heat"]), "horizon": 40.0})
        self.cfg_fig9 = _write_config(self.workdir, "fig9", {
            "figure": "fig9-heat", "grid": list(s["heat"]), "horizon": 40.0})

    def operations(self):
        ops = []
        for sys_, F in self.systems:
            w, lab = sys_.window, sys_.label
            ops.append((f"trace:{lab}", lambda out, r, F=F, w=w: _quiet(regions.trace_covering, F, w)))
            ops.append((f"map:{lab}", lambda out, r, F=F, w=w, lab=lab:
                        _quiet(regions.nu_map, F, w, self.res, r[f"trace:{lab}"])))
            ops.append((f"oracle-map:{lab}", lambda out, r, F=F, w=w, lab=lab:
                        _quiet(regions.nu_map, F, w, self.res, r[f"trace:{lab}"], full_oracle=True)))
        ops.append(("cli-scc", lambda out, r: _cli("scc", self.cfg_scc, out / "scc")))
        ops.append(("cli-numap", lambda out, r: _cli("numap", self.cfg_numap, out / "numap", "--full-oracle")))
        for T, F in self.pd:
            ops.append((f"pd-trace:{T}", lambda out, r, F=F: _quiet(
                regions.trace_covering, F, PD_WINDOW, step=0.01, refine_frac=self.pd_refine)))
            ops.append((f"pd-map:{T}", lambda out, r, F=F, T=T: _quiet(
                regions.nu_map, F, PD_WINDOW, self.pd_res, r[f"pd-trace:{T}"])))
        ops.append(("cli-fig7", lambda out, r: _cli("reproduce", self.cfg_fig7, out / "fig7")))
        ops.append(("cli-fig9", lambda out, r: _cli("reproduce", self.cfg_fig9, out / "fig9")))
        return ops

    def check(self, r):
        import oracles

        bad = []
        oracle_nu = {}
        for sys_, _ in self.systems:
            lab = sys_.label
            exact = oracle_nu[lab] = sys_.nu(_cell_centers(sys_.window, self.res))
            m, mo = r[f"map:{lab}"].labels, r[f"oracle-map:{lab}"].labels
            if not np.array_equal(m, mo):
                bad.append(f"{lab}: propagated map != full-oracle map")
            for what, lbl in (("propagated", m), ("full-oracle", mo)):
                bad += _label_mismatch(f"{lab} {what}", lbl, exact)
            worst = self.note("node_residual", max(
                _node_residual(br.beta, br.L, sys_.residual, 1) for br in r[f"trace:{lab}"]))
            if worst > NODE_RESIDUAL:
                bad.append(f"{lab}: traced node residual {worst:.2e} > {NODE_RESIDUAL:.0e}")

        gf = self.cli_system
        cli_labels = _read_numap(r["cli-numap"] / "numap.csv", self.res)
        bad += _label_mismatch("cli numap", cli_labels, oracle_nu[gf.label])
        if not np.array_equal(cli_labels, r[f"map:{gf.label}"].labels):
            bad.append("cli numap: labels differ from the library map")
        branch_files = sorted(r["cli-scc"].glob("branch_*.csv"))
        if not branch_files:
            bad.append("cli scc: no branches written")
        for path in branch_files:
            d = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            res = self.note("node_residual", _node_residual(d[:, 0], d[:, 1] + 1j * d[:, 2], gf.residual, 1))
            if res > NODE_RESIDUAL:
                bad.append(f"cli scc {path.name}: node residual {res:.2e}")

        for T, _ in self.pd:
            m = r[f"pd-map:{T}"]
            exact = oracles.nu_poly(oracles.pd_poly(**PD, T=T, L=_cell_centers(PD_WINDOW, self.pd_res)))
            bad += _label_mismatch(f"pd T={T}", m.labels, exact)

            def residual(lam, L, T=T):
                return oracles.residual_pd(**PD, T=T, lam=lam, L=L)

            res = self.note("node_residual", max(
                _node_residual(br.beta, br.L, residual, 2) for br in r[f"pd-trace:{T}"]))
            if res > NODE_RESIDUAL:
                bad.append(f"pd T={T}: traced node residual {res:.2e}")
            comps = int(m.component_ids.max()) + 1
            want_comps = 3 if PD_TC1 < Fraction(T) < PD_TC2 else 2
            want_regions = 1 if Fraction(T) < PD_TC2 else 0
            # stability regions are the NU = 0 components (regions.stability_region
            # is left out: its boundary search peaks at gigabytes on these maps)
            n_regions = len(np.unique(m.component_ids[m.labels == 0]))
            if comps != want_comps or n_regions != want_regions:
                bad.append(f"pd T={T}: {comps} components / {n_regions} stability regions, "
                           f"expected {want_comps} / {want_regions}")
            if (exact == 0).any() != bool(want_regions):
                bad.append(f"pd T={T}: oracle disagrees with Tc2 on the stability region")

        for fig, oracle in (("fig7", _fig7_rates), ("fig9", _fig9_rates)):
            bad += self.heat_mismatch(fig, r[f"cli-{fig}"] / "rates.csv", oracle,
                                      RATE_TOL_SCALAR, RATE_FLOOR_SCALAR)
        return bad


def _fig7_rates(im, re):
    """Exact rate of zdot = z + L z(t - 1/2) on the fig7 grid."""
    import oracles

    return oracles.abscissa_discrete(1.0, re[None, :] + 1j * im[:, None], 0.5)


def _fig9_rates(im, re):
    """Exact rate of zdot = z + L (exponential delay of mean 1/2) on the fig9 grid."""
    import oracles

    return oracles.abscissa_poly(oracles.gamma_poly(1.0, 1, 0.5, re[None, :] + 1j * im[:, None]))


def _label_mismatch(tag, labels, exact) -> list:
    cells = labels >= 0
    if not cells.any():
        return [": no labelled cell"]
    wrong = cells & (labels != exact)
    if wrong.any():
        return [f": {int(wrong.sum())} of {int(cells.sum())} labelled cells differ from the exact count"]
    return []


def _node_residual(beta, L, residual, q) -> float:
    lam = 1j * np.asarray(beta)
    return float(np.max(np.abs(residual(lam, np.asarray(L))) / np.maximum(1.0, np.abs(lam) ** q)))


def _read_numap(path: Path, res):
    d = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nx, ny = res
    return d[:, 2].astype(int).reshape(ny, nx)


# ----------------------------------------------------------- network ensembles

NET_SCALES = {
    # spectrum matrices (size), ensemble (N, seeds per alpha), car-following combos, fig12 grid
    "full": dict(n_spec=8, spec_N=100, N=100, S=20, combos="all", fig12=(21, 21)),
    "smoke": dict(n_spec=2, spec_N=30, N=20, S=2, combos=2, fig12=(5, 5)),
}
MAS_R, MAS_T = 2.0, 0.05
SPEC_R, SPEC_ALPHA = 2.0, 0.5
CAR_COMBOS = [(n, N, al) for n in (1, 2) for N in (5, 10) for al in (0.5, 1.0, 2.0)]


class NetworkEnsembles(Workload):
    """Random-network spectra, alpha_c, MAS Monte Carlo at 0.8/1.25 alpha_c, car-following."""

    name = "network_ensembles"

    def prepare(self):
        s = NET_SCALES[self.scale]
        rng = np.random.default_rng([self.seed, 2])
        draw = lambda k: [int(x) for x in rng.integers(0, 2**31 - 1, size=k)]  # noqa: E731
        self.spec_nets = [networks.RandomNet(s["spec_N"], SPEC_R, SPEC_ALPHA, seed=x) for x in draw(s["n_spec"])]
        self.N, self.S = s["N"], s["S"]
        self.mas_seeds = {f: draw(self.S) for f in (0.8, 1.25)}
        self.mas_cfg = simulate.SimConfig(dt=0.01, horizon=150.0, history=simulate.UniformHistory(draw(1)[0]))
        self.combos = CAR_COMBOS if s["combos"] == "all" else CAR_COMBOS[: s["combos"]]
        self.fig12 = dict(n=1, N=10, grid=list(s["fig12"]), horizon=100.0)
        self.cfg_alpha = _write_config(self.workdir, "alpha_c", {
            "which": "alpha_c", "a": PD["a"], "b": PD["b"], "k1": PD["k1"], "k2": PD["k2"],
            "T": MAS_T, "R": MAS_R, "N": self.N})
        self.cfg_fig12 = _write_config(self.workdir, "fig12", {"figure": "fig12-heat", **self.fig12})

    def _ensemble(self, alpha, seeds):
        Js = np.stack([networks.network_matrix(networks.RandomNet(self.N, MAS_R, alpha, seed=x)) for x in seeds])
        verdicts = simulate.mas_ensemble(PD["a"], PD["b"], PD["k1"], PD["k2"], MAS_T, Js, self.mas_cfg)
        return alpha, Js, verdicts

    def operations(self):
        ops = []
        for i, net in enumerate(self.spec_nets):
            ops.append((f"spectrum:{i}", lambda out, r, net=net: networks.spectrum(net).eigenvalues))
        ops.append(("cli-alpha_c", lambda out, r: _cli("critical", self.cfg_alpha, out / "alpha_c")))
        for f in (0.8, 1.25):
            ops.append((f"mas:{f}", lambda out, r, f=f: self._ensemble(
                f * json.loads((r["cli-alpha_c"] / "critical.json").read_text())["alpha_c"],
                self.mas_seeds[f])))
        ops.append(("cli-fig12", lambda out, r: _cli("reproduce", self.cfg_fig12, out / "fig12")))
        for n, N, al in self.combos:
            ops.append((f"Tc:{n},{N},{al}", lambda out, r, c=(n, N, al): networks.carfollowing_Tc_numeric(*c)))
        return ops

    def check(self, r):
        import oracles

        bad = []
        spec_ref = []
        for net in self.spec_nets:
            J = -net.R * np.eye(net.N) + net.alpha * np.random.default_rng(net.seed).uniform(-1.0, 1.0, (net.N, net.N))
            spec_ref.append(np.linalg.eigvals(J))
        ac_ref = oracles.alpha_c(PD["a"], PD["b"], PD["k1"], PD["k2"], MAS_T, MAS_R, self.N)
        tc_ref = {c: oracles.carfollowing_Tc(*c) for c in self.combos}
        absc = {}  # (alpha, seed) -> spectral abscissa

        def car_oracle(alphas, Ts):
            return oracles.carfollowing_rate(self.fig12["n"], self.fig12["N"], alphas[:, None], Ts[None, :])

        for i, ref in enumerate(spec_ref):
            got = r[f"spectrum:{i}"]
            scale = max(1.0, float(np.abs(ref).max()))
            dist = self.note("eigvals_distance", oracles.multiset_distance(got, ref) / scale)
            if not dist <= EIG_TOL:
                bad.append(f"spectrum {i}: eigenvalues differ from numpy by {dist:.2e}")
        ac = json.loads((r["cli-alpha_c"] / "critical.json").read_text())["alpha_c"]
        if self.note("alpha_c_rel_error", abs(ac - ac_ref) / ac_ref) > CRITICAL_RTOL:
            bad.append(f"alpha_c {ac!r} vs oracle {ac_ref!r}")
        for f in (0.8, 1.25):
            alpha, Js, verdicts = r[f"mas:{f}"]
            for x, J, v in zip(self.mas_seeds[f], Js, verdicts):
                J_ref = -MAS_R * np.eye(self.N) + alpha * np.random.default_rng(x).uniform(
                    -1.0, 1.0, (self.N, self.N))
                if not np.array_equal(J, J_ref):
                    bad.append(f"mas {f}: coupling matrix of seed {x} is not -R I + alpha Xi")
                    continue
                key = (alpha, x)
                if key not in absc:
                    absc[key] = oracles.spectral_abscissa(
                        oracles.pd_network_matrix(J, PD["a"], PD["b"], PD["k1"], PD["k2"], MAS_T))
                if bool(v) != (absc[key] < 0.0):
                    bad.append(f"mas {f}: seed {x} verdict {bool(v)} but spectral abscissa "
                               f"{absc[key]:+.4f}")
        bad += self.heat_mismatch("fig12", r["cli-fig12"] / "rates.csv", car_oracle,
                                  RATE_TOL_CAR, RATE_FLOOR_CAR)
        for c in self.combos:
            tc = r[f"Tc:{c[0]},{c[1]},{c[2]}"]
            if self.note("Tc_rel_error", abs(tc - tc_ref[c]) / tc_ref[c]) > CRITICAL_RTOL:
                bad.append(f"Tc{c}: {tc!r} vs bisection {tc_ref[c]!r}")
        for f in (0.8, 1.25):
            a = [v for (alpha, _), v in absc.items() if alpha == r[f"mas:{f}"][0]]
            self.stats[f"mas_{f}_abscissa_range"] = [min(a), max(a)] if a else None
        return bad


# ----------------------------------------------------------------- oscillators

OSC = dict(K=4.0, C=-16.0, S=2.0, d=0.0, mean_delay=0.5, control_on=10.0, horizon=20.0)
# N=800: about 11 s a round, so a run measures two or three rounds; at N=1000
# a run held one 20 s round and the wall time spread 17% between runs
OSC_SCALES = {"full": dict(N=800), "smoke": dict(N=200)}


class Oscillators(Workload):
    """fig16 case a: delayed-feedback oscillator population switched to control at t = 10."""

    name = "oscillators"

    def prepare(self):
        self.N = OSC_SCALES[self.scale]["N"]
        self.cfg = _write_config(self.workdir, "fig16", {
            "figure": "fig16-series", "case": "a", "N": self.N, "horizon": OSC["horizon"], "seeds": self.seed})
        # linearised order-parameter dynamics near incoherence; the control gain
        # acts as L = (C + i S) / 2 on the kernel-delayed order parameter
        self.mode = presets.oscillator_mode(OSC["K"], OSC["d"], Exponential(OSC["mean_delay"]))
        self.gains = {"free": 0j, "control": complex(OSC["C"], OSC["S"]) / 2.0}

    def operations(self):
        ops = [(f"membership:{g}", lambda out, r, L=L: regions.membership(self.mode, L))
               for g, L in self.gains.items()]
        ops.append(("cli-fig16", lambda out, r: _cli("reproduce", self.cfg, out / "fig16")))
        return ops

    def check(self, r):
        import oracles

        bad = []
        plateau = math.sqrt(1.0 - 2.0 / OSC["K"])
        lin = complex(OSC["K"] / 2.0 - 1.0, OSC["d"])
        for g, L in self.gains.items():
            nu = int(oracles.nu_poly(oracles.gamma_poly(lin, 1, OSC["mean_delay"], L)))
            if r[f"membership:{g}"].nu != nu:
                bad.append(f"membership {g}: NU {r[f'membership:{g}'].nu} vs exact {nu}")
        out = r["cli-fig16"]
        d = np.loadtxt(out / "order_parameter.csv", delimiter=",", skiprows=1)
        t, absr = d[:, 0], d[:, 1]
        pre = float(absr[(t >= 5.0) & (t <= 10.0)].mean())
        post = float(absr[t >= 15.0].mean())
        self.note("plateau", pre)
        self.note("post_over_plateau", post / pre)
        if abs(pre - plateau) > PLATEAU_TOL:
            bad.append(f"pre-control plateau {pre:.3f}, expected {plateau:.3f} +- {PLATEAU_TOL}")
        if post > POST_RATIO * pre:
            bad.append(f"post-control mean {post:.3f} not below {POST_RATIO} x plateau {pre:.3f}")
        snaps = np.loadtxt(out / "phase_snapshots.csv", delimiter=",", skiprows=1, ndmin=2)
        if snaps.shape[1] != self.N + 1 or len(snaps) < 2:
            return bad + [f"phase snapshots have shape {snaps.shape}"]
        idx = np.minimum(np.searchsorted(t, snaps[:, 0]), len(t) - 1)
        if np.any(t[idx] != snaps[:, 0]):
            return bad + ["snapshot times not on the order-parameter grid"]
        gap = self.note("snapshot_gap", np.abs(oracles.order_parameter(snaps[:, 1:]) - absr[idx]).max())
        if gap > SNAPSHOT_TOL:
            bad.append(f"|r| from the phase snapshots differs by {gap:.2e}")
        return bad


WORKLOADS = {w.name: w for w in (RegionMaps, NetworkEnsembles, Oscillators)}
