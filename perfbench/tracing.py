"""Span tracing around delaystab's layer boundaries, and the per-layer metrics.

``Tracer.install`` replaces every public function of every delaystab
module (its ``__all__``), the ``CharFun`` evaluation methods and
``cli.main`` with a wrapper that records one span per call: name, start,
end, parent span and a work count.  Names that other modules imported
with ``from ... import`` are replaced too, so calls between layers are
seen.  Spans live in flat arrays in memory and are written out once, at
the end of the run.  A layer's self time is its span time minus the time
of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("kernels", "charfun", "eigen", "scc", "regions", "networks", "simulate", "io", "cli", "presets")
CHARFUN_METHODS = ("eval", "d_lambda", "d_L", "lpoly")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _n_steps(cfg) -> int:
    return int(math.ceil(cfg.horizon / cfg.dt - 1e-9))


def _count_points(pos, name):
    def count(args, kwargs, out):
        return int(np.size(_arg(args, kwargs, pos, name)))
    return count


def _count_nodes(args, kwargs, out):
    return sum(len(br.beta) for br in out)


def _count_cells(args, kwargs, out):
    nx, ny = _arg(args, kwargs, 2, "resolution")
    return int(nx) * int(ny)


def _count_mas_updates(args, kwargs, out):
    T = _arg(args, kwargs, 4, "T")
    S, N, _ = np.shape(_arg(args, kwargs, 5, "Js"))
    state = (4 if T > 0 else 2) * N
    return S * state * _n_steps(_arg(args, kwargs, 6, "cfg"))


def _count_carfollowing_updates(args, kwargs, out):
    n, N = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "N")
    cells = np.size(_arg(args, kwargs, 2, "alphas")) * np.size(_arg(args, kwargs, 3, "Ts"))
    return int(cells) * N * (n + 1) * _n_steps(_arg(args, kwargs, 4, "cfg"))


def _count_pair_lookups(args, kwargs, out):
    N = _arg(args, kwargs, 0, "N")
    cfg = _arg(args, kwargs, 6, "cfg")
    control_on = kwargs.get("control_on", 10.0)
    first = max(0, math.ceil((control_on - 1e-12) / cfg.dt))
    return N * N * max(0, _n_steps(cfg) - first)


def _count_bytes(args, kwargs, out):
    path = Path(args[0])
    if path.is_dir():  # write_manifest takes the output directory
        path = path / "manifest.json"
    return path.stat().st_size if path.exists() else 0


COUNTERS = {
    "kernels.laplace": _count_points(1, "lam"),
    "kernels.laplace_derivative": _count_points(1, "lam"),
    "charfun.eval": _count_points(1, "lam"),
    "scc.trace": _count_nodes,
    "regions.nu_map": _count_cells,
    "simulate.mas_ensemble": _count_mas_updates,
    "simulate.carfollowing_rate_grid": _count_carfollowing_updates,
    "simulate.simulate_kuramoto": _count_pair_lookups,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("q")
        self._stack = [-1]
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.nid.append(nid)
        self.parent.append(self._stack[-1])
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("io.write_"):
            counter = _count_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:  # counted outside the span
                self.count[i] = counter(args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "delaystab") -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            names = ["main"] if short == "cli" else list(getattr(mod, "__all__", ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = self.wrap(f"{short}.{attr}", fn)
        # rebind every module-level alias (from-imports), the package too
        for mod in list(mods.values()) + [sys.modules[package]]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, originals[val])
        cls = mods["charfun"].CharFun
        for meth in CHARFUN_METHODS:
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"charfun.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (one operation of a round)."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def arrays(self):
        return {
            "names": np.array(self.names),
            "nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def layer_metrics(spans: dict, rounds: int) -> dict:
    """Per-layer metrics, per round, from the span arrays."""
    names = list(spans["names"])
    nid, parent, count = spans["nid"], spans["parent"], spans["count"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k).astype(float)
    incl = np.bincount(nid, weights=dur, minlength=k)
    selft = np.bincount(nid, weights=self_t, minlength=k)
    work = np.bincount(nid, weights=count.astype(float), minlength=k)

    def pick(arr, *spans_):
        return float(sum(arr[names.index(s)] for s in spans_ if s in names)) / rounds

    def rate(num, den):
        return num / den if den > 0 else 0.0

    # contour points: charfun.eval spans whose parent is a nu_contour span
    contour_points = 0.0
    if "regions.nu_contour" in names and "charfun.eval" in names:
        nc = names.index("regions.nu_contour")
        ev = nid == names.index("charfun.eval")
        under = ev & has_parent
        under[under] = nid[parent[under]] == nc
        contour_points = float(count[under].sum()) / rounds

    io_writes = [n for n in names if n.startswith("io.write_")]
    m = {
        "kernels.laplace.calls": pick(calls, "kernels.laplace", "kernels.laplace_derivative"),
        "kernels.laplace.points": pick(work, "kernels.laplace", "kernels.laplace_derivative"),
        "kernels.laplace.self_s": pick(selft, "kernels.laplace", "kernels.laplace_derivative"),
        "charfun.eval.calls": pick(calls, "charfun.eval"),
        "charfun.eval.points": pick(work, "charfun.eval"),
        "charfun.eval.self_s": pick(selft, "charfun.eval"),
        "charfun.derivs.calls": pick(calls, "charfun.d_lambda", "charfun.d_L"),
        "charfun.derivs.self_s": pick(selft, "charfun.d_lambda", "charfun.d_L"),
        "charfun.lpoly.calls": pick(calls, "charfun.lpoly"),
        "charfun.lpoly.self_s": pick(selft, "charfun.lpoly"),
        "eigen.poly_roots.calls": pick(calls, "eigen.poly_roots"),
        "eigen.poly_roots.self_s": pick(selft, "eigen.poly_roots"),
        "eigen.eigvals.calls": pick(calls, "eigen.eigvals"),
        "eigen.eigvals.self_s": pick(selft, "eigen.eigvals"),
        "scc.trace.calls": pick(calls, "scc.trace"),
        "scc.trace.nodes": pick(work, "scc.trace"),
        "scc.trace.self_s": pick(selft, "scc.trace"),
        "scc.trace.nodes_per_s": rate(pick(work, "scc.trace"), pick(incl, "scc.trace")),
        "regions.nu_contour.calls": pick(calls, "regions.nu_contour"),
        "regions.nu_contour.self_s": pick(selft, "regions.nu_contour"),
        "regions.nu_contour.points_per_count": rate(contour_points, pick(calls, "regions.nu_contour")),
        "regions.nu_map.cells": pick(work, "regions.nu_map"),
        "regions.nu_map.self_s": pick(selft, "regions.nu_map"),
        "regions.nu_map.cells_per_s": rate(pick(work, "regions.nu_map"), pick(incl, "regions.nu_map")),
        "regions.trace_covering.s": pick(incl, "regions.trace_covering"),
        "networks.spectrum.self_s": pick(selft, "networks.spectrum"),
        "networks.critical.s": pick(incl, "networks.alpha_c", "networks.carfollowing_Tc_numeric"),
        "networks.network_matrix.s": pick(incl, "networks.network_matrix"),
        "simulate.mas_ensemble.s": pick(incl, "simulate.mas_ensemble"),
        "simulate.mas_ensemble.updates_per_s": rate(
            pick(work, "simulate.mas_ensemble"), pick(incl, "simulate.mas_ensemble")),
        "simulate.carfollowing_rate_grid.s": pick(incl, "simulate.carfollowing_rate_grid"),
        "simulate.carfollowing_rate_grid.updates_per_s": rate(
            pick(work, "simulate.carfollowing_rate_grid"), pick(incl, "simulate.carfollowing_rate_grid")),
        "simulate.simulate_kuramoto.s": pick(incl, "simulate.simulate_kuramoto"),
        "simulate.simulate_kuramoto.pair_lookups_per_s": rate(
            pick(work, "simulate.simulate_kuramoto"), pick(incl, "simulate.simulate_kuramoto")),
        "simulate.rate_grids.s": pick(incl, "simulate.scalar_discrete_rate_grid", "simulate.scalar_gamma_rate_grid"),
        "io.write.calls": pick(calls, *io_writes),
        "io.write.s": pick(incl, *io_writes),
        "io.bytes": pick(work, *io_writes),
        "cli.main.calls": pick(calls, "cli.main"),
        "cli.main.self_s": pick(selft, "cli.main"),
        "trace.spans": float(len(dur)) / rounds,
    }
    return m
