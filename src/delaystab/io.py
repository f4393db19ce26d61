"""CSV/JSON artifact writers shared by the command-line front end.

Every CSV goes through ``write_columns_csv`` and has one format: a header
row of column names, then one row per record, with floats written in
shortest round-trip form (``repr``) and integer counts as integers, then
any trailing lines, each starting with ``#``.  So identical inputs give
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Sequence

import numpy as np

from . import __version__
from .regions import NuMap, StabilityComponent
from .scc import SccBranch
from .simulate import KuramotoResult, Trajectory

__all__ = [
    "write_branch_csv",
    "write_numap_csv",
    "write_boundaries_json",
    "write_trajectory_csv",
    "write_kuramoto_csv",
    "write_columns_csv",
    "write_phases_csv",
    "write_heat_csv",
    "write_manifest",
]


def _cells(column) -> List[str]:
    """One column's cells: integer counts as integers, anything else as shortest round-trip floats."""
    a = np.asarray(column)
    return [str(v) for v in a.tolist()] if a.dtype.kind in "iu" else [repr(v) for v in a.astype(float).tolist()]


def write_columns_csv(path: Path, names: Sequence[str], *columns, trailer: Sequence[str] = ()) -> None:
    """One CSV column per sequence of ``columns``, headed by ``names``; ``trailer`` lines follow the rows."""
    rows = map(",".join, zip(*map(_cells, columns)))
    path.write_text("\n".join([",".join(names), *rows, *trailer]) + "\n")


def write_branch_csv(path: Path, branch: SccBranch) -> None:
    write_columns_csv(path, ["beta", "re_L", "im_L", "r", "theta", "theta_prime"], branch.beta,
                      branch.L.real, branch.L.imag, np.abs(branch.L), branch.theta, branch.theta_prime)


def write_numap_csv(path: Path, numap: NuMap) -> None:
    xs, ys = numap.cell_centers()
    write_columns_csv(path, ["re_L", "im_L", "nu"], np.tile(xs, len(ys)), np.repeat(ys, len(xs)), numap.labels.ravel())


def write_boundaries_json(path: Path, components: Sequence[StabilityComponent]) -> None:
    doc = [
        {
            "clipped": comp.clipped,
            "cells": int(len(comp.cells)),
            "boundary": [[[p.real, p.imag] for p in poly] for poly in comp.boundary],
        }
        for comp in components
    ]
    path.write_text(json.dumps(doc, indent=1) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    parts = {"re": traj.states.real, "im": traj.states.imag} if np.iscomplexobj(traj.states) else {"re": traj.states}
    keys = [(p, k) for k in range(traj.states.shape[1]) for p in parts]
    trailer = [] if traj.blowup is None else [f"# blowup_at,{float(traj.blowup)!r}"]
    write_columns_csv(path, ["t"] + [f"{p}_{k}" for p, k in keys], traj.times,
                      *(parts[p][:, k] for p, k in keys), trailer=trailer)


def write_kuramoto_csv(path: Path, result: KuramotoResult) -> None:
    # np.abs over a complex array may round differently from the scalar abs; hypot matches it
    r = result.r
    write_columns_csv(path, ["t", "abs_r", "arg_r"], result.times, np.hypot(r.real, r.imag), np.angle(r))


def write_phases_csv(path: Path, times, phases) -> None:
    write_columns_csv(path, ["t"] + [f"theta_{k}" for k in range(phases.shape[1])], times, *phases.T)


def write_heat_csv(path: Path, row_name: str, rows, col_name: str, cols, values) -> None:
    write_columns_csv(path, [row_name, col_name, "value"], np.repeat(rows, len(cols)), np.tile(cols, len(rows)),
                      np.ravel(values))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, outputs: List[str], wall_time: float) -> None:
    doc = {
        "command": command,
        "config": config,
        "config_sha256": config_hash(config),
        "outputs": sorted(outputs),
        "wall_time_s": wall_time,
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=1) + "\n")
