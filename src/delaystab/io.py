"""CSV/JSON artifact writers shared by the command-line front end.

Floats are written with shortest round-trip formatting so identical inputs
produce byte-identical files.
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_branch_csv(path: Path, branch: SccBranch) -> None:
    lines = ["beta,re_L,im_L,r,theta,theta_prime"]
    for i in range(len(branch)):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    branch.beta[i],
                    branch.L[i].real,
                    branch.L[i].imag,
                    branch.r[i],
                    branch.theta[i],
                    branch.theta_prime[i],
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_numap_csv(path: Path, numap: NuMap) -> None:
    xs, ys = numap.cell_centers()
    lines = ["re_L,im_L,nu"]
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            lines.append(f"{_fmt(x)},{_fmt(y)},{int(numap.labels[iy, ix])}")
    path.write_text("\n".join(lines) + "\n")


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
    dims = traj.states.shape[1]
    is_complex = np.iscomplexobj(traj.states)
    header = ["t"]
    for k in range(dims):
        header.append(f"re_{k}")
        if is_complex:
            header.append(f"im_{k}")
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = [_fmt(t)]
        for k in range(dims):
            v = traj.states[i, k]
            row.append(_fmt(v.real if is_complex else v))
            if is_complex:
                row.append(_fmt(v.imag))
        lines.append(",".join(row))
    if traj.blowup is not None:
        lines.append(f"# blowup_at,{_fmt(traj.blowup)}")
    path.write_text("\n".join(lines) + "\n")


def write_kuramoto_csv(path: Path, result: KuramotoResult) -> None:
    lines = ["t,abs_r,arg_r"]
    for t, r in zip(result.times, result.r):
        lines.append(f"{_fmt(t)},{_fmt(abs(r))},{_fmt(np.angle(r))}")
    path.write_text("\n".join(lines) + "\n")


def write_columns_csv(path: Path, names: Sequence[str], *columns) -> None:
    """One CSV column per sequence of ``columns``, headed by ``names``."""
    lines = [",".join(names)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_phases_csv(path: Path, times, phases) -> None:
    n = phases.shape[1] if phases.size else 0
    lines = ["t," + ",".join(f"theta_{k}" for k in range(n))]
    for t, row in zip(times, phases):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def write_heat_csv(path: Path, row_name: str, rows, col_name: str, cols, values) -> None:
    lines = [f"{row_name},{col_name},value"]
    for i, rv in enumerate(rows):
        for j, cv in enumerate(cols):
            lines.append(f"{_fmt(rv)},{_fmt(cv)},{_fmt(values[i, j])}")
    path.write_text("\n".join(lines) + "\n")


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
