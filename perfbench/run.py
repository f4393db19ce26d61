"""Benchmark for delaystab: three workloads, timed end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload region_maps --seed 1 --seconds 35 --trace 0

The run sets up the workload (imports delaystab from ``src`` and builds the
inputs from the seed), then repeats whole rounds of the same operations
until another round would overrun ``--seconds`` (at least one round), and
finally checks every round's outputs against exact answers computed
without delaystab.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``wall_s`` and ``cpu_s``
(median over rounds), ``setup_s`` (median of fresh-process set-ups) and
``peak_rss_mb``.  With ``--trace 1`` every layer boundary is traced and the
metrics are per layer (see tracing.py); spans go to ``perfbench/out``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("region_maps", "network_ensembles", "oscillators")


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_and_prepare(workload: str, seed: int, scale: str, workdir: Path):
    """Import delaystab and build the workload's inputs; returns (workload, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports numpy and delaystab

    wl = workloads.WORKLOADS[workload](seed, scale, workdir)
    return wl, time.perf_counter() - t0


def setup_samples(args) -> list:
    """Set-up time of fresh processes, each importing and preparing from scratch."""
    out = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def digest(obj, h=None):
    """Hash of an operation's result, so identical rounds can be compared cheaply.

    Output directories are hashed by file name and content, without the
    manifest (it records wall time).
    """
    top = h is None
    h = h or hashlib.sha256()
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, Path):
        for p in sorted(obj.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                h.update(p.name.encode())
                h.update(p.read_bytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            digest(x, h)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "jobs": sys.modules["workloads"].JOBS}


def run_rounds(wl, seconds: float, workdir: Path, tracer):
    ops = wl.operations()
    walls, cpus, errors = [], [], []
    digests = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        k = len(walls)
        rdir = workdir / f"round{k}"
        rdir.mkdir(parents=True)
        res = {}
        c0, w0 = time.process_time(), time.perf_counter()
        for name, fn in ops:
            attempted += 1
            try:
                if tracer is None:
                    res[name] = fn(rdir, res)
                else:
                    with tracer.span("bench." + name.split(":")[0]):
                        res[name] = fn(rdir, res)
            except Exception as e:  # counted, reported, and the round goes on
                failed += 1
                errors.append(f"round {k} {name}: {type(e).__name__}: {e}")
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        # the first round is checked after the timed region: park it on disk so
        # later rounds run in the same memory; later rounds are compared to it
        # by digest
        digests.append({n: digest(v) for n, v in res.items()})
        if k == 0:
            with open(workdir / "round0.pkl", "wb") as fh:
                pickle.dump(res, fh, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            shutil.rmtree(rdir, ignore_errors=True)
        del res
        if (w1 - t_start) + (w1 - w0) > seconds:
            break
    return dict(walls=walls, cpus=cpus, errors=errors, digests=digests,
                attempted=attempted, failed=failed)


def check(wl, run, workdir: Path) -> list:
    """Check round 0 against the oracles, and every later round against round 0."""
    with open(workdir / "round0.pkl", "rb") as fh:
        first = pickle.load(fh)
    if not all(n in first for n, _ in wl.operations()):
        return []  # a failed operation; counted in `failed`
    try:
        bad = wl.check(first)
    except Exception as e:
        bad = [f"check raised {type(e).__name__}: {e}"]
    ref = run["digests"][0]
    for k, dig in enumerate(run["digests"][1:], 1):
        bad += [f"round {k} {n}: output differs from round 0 on identical inputs"
                for n, d in dig.items() if d != ref.get(n)]
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "delaystab" / "__init__.py").is_file():
        print(f"delaystab sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, seconds = import_and_prepare(args.workload, args.seed, args.scale, workdir)
            print(repr(seconds))
            return 0
        wl, _ = import_and_prepare(args.workload, args.seed, args.scale, workdir)
        setup = None if args.trace else setup_samples(args)
    except Exception as e:
        print(f"set-up failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        if args.setup_probe:
            shutil.rmtree(workdir, ignore_errors=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = run_rounds(wl, args.seconds, workdir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = None
    if tracer is not None:
        tracer.uninstall()
        tracer.save(OUT / f"trace-{args.workload}.npz")
        spans = tracer.arrays()

    bad = check(wl, run, workdir)
    shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = {
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = tracing.layer_metrics(spans, len(run["walls"]))
        values["trace.wall_s"] = statistics.median(run["walls"])
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "rounds": len(run["walls"]), "round_walls": run["walls"], "round_cpus": run["cpus"],
        "setup_samples": setup, "environment": environment(), "errors": run["errors"], "check_failures": bad,
        "check_worst": wl.stats,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in run["errors"] + bad:
        print(line, file=sys.stderr)
    unit = units()
    result = {
        "correct": not bad,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
