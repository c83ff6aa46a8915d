"""One workload run in its own process; started by bench.py, not by hand.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR [--setup-only]

Imports ``critical_esn`` from ``src/`` of the checkout that holds this file,
generates the workload's inputs, then repeats the workload until ``--seconds``
have passed.  With ``--trace 1`` it alternates untraced and traced
iterations, so both walls come from the same process.  The result goes to
``DIR/result.json``; with ``--setup-only`` the worker stops right before the
first timed operation and prints the monotonic time it got there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import critical_esn  # noqa: E402

if Path(critical_esn.__file__).resolve().parent != SRC / "critical_esn":
    sys.exit(f"worker: critical_esn imported from {critical_esn.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def blas_info() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": os.environ.get("OPENBLAS_NUM_THREADS")}


_CAL_M = np.random.default_rng(0).standard_normal((256, 256)) / 32.0
# Reference speed: the host speed at which calibrate() takes 10 ms.
REF_S = 0.010


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, numpy and BLAS work.

    The host's CPU speed drifts by tens of percent over minutes and slows all
    of the program's work alike.  Timing this loop between the operations of
    every iteration lets bench.py express times at one reference speed.
    """
    t0 = time.perf_counter()
    x = 0.0
    for _ in range(40_000):
        x = math.tanh(0.9 * x + 0.3)
    a = np.linspace(-1.0, 1.0, 64)
    for _ in range(800):
        a = np.tanh(a * 0.9 + 0.1)
    v = np.ones(256)
    for _ in range(400):
        v = np.tanh(_CAL_M @ v)
    return time.perf_counter() - t0


def run_iteration(workload, ctx, tracer=None) -> dict:
    """Run every operation once; times cover the program calls only."""
    calib = [calibrate()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    times, errors, digests = {}, [], {}
    try:
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                value = op.run(ctx)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed op is a result
                times[op.name] = time.perf_counter() - t0
                errors.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
                break
            times[op.name] = time.perf_counter() - t0
            calib.append(calibrate())
            try:
                op_errors, op_digests = op.gate(ctx, value)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                op_errors, op_digests = [f"gate could not read output: {exc}"], {}
            del value  # a k = 500 trajectory is 160 MB; free it before the next op
            errors += [f"{op.name}: {e}" for e in op_errors]
            digests.update({f"{op.name}/{k}": v for k, v in op_digests.items()})
            if op_errors:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Each operation is rescaled by the calibrations just before and after it.
    ref = sum(t * REF_S / (0.5 * (c0 + c1)) for t, c0, c1 in zip(times.values(), calib, calib[1:]))
    out = {
        "calib_s": statistics.fmean(calib),
        "wall_ref_s": ref,
        "wall_s": sum(times.values()),
        "op_s": times,
        "errors": errors,
        "failed_ops": 1 if errors else 0,
        "digests": digests,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.spans()
    return out


def summarise_layers(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of per-layer times over traced iterations; counts must repeat exactly."""
    problems = []
    metrics = {}
    for name, (unit, _how, _what) in tracing.LAYER_METRICS.items():
        values = [it["layers"][name] for it in traced]
        if unit == "s":
            value = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced iterations: {values}")
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(it["wall_s"] for it in traced) - statistics.median(it["wall_s"] for it in untraced)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.dir)
    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.prepare(args.seed, workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    inputs = workloads.input_digests(ctx)

    tracer = tracing.Tracer() if args.trace else None
    iterations = []
    deadline = ready + args.seconds
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        it = run_iteration(workload, ctx, tracer if traced else None)
        it["traced"] = traced
        iterations.append(it)
        if it["errors"]:
            break
        enough_kinds = tracer is None or len(iterations) >= 2
        if time.monotonic() >= deadline and enough_kinds:
            break

    untraced = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    problems = [e for it in iterations for e in it["errors"]]
    reference = iterations[0]["digests"]
    for i, it in enumerate(iterations[1:], start=1):
        if not it["errors"] and it["digests"] != reference:
            changed = sorted(k for k in reference.keys() | it["digests"].keys() if reference.get(k) != it["digests"].get(k))
            problems.append(f"iteration {i} ({'traced' if it['traced'] else 'untraced'}) changed digests: {changed}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready": ready,
        "attempted": sum(len(it["op_s"]) for it in iterations),
        "failed": sum(it["failed_ops"] for it in iterations),
        "problems": problems,
        "samples": len(untraced),
        "wall_s_samples": [it["wall_s"] for it in untraced],
        "calib_s_samples": [it["calib_s"] for it in untraced],
        "wall_ref_s_samples": [it["wall_ref_s"] for it in untraced],
        "ref_speed": REF_S / statistics.median(it["calib_s"] for it in untraced),
        "op_s_median": {
            name: statistics.median(it["op_s"][name] for it in untraced if name in it["op_s"])
            for name in untraced[0]["op_s"]
        },
        "digests": reference,
        "input_digests": inputs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        result["tracer_missing"] = tracer.missing
        if traced_its and not problems:
            result["layers"], count_problems = summarise_layers(traced_its, untraced)
            result["problems"] += count_problems
            result["traced_samples"] = len(traced_its)
            np.savez(workdir / "spans.npz", **tracing.concat_spans([it["spans"] for it in traced_its], tracer.table))
    shutil.rmtree(workdir / "artifacts", ignore_errors=True)
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
