"""Benchmark of critical_esn: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload paper_defaults --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each exists):
  paper_defaults    the six CLI subcommands at their built-in defaults
  scaled_k500       library calls on a k = 500 reservoir, T = 20000
  mid_k_readout_io  CLI mc at k = 100 and simulate at k = 10, T = 50000

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics (wall_s, setup_s, peak_rss_mib); wall_s and setup_s are
rescaled to a reference host speed measured next to every operation.  With
--trace 1 it holds the per-layer metrics from a traced run.  The line before it is a record:
environment, digests of every artifact and returned array, sample counts
and the failed fraction of operations.  Each run works in its own
process (benchmarks/worker.py) whose BLAS threads are capped at nproc.
Exit code 0 when every correctness gate held, 1 when one failed, 2 when the
program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_defaults", "scaled_k500", "mid_k_readout_io")
SETUP_PROBES = 5
TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_ENV})
    return env


def worker_cmd(args, workdir: Path, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(workdir),
    ]
    return cmd + (["--setup-only"] if setup_only else [])


def fail(message: str, code: int) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "critical_esn" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {ROOT / 'src' / 'critical_esn'} is missing", 2)
    threads = nproc()
    env = child_env(threads)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def remaining() -> float:
        return TIMEOUT_S - (time.monotonic() - started)

    # Set-up is interpreter start, imports and writing config files, up to
    # the first timed operation; probe it several times and keep the median.
    setup = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe_dir = run_dir / f"setup{i}"
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    worker_cmd(args, probe_dir, True), env=env, capture_output=True, text=True,
                    timeout=remaining(),
                )
            except subprocess.TimeoutExpired:
                return fail("set-up probe timed out", 2)
            if proc.returncode != 0:
                return fail(f"set-up probe exited {proc.returncode}:\n{proc.stderr[-2000:]}", 2)
            setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
            shutil.rmtree(probe_dir, ignore_errors=True)

    with open(run_dir / "worker.out", "w") as out, open(run_dir / "worker.err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(worker_cmd(args, run_dir, False), env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail("worker timed out", 2)
    result_path = run_dir / "result.json"
    if code != 0 or not result_path.is_file():
        tail = (run_dir / "worker.err").read_text()[-2000:]
        return fail(f"worker exited {code}:\n{tail}", 2)
    with open(result_path) as fh:
        result = json.load(fh)

    attempted, failed = result["attempted"], result["failed"]
    problems = result["problems"]
    if args.trace:
        layers = result.get("layers")
        if layers is None:
            problems = problems + ["traced run produced no per-layer metrics"]
            metrics = {}
        else:
            metrics = layers
    else:
        setup.append(result["ready"] - t0)
        speed = result["ref_speed"]
        metrics = {
            "wall_s": {"value": statistics.median(result["wall_ref_s_samples"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    correct = not problems and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": threads,
        "blas": result["blas"],
        "python": result["python"],
        "numpy": result["numpy"],
        "git_commit": git_commit(ROOT),
        "wall_s_samples": result["wall_s_samples"],
        "calib_s_samples": result["calib_s_samples"],
        "wall_ref_s_samples": result["wall_ref_s_samples"],
        "samples": result["samples"],
        "setup_s_samples": setup,
        "op_s_median": result["op_s_median"],
        "ops_failed_frac": failed / attempted,
        "problems": problems,
        "tracer_missing": result.get("tracer_missing", []),
        "digests": result["digests"],
        "input_digests": result["input_digests"],
    }
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    for p in problems:
        print(f"bench: GATE FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
