"""The benchmark's three workloads, their generated inputs and correctness gates.

Each workload is a list of operations.  An operation is one CLI invocation
(through ``critical_esn.cli.main``) or one top-level library call.  Its
``run`` part is timed; its ``gate`` part is not, and returns the gate's
failures plus the sha256 of every artifact and returned array it saw.

Every seed and generated state is derived from the workload seed, so one
seed always gives the same inputs.  The program receives only these inputs
and config files that use keys its subcommands read.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from critical_esn import analysis, cli, dynamics, reservoir

AMPLITUDE = math.pi / 4

# k of the built-in `mc` defaults, which paper_defaults runs unchanged.
PAPER_MC_K = 8
SCALED_K = 500
SCALED_T = 20_000
MID_MC = {"k": 100, "max_delay": 400, "T": 20_000}
MID_SIM_K = 10
MID_SIM_T = 50_000


def derive(seed: int, label: str) -> int:
    """A seed for one input, fixed by the workload seed and the input's label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_array(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.data)
    return h.hexdigest()


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every artifact except run_meta.json, the sidecar with timestamps."""
    return {
        f"{path.name}/{p.name}": sha256_file(p)
        for p in sorted(path.iterdir())
        if p.is_file() and p.name != "run_meta.json"
    }


def float_slack(k: int) -> float:
    # A few ulps per coordinate of unit-magnitude states, summed in the norm.
    return 64.0 * np.finfo(float).eps * math.sqrt(k)


def non_increasing(q: np.ndarray, k: int) -> list[str]:
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        return ["q has non-finite entries"]
    rise = np.diff(q)
    worst = int(np.argmax(rise)) if rise.size else 0
    if rise.size and rise[worst] > float_slack(k):
        return [f"q rises by {rise[worst]:.3g} at t={worst + 1}"]
    return []


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # (ctx) -> value; the timed program call
    gate: Callable  # (ctx, value) -> (errors, digests)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (seed, workdir) -> ctx; writes config files
    ops: tuple


# -- CLI helpers ---------------------------------------------------------------------

def _cli_op(command: str, gate: Callable, config: str | None = None) -> Op:
    def run(ctx):
        argv = [command, "--out", str(ctx["out"] / command), "--seed", str(ctx["cli_seed"])]
        if config is not None:
            argv += ["--config", str(ctx["configs"][config])]
        return cli.main(argv)

    def checked(ctx, rc):
        out = ctx["out"] / command
        errors = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            errors += gate(ctx, out)
        return errors, digest_dir(out) if out.is_dir() else {}

    return Op(f"cli.{command}", run, checked)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _mc_total(path: Path) -> float:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if rows[-1][0] != "total":
        raise ValueError("mc.csv has no totals row")
    return float(rows[-1][1])


def _gate_mc(k: int):
    def gate(ctx, out):
        total = _mc_total(out / "mc.csv")
        return [] if 0.0 < total <= k else [f"mc total {total} outside (0, {k}]"]

    return gate


def _gate_states_csv(k: int, T: int, path: Path) -> list[str]:
    errors = []
    rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) != k + 1:
            errors.append(f"states.csv header has {len(header)} columns, want {k + 1}")
        for line in fh:
            rows += 1
            if line.count(",") != k:
                errors.append(f"states.csv row {rows} has {line.count(',') + 1} columns, want {k + 1}")
                break
    if rows != T:
        errors.append(f"states.csv has {rows} rows, want {T}")
    return errors


def _read_q(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


# -- paper_defaults ---------------------------------------------------------------------

def _gate_figure3(ctx, out):
    errors = []
    with open(out / "figure3_lyapunov.csv") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["figure3 wrote no cells"]
    for row in rows:
        b, lam = float(row["b"]), float(row["lyapunov"])
        # The exponent of the pinned alternating orbit is ln b.
        if not math.isfinite(lam):
            errors.append(f"b={b}: exponent {lam} not finite")
        elif b == 1.0 and abs(lam) > 1e-6:
            errors.append(f"b=1: exponent {lam} not ~0")
        elif b != 1.0 and (lam < 0) != (b < 1):
            errors.append(f"b={b}: exponent {lam} has the wrong sign")
    return errors


def _gate_figure45(ctx, out):
    errors = []
    alt = _read_json(out / "decay_fit_alternating.json")
    iid = _read_json(out / "decay_fit_iid.json")
    if alt.get("law") != "power_law":
        errors.append(f"alternating law {alt.get('law')!r}, want 'power_law'")
    if iid.get("floor_hit_at") is None:
        errors.append("i.i.d. trace never hit the zero floor")
    return errors


def _gate_verify(ctx, out):
    report = _read_json(out / "verify_report.json")
    return [] if report.get("all_passed") is True else ["verify: all_passed is not true"]


def _gate_critical_b(ctx, out):
    got = _read_json(out / "critical_b.json")
    errors = []
    for key, want in (("b_star", 2.344), ("orbit_amplitude", 0.757)):
        if not abs(float(got[key]) - want) <= 1e-3:
            errors.append(f"{key}={got[key]}, want {want} +- 1e-3")
    return errors


def _gate_simulate_defaults(ctx, out):
    # Built-in simulate: k = 1, T = 1000.
    return _gate_states_csv(1, 1000, out / "states.csv")


def _prepare_paper(seed: int, workdir: Path) -> dict:
    return {"out": workdir / "artifacts", "cli_seed": derive(seed, "cli"), "configs": {}}


PAPER_DEFAULTS = Workload(
    name="paper_defaults",
    prepare=_prepare_paper,
    ops=(
        _cli_op("figure3", _gate_figure3),
        _cli_op("figure45", _gate_figure45),
        _cli_op("verify", _gate_verify),
        _cli_op("critical-b", _gate_critical_b),
        _cli_op("mc", _gate_mc(PAPER_MC_K)),
        _cli_op("simulate", _gate_simulate_defaults),
    ),
)


# -- scaled_k500 ---------------------------------------------------------------------------

def _prepare_scaled(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(derive(seed, "states"))
    return {
        "reservoir_seed": derive(seed, "reservoir"),
        "drive": dynamics.IidSign(AMPLITUDE, derive(seed, "input")),
        "x0": rng.uniform(-1.0, 1.0, SCALED_K),
        "y0": rng.uniform(-1.0, 1.0, SCALED_K),
    }


def _build(ctx):
    ctx["res"] = reservoir.make_orthogonal_reservoir(SCALED_K, 1, 0.5, ctx["reservoir_seed"])
    return ctx["res"]


def _gate_build(ctx, res):
    errors = [] if res.k == SCALED_K and res.tf.kind == "tanh" else ["unexpected reservoir"]
    return errors, {"W": sha256_array(res.W), "w_in": sha256_array(res.w_in)}


def _gate_esc(ctx, verdict):
    errors = [] if verdict.critical_boundary else [f"check_esc: {verdict}"]
    return errors, {"esc": hashlib.sha256(repr(verdict).encode()).hexdigest()}


def _gate_run(ctx, traj):
    s = traj.states
    errors = []
    if s.shape != (SCALED_T, SCALED_K):
        errors.append(f"states shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > 1.0:
        errors.append("states not finite or outside [-1, 1]")
    return errors, {"states": sha256_array(s), "linear_states": sha256_array(traj.linear_states)}


def _gate_trace(ctx, trace):
    errors = non_increasing(trace.q, SCALED_K)
    if trace.q.size != SCALED_T:
        errors.append(f"trace has {trace.q.size} samples")
    return errors, {"q": sha256_array(trace.q)}


def _gate_lyapunov(ctx, result):
    errors = []
    if not (math.isfinite(result.exponent) and math.isfinite(result.stderr)):
        errors.append(f"exponent {result.exponent} +- {result.stderr} not finite")
    elif result.exponent > result.stderr:
        errors.append(f"exponent {result.exponent} > 0 beyond its stderr {result.stderr}")
    record = repr((result.exponent, result.stderr, result.T_used))
    return errors, {"lyapunov": hashlib.sha256(record.encode()).hexdigest()}


SCALED_K500 = Workload(
    name="scaled_k500",
    prepare=_prepare_scaled,
    ops=(
        Op("reservoir.make_orthogonal_reservoir", _build, _gate_build),
        Op("reservoir.check_esc", lambda ctx: reservoir.check_esc(ctx["res"]), _gate_esc),
        Op(
            "dynamics.run",
            lambda ctx: dynamics.run(ctx["res"], ctx["drive"], ctx["x0"], SCALED_T),
            _gate_run,
        ),
        Op(
            "dynamics.convergence_trace",
            lambda ctx: dynamics.convergence_trace(ctx["res"], ctx["drive"], ctx["x0"], ctx["y0"], SCALED_T),
            _gate_trace,
        ),
        Op(
            "analysis.lyapunov_exponent",
            lambda ctx: analysis.lyapunov_exponent(
                ctx["res"], dynamics.Alternating(AMPLITUDE), T=SCALED_T, renorm_interval=10, x0=ctx["x0"]
            ),
            _gate_lyapunov,
        ),
    ),
)


# -- mid_k_readout_io ----------------------------------------------------------------------

def _write_config(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _prepare_mid(seed: int, workdir: Path) -> dict:
    rng = random.Random(derive(seed, "states"))
    simulate = {
        "reservoir": {"k": MID_SIM_K, "seed": derive(seed, "reservoir"), "transfer": "sine_sigmoid"},
        "input": {"kind": "iid_sign", "amplitude": AMPLITUDE, "seed": derive(seed, "input")},
        "T": MID_SIM_T,
        "x0": [rng.uniform(-1.0, 1.0) for _ in range(MID_SIM_K)],
        "y0": [rng.uniform(-1.0, 1.0) for _ in range(MID_SIM_K)],
    }
    return {
        "out": workdir / "artifacts",
        "cli_seed": derive(seed, "cli"),
        "configs": {
            "mc": _write_config(workdir / "inputs" / "mc.json", MID_MC),
            "simulate": _write_config(workdir / "inputs" / "simulate.json", simulate),
        },
    }


def _gate_mid_simulate(ctx, out):
    errors = _gate_states_csv(MID_SIM_K, MID_SIM_T, out / "states.csv")
    q = _read_q(out / "trace.csv")
    if q.size != MID_SIM_T:
        errors.append(f"trace.csv has {q.size} rows, want {MID_SIM_T}")
    return errors + non_increasing(q, MID_SIM_K)


MID_K_READOUT_IO = Workload(
    name="mid_k_readout_io",
    prepare=_prepare_mid,
    ops=(
        _cli_op("mc", _gate_mc(MID_MC["k"]), config="mc"),
        _cli_op("simulate", _gate_mid_simulate, config="simulate"),
    ),
)


WORKLOADS = {w.name: w for w in (PAPER_DEFAULTS, SCALED_K500, MID_K_READOUT_IO)}


def input_digests(ctx: dict) -> dict[str, str]:
    """sha256 of everything the program is given, so a new seed shows as new inputs."""
    out = {}
    for key, val in sorted(ctx.items()):
        if key == "configs":
            out.update({f"config/{name}": sha256_file(path) for name, path in sorted(val.items())})
        elif isinstance(val, np.ndarray):
            out[key] = sha256_array(val)
        elif key != "out":
            out[key] = hashlib.sha256(repr(val).encode()).hexdigest()
    return out
