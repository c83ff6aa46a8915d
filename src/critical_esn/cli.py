"""Experiment harness: reproducible subcommands emitting CSV/JSON artifacts.

Subcommands
-----------
figure3     Coupling sweep of the Lyapunov exponent of the alternating-drive
            neuron's period-2 orbit, in closed form.
figure45    Twin-perturbation traces (alternating vs i.i.d. drive) + decay fits.
verify      Contraction certificates: cover inequality, covering-sequence
            dominance, cover-function shape facts, per-step audits.
critical-b  Critical coupling of the tanh neuron under alternating drive.
mc          Delay-reconstruction memory capacity of a seeded reservoir.
simulate    Free-form trajectory (and optional twin trace) from a config.

A config sets only keys that DEFAULTS declares for its subcommand, and
--seed replaces every seed declared there.  Each value must have its
key's form, that of its default or one listed in _FORMS (an int given
for a float is stored as a float), or the run exits 2 naming the key.
A subcommand computes and writes nothing; main makes the output directory
only once it has returned, and prints the subcommand's stdout summary only
after every file is written.  So a run that exits 2 writes nothing and
prints only its error line, while a run that exits 1 (failed verification
or failed sweep cells) still writes every artifact.  Every written run
holds the fully resolved config (which --config accepts back) next to its
outputs and a run_meta.json sidecar;
CSV/JSON bodies are deterministic byte-for-byte for one numpy/BLAS build
and thread count; the sidecar records both, with the timestamp, the wall
time of each phase (config, compute, write) and the config's hash.  Every
JSON artifact writes a non-finite number as null.
Exit codes: 0 success, 1 failed verification, 2 usage/config error
(including a run too large for memory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, contraction, dynamics, readout
from .reservoir import Reservoir, load_matrix_csv, make_orthogonal_reservoir, scale_to_spectrum
from .transfer import TransferFunction

_PI4 = math.pi / 4

# Read by mc and by simulate's "reservoir": CSV matrices and a rescaling of the spectrum.
_RESERVOIR_KEYS = {"w_csv": None, "w_in_csv": None, "spectrum_target": None, "spectrum_mode": "singular"}

# Every key each subcommand reads; None marks an optional key.
DEFAULTS: dict[str, dict] = {
    "figure3": {
        "b_lo": 0.5,
        "b_hi": 1.5,
        "b_step": 0.05,
        "amplitude": _PI4,
    },
    "figure45": {
        "b": 1.0,
        "amplitude": _PI4,
        "delta_u": 0.01,
        "perturb_at": 1,
        "T": 10_000,
        "seed": 0,
        "fit_t_start": 10,
    },
    "verify": {
        "transfer_kinds": ["tanh", "sine_sigmoid"],
        "eta": 1.0 / 48.0,
        "gamma": 0.5,
        "kappa": 2.0,
        "delta_grid": (0.0, 4.0, 1e-2),
        "zeta_grid": (-4.0, 4.0, 1e-2),
        "n_list": [2, 4],
        "vector_samples": 20000,
        "q0_list": [0.1, 0.5, 1.0],
        "audit_k_list": [1, 4, 16],
        "audit_runs_per_case": 2,
        "audit_T": 200,
        "seed": 0,
    },
    "critical-b": {
        "transfer": "tanh",
        "amplitude": _PI4,
        "bracket": (1.5, 3.0),
        "tol": 1e-6,
    },
    "mc": {
        **_RESERVOIR_KEYS,
        "k": 8,
        "n": 1,
        "seed": 42,
        "transfer": "tanh",
        "input_scale": 0.5,
        "spectrum_target": 0.99,
        "amplitude": 1.0,
        "max_delay": 100,
        "T": 20_000,
        "washout": 200,
        "ridge": 1e-8,
    },
    "simulate": {
        "reservoir": {**_RESERVOIR_KEYS, "k": 1, "n": 1, "seed": 0, "transfer": "tanh", "input_scale": 1.0},
        "input": {"kind": "alternating", "amplitude": _PI4, "seed": 0, "value": None, "path": None},
        "T": 1000,
        "x0": "zeros",
        "y0": None,
    },
}

# The keys that may be null or take a second form, with every form each accepts;
# a frozenset lists the strings allowed.  Every other key has its default's form.
_FORMS = {
    "w_csv": ("", None),
    "w_in_csv": ("", None),
    "path": ("", None),
    "spectrum_target": (0.0, None),
    "value": (0.0, None),
    "x0": (frozenset({"zeros"}), [0.0]),
    "y0": (frozenset({"zeros"}), [0.0], None),
    "transfer": ("", {}),
}

_NOUNS = {type(None): "null", dict: "an object", str: "a string", int: "an integer", float: "a finite number"}


class ConfigError(Exception):
    pass


def _conform(form, value):
    """value in the type of form; TypeError (or OverflowError) if it has another form.

    An int form takes no bool, a float form takes a finite int or float, a
    list form takes entries of its first entry's form, a tuple form its length.
    """
    if isinstance(form, float) and type(value) in (int, float) and math.isfinite(value):
        return float(value)
    if isinstance(form, list) and type(value) is list:
        return [_conform(form[0], v) for v in value]
    if isinstance(form, tuple) and type(value) is list and len(value) == len(form):
        return tuple(map(_conform, form, value))
    if isinstance(form, frozenset) and type(value) is str and value in form:
        return value
    if type(value) is type(form) and not isinstance(form, float):
        return value
    raise TypeError


def _describe(form) -> str:
    if isinstance(form, frozenset):
        return " or ".join(map(repr, sorted(form)))
    if isinstance(form, (list, tuple)):  # "a list of 2 finite numbers", "a list of integers"
        size = f"{len(form)} " if isinstance(form, tuple) else ""
        return f"a list of {size}{_NOUNS[type(form[0])].split(' ', 1)[1]}s"
    return _NOUNS[type(form)]


def _checked(key: str, value, where: str, forms: tuple):
    """value in the first of forms it has; ConfigError naming key if it has none."""
    for form in forms:
        try:
            return _conform(form, value)
        except (TypeError, OverflowError):  # OverflowError: an int too large for a float
            pass
    wanted = " or ".join(map(_describe, forms))
    raise ConfigError(f"config key {key!r} in {where} must be {wanted}, got {json.dumps(value)}")


def _overlay(declared: dict, user, seed: int | None, where: str = "config") -> dict:
    """The declared keys, from user where it sets them, recursing into declared objects.

    Each value the user sets must have its key's form (_FORMS, else the
    default's; see _conform) and is stored in that form's type.  A given
    seed replaces every declared "seed".
    """
    if not isinstance(user, dict):
        raise ConfigError(f"{where} must be a JSON object, got {user!r}")
    for key in user:
        if key not in declared:
            raise ConfigError(f"unknown config key {key!r} in {where}")
    cfg = dict(declared)
    for key, default in declared.items():
        if isinstance(default, dict):
            cfg[key] = _overlay(default, user.get(key, {}), seed, f"{where}.{key}")
        elif key == "seed" and seed is not None:
            cfg[key] = seed
        elif key in user:
            cfg[key] = _checked(key, user[key], where, _FORMS.get(key, (default,)))
    return cfg


def _load_config(path: str | None, command: str, seed: int | None) -> dict:
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error in {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return _overlay(DEFAULTS[command], user, seed)


def _transfer_from_config(value) -> TransferFunction:
    if isinstance(value, str):
        return TransferFunction(value)
    try:
        return TransferFunction(**value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad transfer spec {value!r}: {exc}") from exc


def _input_from_config(cfg: dict) -> dynamics.InputSequence:
    kind = cfg["kind"]

    def needed(key):
        if cfg[key] is None:
            raise ConfigError(f"input kind {kind!r} needs {key!r}")
        return cfg[key]

    if kind == "alternating":
        return dynamics.Alternating(cfg["amplitude"])
    if kind == "iid_sign":
        return dynamics.IidSign(cfg["amplitude"], cfg["seed"])
    if kind == "constant":
        return dynamics.Constant(needed("value"))
    if kind == "file":
        return dynamics.FileInput(needed("path"))
    raise ConfigError(f"unknown input kind {kind!r}")


def _reservoir_from_config(cfg: dict) -> Reservoir:
    tf = _transfer_from_config(cfg["transfer"])
    if cfg["w_csv"] is not None:
        W = load_matrix_csv(cfg["w_csv"])
        w_in = np.ones((W.shape[0], 1)) if cfg["w_in_csv"] is None else load_matrix_csv(cfg["w_in_csv"])
    elif cfg["w_in_csv"] is not None:
        raise ConfigError("config key 'w_in_csv' is set but 'w_csv' is not")
    else:
        base = make_orthogonal_reservoir(cfg["k"], cfg["n"], cfg["input_scale"], cfg["seed"])
        W, w_in = base.W, base.w_in
    if cfg["spectrum_target"] is not None:
        W = scale_to_spectrum(W, cfg["spectrum_target"], cfg["spectrum_mode"])
    return Reservoir(W=W, w_in=w_in, tf=tf)


def _jsonable(v):
    """v with result dataclasses as dicts (asdict) and non-finite floats as None."""
    if is_dataclass(v):
        v = asdict(v)
    if isinstance(v, dict):
        return {key: _jsonable(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands --------------------------------------------------------------
# Each returns ({file name: (writer, payload)}, stdout summary, exit code) and
# writes nothing; main calls writer(out / name, payload) for each, records
# both in run_meta.json, then prints the summary.  Writers are module
# attributes read at call time.

def cmd_figure3(cfg: dict) -> tuple[dict, str, int]:
    grid = contraction._grid(cfg["b_lo"], cfg["b_hi"], cfg["b_step"]).tolist()
    spec, orbit = dynamics.Alternating(cfg["amplitude"]), dynamics.alternating_orbit(cfg["amplitude"])
    analysis._orbit_linear_states(dynamics.make_alternating_neuron(cfg["b_lo"]), spec, orbit)  # a non-orbit exits 2
    points = analysis.lyapunov_sweep(dynamics.make_alternating_neuron, spec, grid, reference_orbit=orbit)
    failed = [p.b for p in points if p.error is not None]
    if failed:
        print(f"figure3: {len(failed)} cells failed: {failed}", file=sys.stderr)
    return {"figure3_lyapunov.csv": (analysis.write_sweep_csv, points)}, "", 0 if not failed else 1


def cmd_figure45(cfg: dict) -> tuple[dict, str, int]:
    res = dynamics.make_alternating_neuron(cfg["b"])
    files = {}
    results = {}
    for name, spec in (
        ("alternating", dynamics.Alternating(cfg["amplitude"])),
        ("iid", dynamics.IidSign(cfg["amplitude"], cfg["seed"])),
    ):
        trace = dynamics.perturbation_experiment(res, spec, cfg["perturb_at"], cfg["delta_u"], cfg["T"])
        fit = analysis.fit_decay(trace, t_start=cfg["fit_t_start"])
        stem = "figure4_alternating" if name == "alternating" else "figure5_iid"
        files[f"{stem}_trace.csv"] = (dynamics.write_trace_csv, trace)
        files[f"decay_fit_{name}.json"] = (_write_json, {**asdict(fit), "floor_hit_at": trace.floor_hit_at})
        results[name] = fit.law
    return files, f"figure45: alternating -> {results['alternating']}, iid -> {results['iid']}", 0


def _verify_checks(cfg: dict) -> dict:
    for key in ("transfer_kinds", "n_list", "q0_list"):
        if not cfg[key]:
            raise ConfigError(f"config key {key!r} must name at least one entry")
    kinds = [(kind, _transfer_from_config(kind)) for kind in cfg["transfer_kinds"]]
    if any(n < 2 for n in cfg["n_list"]):
        raise ConfigError(f"n_list entries must be >= 2, got {cfg['n_list']!r}")
    p = contraction.CoverParams(eta=cfg["eta"], gamma=cfg["gamma"], kappa=cfg["kappa"])
    checks: dict[str, contraction.VerificationReport] = {}
    for kind, tf in kinds:
        checks[f"cover_{kind}"] = contraction.verify_cover_inequality(
            tf, p, cfg["delta_grid"], cfg["zeta_grid"]
        )
        for n in cfg["n_list"]:
            checks[f"cover_vec_{kind}_n{n}"] = contraction.verify_cover_inequality_vec(
                tf, n, cfg["vector_samples"], seed=cfg["seed"], p=p
            )
    checks["phi_shape"] = contraction.check_phi_properties(p)
    for q0 in cfg["q0_list"]:
        checks[f"dominance_q0_{q0}"] = contraction.verify_dominance(q0, p)
    rng = np.random.default_rng(cfg["seed"])
    amp = _PI4
    i = 0
    for k in cfg["audit_k_list"]:
        for kind, tf in kinds:
            for _ in range(cfg["audit_runs_per_case"]):
                seed = int(rng.integers(0, 2**31))
                base = make_orthogonal_reservoir(k, 1, 0.5, seed)
                res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
                spec = [
                    dynamics.Alternating(amp),
                    dynamics.IidSign(amp, seed),
                    dynamics.Constant(0.3 * amp),
                ][i % 3]
                i += 1
                x0 = rng.uniform(-1.0, 1.0, k)
                y0 = rng.uniform(-1.0, 1.0, k)
                checks[f"step_audit_{kind}_k{k}_{i}"] = contraction.audit_step_inequality(
                    res, spec, x0, y0, cfg["audit_T"], p
                )
    return checks


def cmd_verify(cfg: dict) -> tuple[dict, str, int]:
    checks = _verify_checks(cfg)
    all_passed = all(rep.passed for rep in checks.values())
    summary = "\n".join(
        f"{'PASS' if rep.passed else 'FAIL'}  {name}  worst_margin={rep.worst_margin:.3g}"
        for name, rep in sorted(checks.items())
    )
    files = {"verify_report.json": (_write_json, {**checks, "all_passed": all_passed})}
    return files, summary, 0 if all_passed else 1


def cmd_critical_b(cfg: dict) -> tuple[dict, str, int]:
    tf = _transfer_from_config(cfg["transfer"])
    b_star, orbit_amp = analysis.find_critical_b(tf, cfg["amplitude"], cfg["bracket"], cfg["tol"])
    x_lin = b_star * orbit_amp - cfg["amplitude"]
    payload = {
        "b_star": b_star,
        "orbit_amplitude": orbit_amp,
        "orbit_residual": abs(tf(x_lin) - orbit_amp),
        "stability_residual": abs(abs(b_star * tf.derivative(x_lin)) - 1.0),
    }
    summary = f"critical-b: b*={b_star:.9g}, |x*|={orbit_amp:.9g}"
    return {"critical_b.json": (_write_json, payload)}, summary, 0


def cmd_mc(cfg: dict) -> tuple[dict, str, int]:
    res = _reservoir_from_config(cfg)
    result = readout.memory_capacity(
        res,
        cfg["amplitude"],
        cfg["max_delay"],
        cfg["T"],
        washout=cfg["washout"],
        ridge=cfg["ridge"],
        seed=cfg["seed"],
    )
    summary = f"mc: total={result.mc_total:.4f} over {len(result.per_delay)} delays (k={res.k})"
    return {"mc.csv": (readout.write_mc_csv, result)}, summary, 0


def cmd_simulate(cfg: dict) -> tuple[dict, str, int]:
    res = _reservoir_from_config(cfg["reservoir"])
    input_spec = _input_from_config(cfg["input"])

    def state_from(key):
        return dynamics._as_state(res, None if cfg[key] == "zeros" else cfg[key], key)

    x0 = state_from("x0")
    files = {"states.csv": (dynamics.write_states_csv, dynamics.run(res, input_spec, x0, cfg["T"]))}
    if cfg["y0"] is not None:
        trace = dynamics.convergence_trace(res, input_spec, x0, state_from("y0"), cfg["T"])
        files["trace.csv"] = (dynamics.write_trace_csv, trace)
    return files, "", 0


# -- entry point ---------------------------------------------------------------

COMMANDS = {
    "figure3": cmd_figure3,
    "figure45": cmd_figure45,
    "verify": cmd_verify,
    "critical-b": cmd_critical_b,
    "mc": cmd_mc,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critical-esn",
        description="Boundary-spectrum echo state network experiments and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config; defaults are built in")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="replace every seed the config declares")
    return parser


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built against; None where numpy does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.26 has no mode="dicts"
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    marks = [time.perf_counter()]
    try:
        cfg = _load_config(args.config, args.command, args.seed)
        marks.append(time.perf_counter())
        files, summary, exit_code = COMMANDS[args.command](cfg)
        marks.append(time.perf_counter())
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, (write, payload) in files.items():
            write(out / name, payload)
        record = out / f"{args.command.replace('-', '_')}_config.json"
        _write_json(record, cfg)
        marks.append(time.perf_counter())
        threads = {var: val for var, val in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")}
        meta = {
            "command": args.command,
            "config_sha256": hashlib.sha256(record.read_bytes()).hexdigest(),
            "numpy": np.__version__,
            "blas": _blas(),
            "num_threads": threads,
            "cpu_count": os.cpu_count(),
            "outputs": sorted(files),
            "phase_s": dict(zip(("config", "compute", "write"), np.diff(marks).tolist())),
            "python": platform.python_version(),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "exit_code": exit_code,
        }
        _write_json(out / "run_meta.json", meta)
    except (ConfigError, MemoryError, OSError, TypeError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if summary:
        print(summary)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
