"""Experiment harness: reproducible subcommands emitting CSV/JSON artifacts.

Subcommands
-----------
figure3     Coupling sweep of the alternating-drive neuron's Lyapunov exponent.
figure45    Twin-perturbation traces (alternating vs i.i.d. drive) + decay fits.
verify      Contraction certificates: cover inequality, covering-sequence
            dominance, cover-function shape facts, per-step audits.
critical-b  Critical coupling of the tanh neuron under alternating drive.
mc          Delay-reconstruction memory capacity of a seeded reservoir.
simulate    Free-form trajectory (and optional twin trace) from a config.

Every run writes the fully resolved config next to its outputs and a
run_meta.json sidecar; CSV/JSON bodies are deterministic byte-for-byte
(timestamps live only in the sidecar).  Exit codes: 0 success, 1 failed
verification, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, contraction, dynamics, readout
from .reservoir import Reservoir, load_matrix_csv, make_orthogonal_reservoir, scale_to_spectrum
from .transfer import LINEAR, SINE_SIGMOID, TANH, TransferFunction

_PI4 = math.pi / 4

DEFAULTS: dict[str, dict] = {
    "figure3": {
        "b_lo": 0.5,
        "b_hi": 1.5,
        "b_step": 0.05,
        "amplitude": _PI4,
        "T": 100_000,
        "renorm_interval": 10,
        "eps0": 1e-9,
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
        "delta_grid": [0.0, 4.0, 1e-2],
        "zeta_grid": [-4.0, 4.0, 1e-2],
        "n_list": [1, 2, 4],
        "vector_samples": 20000,
        "q0_list": [0.1, 0.5, 1.0],
        "dominance_T": 100_000,
        "audit_k_list": [1, 4, 16],
        "audit_runs_per_case": 2,
        "audit_T": 200,
        "seed": 0,
    },
    "critical-b": {
        "transfer": "tanh",
        "amplitude": _PI4,
        "bracket": [1.5, 3.0],
        "tol": 1e-6,
    },
    "mc": {
        "k": 8,
        "n": 1,
        "seed": 42,
        "transfer": "tanh",
        "input_scale": 0.5,
        "spectrum_target": 0.99,
        "spectrum_mode": "singular",
        "amplitude": 1.0,
        "max_delay": 100,
        "T": 20_000,
        "washout": 200,
        "ridge": 1e-8,
    },
    "simulate": {
        "reservoir": {"k": 1, "n": 1, "seed": 0, "transfer": "tanh", "input_scale": 1.0},
        "input": {"kind": "alternating", "amplitude": _PI4},
        "T": 1000,
        "x0": "zeros",
    },
}

_TF_BY_NAME = {"tanh": TANH, "sine_sigmoid": SINE_SIGMOID, "linear": LINEAR}


class ConfigError(Exception):
    pass


def _load_config(path: str | None, command: str) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS[command]))  # deep copy
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
        if not isinstance(user, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        for key, val in user.items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    return cfg


def _transfer_from_config(value) -> TransferFunction:
    if isinstance(value, str):
        if value not in _TF_BY_NAME:
            raise ConfigError(f"unknown transfer kind {value!r}")
        return _TF_BY_NAME[value]
    if isinstance(value, dict):
        try:
            return TransferFunction.from_dict(value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad transfer spec {value!r}: {exc}") from exc
    raise ConfigError(f"bad transfer spec {value!r}")


def _input_from_config(cfg: dict) -> dynamics.InputSequence:
    kind = cfg.get("kind")
    if kind == "alternating":
        return dynamics.Alternating(float(cfg["amplitude"]))
    if kind == "iid_sign":
        return dynamics.IidSign(float(cfg["amplitude"]), int(cfg.get("seed", 0)))
    if kind == "constant":
        return dynamics.Constant(float(cfg["value"]))
    if kind == "file":
        return dynamics.FileInput(str(cfg["path"]))
    raise ConfigError(f"unknown input kind {kind!r}")


def _reservoir_from_config(cfg: dict) -> Reservoir:
    tf = _transfer_from_config(cfg.get("transfer", "tanh"))
    if "w_csv" in cfg:
        W = load_matrix_csv(cfg["w_csv"])
        if "w_in_csv" in cfg:
            w_in = load_matrix_csv(cfg["w_in_csv"])
        else:
            w_in = np.ones((W.shape[0], 1))
    else:
        base = make_orthogonal_reservoir(
            int(cfg.get("k", 1)),
            int(cfg.get("n", 1)),
            float(cfg.get("input_scale", 1.0)),
            int(cfg.get("seed", 0)),
        )
        W, w_in = base.W, base.w_in
    if cfg.get("spectrum_target") is not None:
        W = scale_to_spectrum(W, float(cfg["spectrum_target"]), cfg.get("spectrum_mode", "singular"))
    return Reservoir(W=W, w_in=w_in, tf=tf)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands --------------------------------------------------------------
# Each returns (files written, exit code); main records both in run_meta.json.

def cmd_figure3(cfg: dict, out: Path) -> tuple[list[str], int]:
    if "b_grid" in cfg:
        grid = [float(b) for b in cfg["b_grid"]]
    else:
        bounds = (float(cfg[key]) for key in ("b_lo", "b_hi", "b_step"))
        grid = contraction._grid(*bounds).tolist()
    if not grid:
        raise ConfigError("empty coupling grid")
    amp = float(cfg["amplitude"])
    points = analysis.lyapunov_sweep(
        dynamics.make_alternating_neuron,
        dynamics.Alternating(amp),
        grid,
        T=int(cfg["T"]),
        renorm_interval=int(cfg["renorm_interval"]),
        eps0=float(cfg["eps0"]),
        orbit_factory=lambda b: dynamics.alternating_orbit(amp),
    )
    analysis.write_sweep_csv(out / "figure3_lyapunov.csv", points)
    failed = [p.b for p in points if p.error is not None]
    if failed:
        print(f"figure3: {len(failed)} cells failed: {failed}", file=sys.stderr)
    return ["figure3_lyapunov.csv"], 0 if not failed else 1


def cmd_figure45(cfg: dict, out: Path) -> tuple[list[str], int]:
    res = dynamics.make_alternating_neuron(float(cfg["b"]))
    amp = float(cfg["amplitude"])
    T = int(cfg["T"])
    perturb_at = int(cfg["perturb_at"])
    delta = float(cfg["delta_u"])
    t_start = int(cfg["fit_t_start"])
    files = []
    results = {}
    for name, spec in (
        ("alternating", dynamics.Alternating(amp)),
        ("iid", dynamics.IidSign(amp, int(cfg["seed"]))),
    ):
        trace = dynamics.perturbation_experiment(res, spec, perturb_at, delta, T)
        fit = analysis.fit_decay(trace, t_start=t_start)
        stem = "figure4_alternating" if name == "alternating" else "figure5_iid"
        dynamics.write_trace_csv(out / f"{stem}_trace.csv", trace)
        payload = analysis.decay_fit_to_dict(fit)
        payload["floor_hit_at"] = trace.floor_hit_at
        _write_json(out / f"decay_fit_{name}.json", payload)
        files += [f"{stem}_trace.csv", f"decay_fit_{name}.json"]
        results[name] = fit.law
    print(f"figure45: alternating -> {results['alternating']}, iid -> {results['iid']}")
    return files, 0


def _verify_checks(cfg: dict) -> dict:
    p = contraction.CoverParams(
        eta=float(cfg["eta"]), gamma=float(cfg["gamma"]), kappa=float(cfg["kappa"])
    )
    delta_grid = tuple(cfg["delta_grid"])
    zeta_grid = tuple(cfg["zeta_grid"])
    checks: dict[str, contraction.VerificationReport] = {}
    kinds = list(cfg["transfer_kinds"])
    for kind in kinds:
        tf = _transfer_from_config(kind)
        checks[f"cover_{kind}"] = contraction.verify_cover_inequality(tf, p, delta_grid, zeta_grid)
        for n in cfg["n_list"]:
            if n > 1:
                checks[f"cover_vec_{kind}_n{n}"] = contraction.verify_cover_inequality_vec(
                    tf, int(n), int(cfg["vector_samples"]), seed=int(cfg["seed"])
                )
    checks["phi_shape"] = contraction.check_phi_properties(p)
    for q0 in cfg["q0_list"]:
        checks[f"dominance_q0_{q0}"] = contraction.verify_dominance(float(q0), p, int(cfg["dominance_T"]))
    rng = np.random.default_rng(int(cfg["seed"]))
    amp = _PI4
    i = 0
    for k in cfg["audit_k_list"]:
        for kind in kinds:
            tf = _transfer_from_config(kind)
            for _ in range(int(cfg["audit_runs_per_case"])):
                seed = int(rng.integers(0, 2**31))
                base = make_orthogonal_reservoir(int(k), 1, 0.5, seed)
                res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
                spec = [
                    dynamics.Alternating(amp),
                    dynamics.IidSign(amp, seed),
                    dynamics.Constant(0.3 * amp),
                ][i % 3]
                i += 1
                x0 = rng.uniform(-1.0, 1.0, int(k))
                y0 = rng.uniform(-1.0, 1.0, int(k))
                checks[f"step_audit_{kind}_k{k}_{i}"] = contraction.audit_step_inequality(
                    res, spec, x0, y0, int(cfg["audit_T"])
                )
    return checks


def cmd_verify(cfg: dict, out: Path) -> tuple[list[str], int]:
    checks = _verify_checks(cfg)
    payload = {name: asdict(rep) for name, rep in checks.items()}
    all_passed = all(rep.passed for rep in checks.values())
    payload["all_passed"] = all_passed
    _write_json(out / "verify_report.json", payload)
    for name, rep in sorted(checks.items()):
        print(f"{'PASS' if rep.passed else 'FAIL'}  {name}  worst_margin={rep.worst_margin:.3g}")
    return ["verify_report.json"], 0 if all_passed else 1


def cmd_critical_b(cfg: dict, out: Path) -> tuple[list[str], int]:
    tf = _transfer_from_config(cfg["transfer"])
    amp = float(cfg["amplitude"])
    bracket = tuple(float(v) for v in cfg["bracket"])
    tol = float(cfg["tol"])
    try:
        b_star, orbit_amp = analysis.find_critical_b(tf, amp, bracket, tol)
    except ValueError as exc:
        raise ConfigError(f"critical-b failed: {exc}") from exc
    x_lin = b_star * orbit_amp - amp
    payload = {
        "b_star": b_star,
        "orbit_amplitude": orbit_amp,
        "orbit_residual": abs(tf(x_lin) - orbit_amp),
        "stability_residual": abs(abs(b_star * tf.derivative(x_lin)) - 1.0),
    }
    _write_json(out / "critical_b.json", payload)
    print(f"critical-b: b*={b_star:.9g}, |x*|={orbit_amp:.9g}")
    return ["critical_b.json"], 0


def cmd_mc(cfg: dict, out: Path) -> tuple[list[str], int]:
    res = _reservoir_from_config(cfg)
    result = readout.memory_capacity(
        res,
        float(cfg["amplitude"]),
        int(cfg["max_delay"]),
        int(cfg["T"]),
        washout=int(cfg["washout"]),
        ridge=float(cfg["ridge"]),
        seed=int(cfg.get("mc_seed", cfg.get("seed", 0))),
    )
    readout.write_mc_csv(out / "mc.csv", result)
    print(f"mc: total={result.mc_total:.4f} over {len(result.per_delay)} delays (k={res.k})")
    return ["mc.csv"], 0


def cmd_simulate(cfg: dict, out: Path) -> tuple[list[str], int]:
    res = _reservoir_from_config(cfg.get("reservoir", {}))
    input_spec = _input_from_config(cfg.get("input", {}))
    T = int(cfg["T"])

    def state_from(v):
        return dynamics._as_state(res, None if v == "zeros" else v)

    x0 = state_from(cfg.get("x0"))
    files = []
    traj = dynamics.run(res, input_spec, x0, T)
    dynamics.write_states_csv(out / "states.csv", traj)
    files.append("states.csv")
    if cfg.get("y0") is not None:
        trace = dynamics.convergence_trace(res, input_spec, x0, state_from(cfg["y0"]), T)
        dynamics.write_trace_csv(out / "trace.csv", trace)
        files.append("trace.csv")
    return files, 0


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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files, exit_code = COMMANDS[args.command](cfg, out)
        _write_json(out / f"{args.command.replace('-', '_')}_config.json", cfg)
        meta = {
            "command": args.command,
            "outputs": sorted(files),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "exit_code": exit_code,
        }
        _write_json(out / "run_meta.json", meta)
    except (ConfigError, OSError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing config key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
