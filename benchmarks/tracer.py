"""Span tracer that wraps the public functions of ``critical_esn`` from outside.

The program has no spans of its own yet, so this module installs wrappers by
assigning module attributes.  A name is replaced in *every* loaded
``critical_esn`` module that holds the same function object, which covers the
by-name imports (``readout.run_with_inputs``, ``analysis.generate_input``,
``cli.make_orthogonal_reservoir``) as well as lazy imports that read the
defining module's attribute at call time
(``contraction.audit_step_inequality`` -> ``dynamics.convergence_trace``).

Spans (name, start, end, parent) are kept in memory per traced iteration;
self time is a span's duration minus the durations of its direct children.
Counts are computed from call arguments and return values, never from the
program's own reports.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# -- counters -------------------------------------------------------------------
# Each takes (tracer, bound_arguments, result).  bound_arguments has defaults
# applied, so counts follow the call as the program received it.  The
# transfer counter is called on every neuron update and takes the input only.


def _grid(spec) -> np.ndarray:
    lo, hi, step = (float(v) for v in spec)
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _count_transfer(tr, x):
    tr.counts["transfer.elems"] += int(np.size(x))


def _count_run(tr, a, out):
    tr.counts["dynamics.neuron_steps"] += a["res"].k * int(a["T"])


def _count_run_with_inputs(tr, a, out):
    # run() delegates to run_with_inputs(); count the outer call only.
    if tr.parent_name() != "dynamics.run":
        inputs = np.atleast_2d(np.asarray(a["inputs"]))
        tr.counts["dynamics.neuron_steps"] += a["res"].k * inputs.shape[0]


def _count_twin(tr, a, out):
    tr.counts["dynamics.neuron_steps"] += 2 * a["res"].k * int(a["T"])
    if out.floor_hit_at is not None:
        tr.counts["dynamics.floor_hits"] += 1


def _count_write(tr, a, out):
    tr.counts["dynamics.write_bytes"] += os.path.getsize(a["path"])


def _count_lyapunov(tr, a, out):
    tr.counts["analysis.lyapunov_steps"] += out.T_used
    tr.counts["analysis.renorm_blocks"] += out.T_used // out.renorm_interval


def _count_sweep(tr, a, out):
    tr.counts["analysis.sweep_cells"] += len(out)
    tr.counts["analysis.sweep_cells_failed"] += sum(p.error is not None for p in out)


def _count_check(tr, a, out):
    tr.counts["contraction.checks"] += 1
    tr.counts["contraction.checks_failed"] += int(not out.passed)


def _count_cover(tr, a, out):
    deltas = _grid(a["delta_grid"])
    tr.counts["contraction.cover_points"] += int(np.sum(deltas > 0)) * _grid(a["zeta_grid"]).size
    _count_check(tr, a, out)


def _count_cover_vec(tr, a, out):
    tr.counts["contraction.cover_points"] += int(a["n_samples"])
    _count_check(tr, a, out)


def _count_dominance(tr, a, out):
    tr.counts["contraction.dominance_steps"] += int(a["T"])
    _count_check(tr, a, out)


def _count_cli(tr, a, out):
    tr.counts["cli.nonzero_exits"] += int(out != 0)


# (module, attribute, span name, counter).  The transfer entries are methods
# of TransferFunction and are patched on the class.
TARGETS = [
    ("transfer", "TransferFunction.__call__", "transfer.call", _count_transfer),
    ("transfer", "TransferFunction.derivative", "transfer.derivative", _count_transfer),
    ("reservoir", "make_orthogonal_reservoir", "reservoir.build", None),
    ("reservoir", "scale_to_spectrum", "reservoir.scale", None),
    ("reservoir", "check_esc", "reservoir.esc", None),
    ("dynamics", "generate_input", "dynamics.input", None),
    ("dynamics", "run", "dynamics.run", _count_run),
    ("dynamics", "run_with_inputs", "dynamics.run_with_inputs", _count_run_with_inputs),
    ("dynamics", "convergence_trace", "dynamics.convergence_trace", _count_twin),
    ("dynamics", "perturbation_experiment", "dynamics.perturbation_experiment", _count_twin),
    ("dynamics", "write_trace_csv", "dynamics.write_trace_csv", _count_write),
    ("dynamics", "write_states_csv", "dynamics.write_states_csv", _count_write),
    ("analysis", "lyapunov_exponent", "analysis.lyapunov_exponent", _count_lyapunov),
    ("analysis", "lyapunov_sweep", "analysis.lyapunov_sweep", _count_sweep),
    ("analysis", "fit_decay", "analysis.fit_decay", None),
    ("analysis", "find_critical_b", "analysis.find_critical_b", None),
    ("analysis", "write_sweep_csv", "analysis.write_sweep_csv", None),
    ("contraction", "verify_cover_inequality", "contraction.cover", _count_cover),
    ("contraction", "verify_cover_inequality_vec", "contraction.cover_vec", _count_cover_vec),
    ("contraction", "check_phi_properties", "contraction.phi_shape", _count_check),
    ("contraction", "verify_dominance", "contraction.dominance", _count_dominance),
    ("contraction", "audit_step_inequality", "contraction.audit", _count_check),
    ("readout", "memory_capacity", "readout.memory_capacity", None),
    ("readout", "fit_readout", "readout.fit_readout", None),
    ("readout", "predict", "readout.predict", None),
    ("cli", "main", "cli", _count_cli),
]

CLI_COMMANDS = ("figure3", "figure45", "verify", "critical-b", "mc", "simulate")

# Per-layer metrics: name -> (unit, how, span names or counter).
#   "self":  sum of self times of the spans
#   "total": sum of span durations (children included)
#   "calls": number of spans
#   "count": a counter filled by the functions above
LAYER_METRICS = {
    "transfer.calls": ("count", "calls", ("transfer.call", "transfer.derivative")),
    "transfer.elems": ("count", "count", "transfer.elems"),
    "transfer.self_s": ("s", "self", ("transfer.call", "transfer.derivative")),
    "reservoir.build_s": ("s", "total", ("reservoir.build", "reservoir.scale")),
    "reservoir.esc_s": ("s", "total", ("reservoir.esc",)),
    "dynamics.input_s": ("s", "total", ("dynamics.input",)),
    "dynamics.run_self_s": ("s", "self", ("dynamics.run", "dynamics.run_with_inputs")),
    "dynamics.twin_self_s": ("s", "self", ("dynamics.convergence_trace", "dynamics.perturbation_experiment")),
    "dynamics.neuron_steps": ("count", "count", "dynamics.neuron_steps"),
    "dynamics.floor_hits": ("count", "count", "dynamics.floor_hits"),
    "dynamics.write_s": ("s", "total", ("dynamics.write_trace_csv", "dynamics.write_states_csv")),
    "dynamics.write_bytes": ("bytes", "count", "dynamics.write_bytes"),
    "analysis.lyapunov_self_s": ("s", "self", ("analysis.lyapunov_exponent", "analysis.lyapunov_sweep")),
    "analysis.lyapunov_steps": ("count", "count", "analysis.lyapunov_steps"),
    "analysis.renorm_blocks": ("count", "count", "analysis.renorm_blocks"),
    "analysis.sweep_cells": ("count", "count", "analysis.sweep_cells"),
    "analysis.sweep_cells_failed": ("count", "count", "analysis.sweep_cells_failed"),
    "analysis.fit_decay_s": ("s", "total", ("analysis.fit_decay",)),
    "analysis.critical_b_s": ("s", "total", ("analysis.find_critical_b",)),
    "analysis.write_s": ("s", "total", ("analysis.write_sweep_csv",)),
    "contraction.cover_s": ("s", "total", ("contraction.cover", "contraction.cover_vec", "contraction.phi_shape")),
    "contraction.cover_points": ("count", "count", "contraction.cover_points"),
    "contraction.dominance_s": ("s", "total", ("contraction.dominance",)),
    "contraction.dominance_steps": ("count", "count", "contraction.dominance_steps"),
    "contraction.audit_self_s": ("s", "self", ("contraction.audit",)),
    "contraction.checks": ("count", "count", "contraction.checks"),
    "contraction.checks_failed": ("count", "count", "contraction.checks_failed"),
    "readout.mc_self_s": ("s", "self", ("readout.memory_capacity",)),
    "readout.fit_s": ("s", "total", ("readout.fit_readout",)),
    "readout.fit_calls": ("count", "calls", ("readout.fit_readout",)),
    "readout.predict_s": ("s", "total", ("readout.predict",)),
    **{
        f"cli.{cmd.replace('-', '_')}_s": ("s", "total", (f"cli.{cmd}",))
        for cmd in CLI_COMMANDS
    },
    "cli.self_s": ("s", "self", tuple(f"cli.{cmd}" for cmd in CLI_COMMANDS)),
    "cli.nonzero_exits": ("count", "count", "cli.nonzero_exits"),
}


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts for one traced iteration at a time."""

    def __init__(self):
        self._undo: list = []
        self.missing: list[str] = []
        self.table: list[str] = []  # span names; spans hold indexes into it
        self._ids: dict[str, int] = {}
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording --------------------------------------------------------------
    def reset(self) -> None:
        """Forget the recorded iteration; the installed wrappers keep these lists."""
        for buf in (self.names, self.parents, self.starts, self.ends):
            buf.clear()
        del self.stack[1:]
        self.counts.clear()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        # The innermost open span is the caller of the function being counted.
        return self.table[self.names[self.stack[-1]]] if self.stack[-1] >= 0 else None

    def _wrap(self, fn, span, counter):
        sig = inspect.signature(fn)
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter
        tracer = self
        span_id = self.intern(span)
        by_argv = span == "cli"
        raw = counter is _count_transfer  # hot path: skip argument binding

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(tracer.intern(f"cli.{(args[0] if args else kwargs['argv'])[0]}") if by_argv else span_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if raw:
                counter(tracer, args[1] if len(args) > 1 else kwargs["x"])
            elif counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every target in every loaded critical_esn module."""
        self.missing = []
        mods = [m for n, m in sorted(sys.modules.items()) if n == "critical_esn" or n.startswith("critical_esn.")]
        for modname, dotted, span, counter in TARGETS:
            module = sys.modules.get(f"critical_esn.{modname}")
            try:
                owner, attr = _resolve(module, dotted)
                orig = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{modname}.{dotted}")
                continue
            wrapped = self._wrap(orig, span, counter)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- summarising ----------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays; a parent of -1 marks a top-level call."""
        return {
            "name": np.asarray(self.names, dtype=np.int32),
            "start": np.asarray(self.starts, dtype=float),
            "end": np.asarray(self.ends, dtype=float),
            "parent": np.asarray(self.parents, dtype=np.int64),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values for the iteration recorded since the last reset."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        selfs = dur - child[: dur.size]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, n in enumerate(self.names):
            by_name[self.table[n]].append(i)
        out: dict[str, float] = {}
        for metric, (_unit, how, what) in LAYER_METRICS.items():
            if how == "count":
                out[metric] = int(self.counts.get(what, 0))
                continue
            idx = [i for n in what for i in by_name.get(n, ())]
            if how == "calls":
                out[metric] = len(idx)
            elif how == "self":
                out[metric] = float(np.sum(selfs[idx])) if idx else 0.0
            else:
                out[metric] = float(np.sum(dur[idx])) if idx else 0.0
        return out


def concat_spans(per_iteration: list[dict], table: list[str]) -> dict[str, np.ndarray]:
    """Spans of several iterations in one table; parents index within an iteration.

    ``name`` indexes ``names``, the span-name table.
    """
    keys = ("name", "start", "end", "parent")
    out = {k: np.concatenate([sp[k] for sp in per_iteration]) for k in keys}
    out["iteration"] = np.concatenate([np.full(sp["start"].size, i) for i, sp in enumerate(per_iteration)])
    out["names"] = np.asarray(table, dtype=str)
    return out
