"""Tests of the benchmark harness itself; the repository's own pytest run skips them.

    python3 -m pytest -q benchmarks/tests

Each test runs benchmarks/bench.py as a subprocess with --seconds 1, so a
traced run does one untraced and one traced iteration of the workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("paper_defaults", "scaled_k500", "mid_k_readout_io")

# Per-layer metrics that must be non-zero on each workload, because the
# workload runs that layer.  Every other metric of the workload must be 0:
# the workload bypasses the layer and serves as its control.
ALWAYS = {"transfer.calls", "transfer.elems", "transfer.self_s", "reservoir.build_s",
          "dynamics.input_s", "dynamics.run_self_s", "dynamics.twin_self_s", "dynamics.neuron_steps"}
RUNS_ON = {
    "paper_defaults": ALWAYS | {
        "dynamics.floor_hits", "dynamics.write_s", "dynamics.write_bytes",
        "analysis.lyapunov_self_s", "analysis.lyapunov_steps", "analysis.renorm_blocks",
        "analysis.sweep_cells", "analysis.fit_decay_s", "analysis.critical_b_s", "analysis.write_s",
        "contraction.cover_s", "contraction.cover_points", "contraction.dominance_s",
        "contraction.dominance_steps", "contraction.audit_self_s", "contraction.checks",
        "readout.mc_self_s", "readout.fit_s", "readout.fit_calls", "readout.predict_s",
        "cli.figure3_s", "cli.figure45_s", "cli.verify_s", "cli.critical_b_s", "cli.mc_s",
        "cli.simulate_s", "cli.self_s",
    },
    "scaled_k500": ALWAYS | {
        "reservoir.esc_s", "analysis.lyapunov_self_s", "analysis.lyapunov_steps", "analysis.renorm_blocks",
    },
    "mid_k_readout_io": ALWAYS | {
        "dynamics.floor_hits", "dynamics.write_s", "dynamics.write_bytes",
        "readout.mc_self_s", "readout.fit_s", "readout.fit_calls", "readout.predict_s",
        "cli.mc_s", "cli.simulate_s", "cli.self_s",
    },
}
TIMES = {name for name, (unit, _, _) in tracer.LAYER_METRICS.items() if unit == "s"}


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """Record and result of one run; ``repeat`` asks for another run of the same arguments."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_digests(workload):
    rec_a, res_a = bench(workload, 1, 1)
    rec_b, res_b = bench(workload, 1, 1, repeat=1)
    assert res_a["correct"] and res_b["correct"]
    counts = {n for n in res_a["metrics"] if n not in TIMES and n != "trace_overhead_s"}
    assert {n: res_a["metrics"][n] for n in counts} == {n: res_b["metrics"][n] for n in counts}
    assert rec_a["digests"] and rec_a["digests"] == rec_b["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_and_passes_gate(workload):
    rec_1, _ = bench(workload, 1, 1)
    rec_2, res_2 = bench(workload, 2, 0)
    assert res_2["correct"] and res_2["failed"] == 0 and res_2["attempted"] >= 1
    inputs_1, inputs_2 = rec_1["input_digests"], rec_2["input_digests"]
    assert inputs_1.keys() == inputs_2.keys()
    changed = {k for k in inputs_1 if inputs_1[k] != inputs_2[k]}
    # Seeds and states all change; a config file may be seed-free when its
    # seed comes in through --seed (mid_k_readout_io's mc.json).
    assert changed >= {k for k in inputs_1 if not k.startswith("config/")}
    assert changed
    assert set(res_2["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res_2["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_reported_where_its_layer_runs(workload):
    _, res = bench(workload, 1, 1)
    metrics = res["metrics"]
    assert set(metrics) == set(tracer.LAYER_METRICS) | {"trace_overhead_s"}
    ran = RUNS_ON[workload]
    assert {n for n in ran if metrics[n]["value"] <= 0} == set()
    bypassed = set(tracer.LAYER_METRICS) - ran
    assert {n for n in bypassed if metrics[n]["value"] != 0} == set()
