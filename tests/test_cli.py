"""End-to-end checks of the experiment harness subcommands."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critical_esn
from critical_esn import analysis, contraction, readout
from critical_esn.cli import DEFAULTS, main
from critical_esn.contraction import phi_k

A = math.pi / 4


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFigure3:
    def test_small_grid_crosses_zero(self, tmp_path):
        cfg = _write_config(
            tmp_path, "f3.json", {"b_lo": 0.95, "b_hi": 1.05, "b_step": 0.05}
        )
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "figure3_lyapunov.csv").read_text().splitlines()
        assert rows[0] == "b,lyapunov"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert lams[0] < 0 < lams[-1]
        assert abs(lams[1]) <= 2e-3

    def test_single_point(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_lo": 1.0, "b_hi": 1.0})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "figure3_lyapunov.csv").read_text().splitlines()
        assert len(rows) == 2
        assert abs(float(rows[1].split(",")[1])) <= 2e-3

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_lo": 1.0, "b_hi": 0.9})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_lo": 0.9, "b_hi": 1.0, "b_step": 0.1})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["figure3", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["figure3", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "figure3_lyapunov.csv").read_bytes() == (
            out2 / "figure3_lyapunov.csv"
        ).read_bytes()

    def test_resolved_config_recorded(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_lo": 1.0, "b_hi": 1.0})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "figure3_config.json").read_text())
        assert recorded["b_lo"] == recorded["b_hi"] == 1.0
        assert recorded["amplitude"] == A  # defaults resolved into the record
        assert "T" not in recorded and "eps0" not in recorded  # the closed form takes no run length
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["command"] == "figure3" and "timestamp" in meta

    def test_every_cell_is_log_b(self, tmp_path):
        assert main(["figure3", "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "figure3_lyapunov.csv", delimiter=",", skiprows=1)
        assert len(rows) == 21
        np.testing.assert_allclose(rows[:, 1], np.log(rows[:, 0]), rtol=0.0, atol=1e-12)

    def test_strong_coupling_cells_are_log_b(self, tmp_path):
        # the rounding of the linear state grows with b; none of these cells may fail the orbit check
        cfg = _write_config(tmp_path, "f3.json", {"b_hi": 20.0})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "figure3_lyapunov.csv", delimiter=",", skiprows=1)
        assert len(rows) == 391
        np.testing.assert_allclose(rows[:, 1], np.log(rows[:, 0]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "key, value",
        [
            (key, value)
            for key in ("b_lo", "b_hi", "b_step", "amplitude")
            # no step between 1e-308 and about 1e-6: such a grid is large but still allocates
            for value in (0, -1, 1e308, -1e308, 1e-308, "a string", [1.0], None)
        ]
        + [("amplitude", math.pi / 2), ("amplitude", 0.5)],
    )
    def test_extreme_value_exits_cleanly(self, tmp_path, capsys, key, value):
        # main raises nothing (no traceback), and an exit 2 is one line with no files
        cfg = _write_config(tmp_path, "f3.json", {key: value})
        code = main(["figure3", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()
        if key == "amplitude" and value in (0, math.pi / 2):  # theta' = 0 on the orbit
            rows = (tmp_path / "out" / "figure3_lyapunov.csv").read_text().splitlines()
            assert code == 0 and err == ""
            assert len(rows) == 22 and all(row.endswith(",-inf") for row in rows[1:])
        if key == "b_lo" and value == 1e-308:  # b^2 underflows, log b does not
            rows = (tmp_path / "out" / "figure3_lyapunov.csv").read_text().splitlines()
            assert code == 0 and float(rows[1].split(",")[1]) == pytest.approx(math.log(1e-308), rel=1e-15)
        if key == "amplitude" and value in (0.5, -1, 1e-308, 1e308):  # +-a is an orbit only where sin(4a) = 0
            assert err == "error: reference orbit is not an orbit of the driven map\n"

    def test_failed_cell_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        lyapunov_exponent = analysis.lyapunov_exponent

        def first_cell_fails(res, *args, **kwargs):
            if res.W[0, 0] == -0.9:
                raise ValueError("cell failed")
            return lyapunov_exponent(res, *args, **kwargs)

        monkeypatch.setattr(analysis, "lyapunov_exponent", first_cell_fails)
        cfg = _write_config(tmp_path, "f3.json", {"b_lo": 0.9, "b_hi": 1.0, "b_step": 0.1})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "figure3: 1 cells failed: [0.9]\n"
        rows = (tmp_path / "figure3_lyapunov.csv").read_text().splitlines()
        assert rows[1] == "0.90000000000000002,nan" and rows[2].startswith("1,")


class TestFigure45:
    def test_default_experiment(self, tmp_path):
        cfg = _write_config(tmp_path, "f45.json", {"T": 2000})
        assert main(["figure45", "--config", cfg, "--out", str(tmp_path)]) == 0
        alt = json.loads((tmp_path / "decay_fit_alternating.json").read_text())
        iid = json.loads((tmp_path / "decay_fit_iid.json").read_text())
        assert alt["law"] == "power_law"
        assert iid["floor_hit_at"] is not None and iid["floor_hit_at"] <= 70
        rows = (tmp_path / "figure4_alternating_trace.csv").read_text().splitlines()
        assert rows[0] == "t,q" and len(rows) == 2001
        assert float(rows[65].split(",")[1]) > 0.0

    def test_zero_perturbation_gives_null_traces(self, tmp_path):
        cfg = _write_config(tmp_path, "f45.json", {"T": 500, "delta_u": 0.0})
        assert main(["figure45", "--config", cfg, "--out", str(tmp_path)]) == 0
        for stem in ("figure4_alternating_trace", "figure5_iid_trace"):
            qs = [float(r.split(",")[1]) for r in (tmp_path / f"{stem}.csv").read_text().splitlines()[1:]]
            assert all(q == 0.0 for q in qs)

    def test_subcritical_variant_is_exponential(self, tmp_path):
        cfg = _write_config(tmp_path, "f45.json", {"T": 4000, "b": 0.9})
        assert main(["figure45", "--config", cfg, "--out", str(tmp_path)]) == 0
        alt = json.loads((tmp_path / "decay_fit_alternating.json").read_text())
        iid = json.loads((tmp_path / "decay_fit_iid.json").read_text())
        assert alt["law"] == "exponential"
        assert iid["law"] == "exponential"

    def test_seed_override_changes_iid_trace(self, tmp_path):
        cfg = _write_config(tmp_path, "f45.json", {"T": 500})
        out1, out2 = tmp_path / "s0", tmp_path / "s1"
        assert main(["figure45", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["figure45", "--config", cfg, "--out", str(out2), "--seed", "123"]) == 0
        t1 = (out1 / "figure5_iid_trace.csv").read_bytes()
        t2 = (out2 / "figure5_iid_trace.csv").read_bytes()
        assert t1 != t2
        # the alternating trace has no randomness and must not move
        assert (out1 / "figure4_alternating_trace.csv").read_bytes() == (
            out2 / "figure4_alternating_trace.csv"
        ).read_bytes()


FAST_VERIFY = {
    "delta_grid": [0.0, 4.0, 0.05],
    "zeta_grid": [-4.0, 4.0, 0.05],
    "vector_samples": 2000,
    "audit_runs_per_case": 1,
    "audit_T": 120,
}


class TestVerify:
    def test_default_certificates_pass(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", FAST_VERIFY)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert report["cover_tanh"]["passed"] and report["cover_sine_sigmoid"]["passed"]
        assert any(name.startswith("step_audit_") for name in report)
        statuses = {name: rep["status"] for name, rep in report.items() if name != "all_passed"}
        assert statuses == {name: "proved" if name.startswith("dominance_") else "sampled" for name in statuses}
        assert sum(s == "proved" for s in statuses.values()) == 3  # one per default q0

    def test_identity_transfer_fails_with_nonzero_exit(self, tmp_path):
        cfg = _write_config(
            tmp_path, "v.json", {**FAST_VERIFY, "transfer_kinds": ["linear"]}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        assert not report["cover_linear"]["passed"]
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["exit_code"] == 1

    def test_overgreedy_eta_fails_cover_but_not_dominance(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", {**FAST_VERIFY, "eta": 0.5, "audit_runs_per_case": 0})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert not report["cover_tanh"]["passed"]
        assert report["dominance_q0_0.5"]["passed"]

    def test_cover_params_reach_vector_and_step_checks(self, tmp_path, monkeypatch):
        seen = []

        def spy(z, n_neurons, base=contraction.CoverParams()):
            seen.append(base)
            return phi_k(z, n_neurons, base)

        monkeypatch.setattr(contraction, "phi_k", spy)
        cfg = _write_config(
            tmp_path, "v.json", {**FAST_VERIFY, "eta": 0.5, "transfer_kinds": ["tanh"], "audit_k_list": [1, 4]}
        )
        main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert len(seen) == 4  # two vector checks, two step audits
        assert all(p == contraction.CoverParams(eta=0.5) for p in seen)


class TestCriticalB:
    def test_defaults_reproduce_known_values(self, tmp_path):
        assert main(["critical-b", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "critical_b.json").read_text())
        assert payload["b_star"] == pytest.approx(2.344, abs=1e-3)
        assert payload["orbit_amplitude"] == pytest.approx(0.757, abs=1e-3)
        assert payload["orbit_residual"] <= 1e-5
        assert payload["stability_residual"] <= 1e-5

    def test_zero_amplitude_degenerate(self, tmp_path):
        cfg = _write_config(tmp_path, "cb.json", {"amplitude": 0.0, "bracket": [0.5, 2.0]})
        assert main(["critical-b", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "critical_b.json").read_text())
        assert payload["b_star"] == pytest.approx(1.0, abs=1e-5)
        assert payload["orbit_amplitude"] == 0.0

    def test_tight_tolerance_residuals(self, tmp_path):
        cfg = _write_config(tmp_path, "cb.json", {"tol": 1e-9})
        assert main(["critical-b", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "critical_b.json").read_text())
        assert payload["orbit_residual"] <= 1e-8
        assert payload["stability_residual"] <= 1e-8

    def test_bad_bracket_reported(self, tmp_path):
        cfg = _write_config(tmp_path, "cb.json", {"bracket": [0.1, 0.5]})
        assert main(["critical-b", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestMc:
    def test_totals_row_and_ceiling(self, tmp_path):
        cfg = _write_config(
            tmp_path, "mc.json", {"k": 4, "max_delay": 8, "T": 2000, "spectrum_target": 0.9}
        )
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mc.csv").read_text().splitlines()
        assert lines[0] == "delay,score" and lines[-1].startswith("total,")
        total = float(lines[-1].split(",")[1])
        assert 0.0 <= total <= 4.5

    def test_matrix_injection_from_csv(self, tmp_path):
        from critical_esn.reservoir import save_matrix_csv

        rng = np.random.default_rng(0)
        save_matrix_csv(tmp_path / "w.csv", np.eye(3) * 0.5)
        save_matrix_csv(tmp_path / "win.csv", rng.uniform(-1, 1, (3, 1)))
        cfg = _write_config(
            tmp_path,
            "mc.json",
            {
                "w_csv": str(tmp_path / "w.csv"),
                "w_in_csv": str(tmp_path / "win.csv"),
                "max_delay": 4,
                "T": 1000,
                "spectrum_target": None,
            },
        )
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "mc.json", {"k": 20, "max_delay": 40, "T": 4000})
        for run in ("a", "b"):
            assert main(["mc", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        assert (tmp_path / "a" / "mc.csv").read_bytes() == (tmp_path / "b" / "mc.csv").read_bytes()


class TestSimulate:
    def test_states_match_library_run(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "sim.json",
            {
                "reservoir": {"k": 1, "n": 1, "seed": 0, "transfer": "sine_sigmoid"},
                "input": {"kind": "alternating", "amplitude": A},
                "T": 16,
                "x0": [A],
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "states.csv").read_text().splitlines()
        assert rows[0] == "t,x0" and len(rows) == 17

    def test_transfer_accepts_kind_params_record(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "sim.json",
            {
                "reservoir": {
                    "k": 1,
                    "n": 1,
                    "seed": 0,
                    "transfer": {"kind": "tailored", "params": [-1.5, 2.0]},
                },
                "input": {"kind": "constant", "value": 0.2},
                "T": 10,
                "x0": [0.0],
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "simulate_config.json").read_text())
        assert recorded["reservoir"]["transfer"]["params"] == [-1.5, 2.0]

    def test_twin_trace_written_when_y0_given(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "sim.json",
            {
                "reservoir": {"k": 2, "n": 1, "seed": 1, "transfer": "tanh"},
                "input": {"kind": "iid_sign", "amplitude": A, "seed": 5},
                "T": 50,
                "x0": "zeros",
                "y0": [0.1, -0.2],
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,q" and len(rows) == 51
        assert float(rows[1].split(",")[1]) > 0

    def test_seed_option_sets_every_declared_seed(self, tmp_path):
        for run, seed in (("a", "1"), ("b", "2"), ("c", "1")):
            assert main(["simulate", "--out", str(tmp_path / run), "--seed", seed]) == 0
        states = {run: (tmp_path / run / "states.csv").read_bytes() for run in "abc"}
        assert states["a"] != states["b"]
        assert states["a"] == states["c"]
        cfg = _write_config(tmp_path, "sim.json", {"input": {"kind": "iid_sign"}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d"), "--seed", "7"]) == 0
        recorded = json.loads((tmp_path / "d" / "simulate_config.json").read_text())
        assert recorded["reservoir"]["seed"] == recorded["input"]["seed"] == 7

    def test_file_input_drives_the_run(self, tmp_path):
        u = np.linspace(-1.0, 1.0, 11)[:, None]
        np.savetxt(tmp_path / "u.csv", u, delimiter=",")
        cfg = _write_config(tmp_path, "sim.json", {"input": {"kind": "file", "path": str(tmp_path / "u.csv")}, "T": 10})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        res = critical_esn.make_orthogonal_reservoir(1, 1, 1.0, 0)
        expected = critical_esn.run_with_inputs(res, u[1:]).states
        rows = (tmp_path / "out" / "states.csv").read_text().splitlines()
        assert [float(row.split(",")[1]) for row in rows[1:]] == expected[:, 0].tolist()


class TestConfigHandling:
    def test_parse_error_has_line_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "T": 100,\n  broken\n}\n')
        assert main(["figure45", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_missing_config_file(self, tmp_path):
        assert main(["figure45", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_non_object_config_rejected(self, tmp_path):
        bad = tmp_path / "arr.json"
        bad.write_text("[1, 2, 3]")
        assert main(["mc", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("figure3", {"b_step": 0}),
            ("verify", {"delta_grid": [0, 4, 0]}),
            ("figure45", {"T": None}),
            ("simulate", {"input": {"kind": "constant"}}),
            ("simulate", {"input": 5}),
            ("simulate", {"reservoir": [1]}),
            ("critical-b", {"bracket": [1.5]}),
            ("figure3", {"amplitude": 0.5}),  # not an orbit of the driven map
            ("figure3", {"b_lo": -1e308}),  # too many grid points to count
            ("verify", {"delta_grid": [0.0, 4.0, 1e-320]}),
            ("simulate", {"T": 0}),
            ("critical-b", {"bracket": [0.1, 0.5]}),
            ("mc", {"T": 100}),
            ("verify", {"audit_T": 1}),
            # the states are finite, the twin's are not: no states.csv without the rest
            ("simulate", {"reservoir": {"transfer": "sine_sigmoid"}, "x0": [0.0], "y0": [1e308], "T": 50}),
            # the identity's orbit search ends on its bound x = 4, not on a tangency
            ("critical-b", {"transfer": "linear", "bracket": [0.5, 3.0]}),
            # rejected before the simulation, not after it
            ("mc", {"ridge": -1.0}),
            ("mc", {"washout": -1}),
            ("simulate", {"input": {"kind": "file"}}),
            ("simulate", {"input": {"kind": "sawtooth"}}),
        ],
    )
    def test_ill_formed_config_exits_2_with_one_line(self, tmp_path, capsys, command, payload):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, bounds",
        [
            ("figure3", {"b_hi": 1e308}, "(0.5, 1e+308, 0.05)"),
            ("verify", {"delta_grid": [0.0, 1e308, 0.01]}, "(0.0, 1e+308, 0.01)"),
            ("verify", {"zeta_grid": [-1e308, 1e308, 0.01]}, "(-1e+308, 1e+308, 0.01)"),
        ],
    )
    def test_grid_too_large_to_count_exits_2_naming_its_bounds(self, tmp_path, capsys, command, payload, bounds):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: grid {bounds} has too many points to count\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            # |b| > 2 sends the alternating neuron's state past the float range
            pytest.param({"b": 4.0}, id="4.0"),
            pytest.param({"b": -3.0}, id="-3.0"),
            # the drive (2 - b) u = 2.5e308 overflows, which warns nothing
            pytest.param({"b": -0.5, "amplitude": 1e308}, id="overflowing_drive"),
        ],
    )
    def test_diverging_twins_exit_2_with_one_line(self, tmp_path, capsys, payload):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main(["figure45", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: twin states must stay finite\n"
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert main(["critical-b", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""  # the summary is printed only after the writes
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("n_list", [[1, 2], [0], [2, 4, 1]])
    def test_n_list_entry_below_2_exits_2_naming_it(self, tmp_path, capsys, n_list):
        cfg = _write_config(tmp_path, "bad.json", {"n_list": n_list})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "n_list" in err
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
             "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
        ids=["numpy_message", "bare"],
    )
    def test_memory_error_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, exc, line):
        def too_large(*args, **kwargs):
            raise exc

        monkeypatch.setattr(readout, "memory_capacity", too_large)
        assert main(["mc", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", line)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"transfer_kinds": ["foo"]}, "error: unknown transfer kind 'foo'\n"),
            ({"n_list": [1]}, "error: n_list entries must be >= 2, got [1]\n"),
            # an empty list would leave a report that passes over fewer checks
            ({"transfer_kinds": []}, "error: config key 'transfer_kinds' must name at least one entry\n"),
            ({"n_list": []}, "error: config key 'n_list' must name at least one entry\n"),
            ({"q0_list": []}, "error: config key 'q0_list' must name at least one entry\n"),
        ],
        ids=["transfer_kinds", "n_list", "empty_transfer_kinds", "empty_n_list", "empty_q0_list"],
    )
    def test_bad_verify_value_exits_2_before_making_the_output_directory(
        self, tmp_path, capsys, payload, message
    ):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("figure45", {"Tt": 5}, "Tt"),
            ("simulate", {"reservoir": {"kk": 3}}, "kk"),
            ("simulate", {"input": {"amplitud": 1}}, "amplitud"),
            ("figure3", {"b_grid": [1.0]}, "b_grid"),
            ("mc", {"mc_seed": 1}, "mc_seed"),
            ("simulate", {"reservoir": {"transfer": {"kind": "tailored", "params": [0.5], "x": 1}}}, "x"),
            ("verify", {"dominance_T": 100_000}, "dominance_T"),  # dominance is proved for every t
            # figure3's exponent is in closed form, with no run length
            ("figure3", {"T": 100_000}, "T"),
            ("figure3", {"renorm_interval": 10}, "renorm_interval"),
            ("figure3", {"eps0": 1e-9}, "eps0"),
        ],
    )
    def test_undeclared_key_exits_2_naming_it(self, tmp_path, capsys, command, payload, key):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("figure45", {"T": 100.7}, "T"),
            ("figure45", {"T": math.inf}, "T"),
            ("figure45", {"T": None}, "T"),
            ("figure45", {"perturb_at": 1.9}, "perturb_at"),
            ("figure3", {"b_hi": math.inf}, "b_hi"),
            ("mc", {"k": True}, "k"),
            ("mc", {"ridge": math.nan}, "ridge"),
            ("simulate", {"reservoir": {"k": "3"}}, "k"),
            ("simulate", {"x0": 0.5}, "x0"),
            ("critical-b", {"tol": "1e-3"}, "tol"),
            ("critical-b", {"bracket": [1.5]}, "bracket"),
            ("verify", {"n_list": [2.5]}, "n_list"),
            ("verify", {"audit_k_list": [4.0]}, "audit_k_list"),
        ],
    )
    def test_wrong_type_exits_2_naming_it(self, tmp_path, capsys, command, payload, key):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate", {"T": 5, "reservoir": {"w_in_csv": "win.csv"}}),
            ("mc", {"w_in_csv": "win.csv"}),
        ],
    )
    def test_w_in_csv_without_w_csv_exits_2_naming_it(self, tmp_path, capsys, command, payload):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'w_in_csv'" in err
        assert not (tmp_path / "out").exists()

    def test_run_meta_records_config_hash_and_versions(self, tmp_path):
        metas = []
        for run, payload in (("a", {"T": 300}), ("b", {"T": 300, "b": 1})):
            cfg = _write_config(tmp_path, f"{run}.json", payload)
            assert main(["figure45", "--config", cfg, "--out", str(tmp_path / run)]) == 0
            meta = json.loads((tmp_path / run / "run_meta.json").read_text())
            record = (tmp_path / run / "figure45_config.json").read_bytes()
            assert meta["config_sha256"] == hashlib.sha256(record).hexdigest()
            assert meta["python"] == platform.python_version() and meta["numpy"] == np.__version__
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}
            assert meta["num_threads"] == {v: os.environ[v] for v in sorted(os.environ) if v.endswith("_NUM_THREADS")}
            assert meta["cpu_count"] == os.cpu_count()
            assert list(meta["phase_s"]) == ["compute", "config", "write"]  # sort_keys
            assert all(s >= 0.0 for s in meta["phase_s"].values())
            metas.append(meta)
        assert metas[0]["config_sha256"] == metas[1]["config_sha256"]  # b = 1 is recorded as 1.0

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("figure3", {"b_lo": 0.9, "b_hi": 1.0, "b_step": 0.1}),
            ("figure45", {"T": 300, "b": 0.9}),
            (
                "verify",
                {**FAST_VERIFY, "transfer_kinds": ["tanh"], "n_list": [2], "q0_list": [0.5], "audit_k_list": [1, 4]},
            ),
            ("critical-b", {"tol": 1e-4}),
            ("mc", {"k": 4, "max_delay": 8, "T": 1000}),
            (
                "simulate",
                {
                    "reservoir": {"k": 3, "transfer": "sine_sigmoid"},
                    "input": {"kind": "iid_sign"},
                    "T": 50,
                    "y0": [0.1, -0.2, 0.3],
                },
            ),
            ("figure3", {"b_lo": 1, "b_hi": 1}),
        ],
    )
    def test_recorded_config_round_trips(self, tmp_path, command, payload):
        # The record must hold every declared key and nothing else: fed back
        # through --config it is accepted and reproduces every artifact.
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = _write_config(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(first), "--seed", "7"]) == 0
        record = first / f"{command.replace('-', '_')}_config.json"
        recorded = json.loads(record.read_text())
        assert recorded.keys() == DEFAULTS[command].keys()
        floats = [key for key, default in DEFAULTS[command].items() if isinstance(default, float)]
        assert all(isinstance(recorded[key], float) for key in floats)  # also where an int was given
        assert main([command, "--config", str(record), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir() if p.name != "run_meta.json")
        assert names == sorted(p.name for p in second.iterdir() if p.name != "run_meta.json")
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestDeterminismScope:
    # README: bodies are byte-identical for one numpy/BLAS build and thread
    # count.  At these small configs they are identical across thread counts
    # too; one subprocess per count runs all six subcommands.
    CONFIGS = {
        "figure3": {"b_lo": 0.9, "b_hi": 1.1, "b_step": 0.1},
        "figure45": {},
        "verify": {},
        "critical-b": {},
        "mc": {},
        "simulate": {"reservoir": {"k": 16}, "input": {"kind": "iid_sign"}, "T": 2000, "y0": [0.1] * 16},
    }
    SCRIPT = (
        "import json, sys\n"
        "from critical_esn.cli import main\n"
        "configs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes = [main([c, '--config', p, '--seed', '7', '--out', f'{out}/{c}']) for c, p in configs.items()]\n"
        "sys.exit(max(codes))\n"
    )

    def test_bodies_match_under_one_and_two_blas_threads(self, tmp_path):
        configs = {c: _write_config(tmp_path, f"{c}.json", cfg) for c, cfg in self.CONFIGS.items()}
        # the children import the package this test imported first
        src = str(Path(critical_esn.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        procs = []
        try:
            for n in (1, 2):
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-c", self.SCRIPT, json.dumps(configs), str(tmp_path / f"threads{n}")],
                        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(n)),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                    )
                )
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err.decode()
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        one, two = tmp_path / "threads1", tmp_path / "threads2"
        bodies = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file() and p.name != "run_meta.json")
        assert {p.parent.name for p in bodies} == set(self.CONFIGS)
        assert bodies == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file() and p.name != "run_meta.json")
        for rel in bodies:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
        threads = [json.loads((d / "mc" / "run_meta.json").read_text())["num_threads"] for d in (one, two)]
        assert [t["OPENBLAS_NUM_THREADS"] for t in threads] == ["1", "2"]
