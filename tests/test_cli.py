"""End-to-end checks of the experiment harness subcommands."""

import json
import math

import numpy as np
import pytest

from critical_esn.cli import main

A = math.pi / 4


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFigure3:
    def test_small_grid_crosses_zero(self, tmp_path):
        cfg = _write_config(
            tmp_path, "f3.json", {"b_lo": 0.95, "b_hi": 1.05, "b_step": 0.05, "T": 20_000}
        )
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "figure3_lyapunov.csv").read_text().splitlines()
        assert rows[0] == "b,lyapunov"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert lams[0] < 0 < lams[-1]
        assert abs(lams[1]) <= 2e-3

    def test_single_point(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_grid": [1.0], "T": 20_000})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "figure3_lyapunov.csv").read_text().splitlines()
        assert len(rows) == 2
        assert abs(float(rows[1].split(",")[1])) <= 2e-3

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_grid": []})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_grid": [0.9, 1.0], "T": 5000})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["figure3", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["figure3", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "figure3_lyapunov.csv").read_bytes() == (
            out2 / "figure3_lyapunov.csv"
        ).read_bytes()

    def test_resolved_config_recorded(self, tmp_path):
        cfg = _write_config(tmp_path, "f3.json", {"b_grid": [1.0], "T": 5000})
        assert main(["figure3", "--config", cfg, "--out", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "figure3_config.json").read_text())
        assert recorded["b_grid"] == [1.0]
        assert recorded["T"] == 5000
        assert recorded["eps0"] == 1e-9  # defaults resolved into the record
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["command"] == "figure3" and "timestamp" in meta


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
    "dominance_T": 10_000,
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
        ],
    )
    def test_ill_formed_config_exits_2_with_one_line(self, tmp_path, capsys, command, payload):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
