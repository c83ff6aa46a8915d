"""End-to-end checks of the experiment harness subcommands."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import critical_esn
from critical_esn import analysis, contraction, readout
from critical_esn.cli import _FORMS, DEFAULTS, main
from critical_esn.contraction import phi_k

A = math.pi / 4
_KINDS = "a list of 'linear' or 'sine_sigmoid' or 'tanh'"  # verify's transfer_kinds form


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# (command, payload, what its error line names, or None): each exits 2 with one line.
_ILL_FORMED = [
    ("figure3", {"b_step": 0}, None),
    ("verify", {"delta_grid": [0, 4, 0]}, None),
    ("figure45", {"T": None}, "'T'"),
    ("simulate", {"input": {"kind": "constant"}}, "'value'"),
    ("simulate", {"input": 5}, "config.input"),
    ("simulate", {"reservoir": [1]}, "config.reservoir"),
    ("critical-b", {"bracket": [1.5]}, "'bracket'"),
    ("figure3", {"amplitude": 0.5}, None),  # not an orbit of the driven map
    ("figure3", {"b_lo": -1e308}, None),  # too many grid points to count
    ("verify", {"delta_grid": [0.0, 4.0, 1e-320]}, None),
    ("simulate", {"T": 0}, None),
    ("critical-b", {"bracket": [0.1, 0.5]}, "bracket"),
    ("mc", {"T": 100}, None),
    ("verify", {"audit_T": 1}, None),
    # the states are finite, the twin's are not: no states.csv without the rest
    ("simulate", {"reservoir": {"transfer": "sine_sigmoid"}, "x0": [0.0], "y0": [1e308], "T": 50}, None),
    # the identity's orbit search ends on its bound x = 4, not on a tangency
    ("critical-b", {"transfer": "linear", "bracket": [0.5, 3.0]}, None),
    # rejected before the simulation, not after it
    ("mc", {"ridge": -1.0}, "ridge"),
    ("mc", {"washout": -1}, "washout"),
    ("simulate", {"input": {"kind": "file"}}, "'path'"),
    ("simulate", {"input": {"kind": "sawtooth"}}, None),
    # q0^-kappa overflows a Python float ...
    ("verify", {"kappa": 1e308}, "kappa=1e+308"),
    ("verify", {"q0_list": [1e-308]}, "q0=1e-308"),
    # ... or the uniform draw's range high - low does
    ("mc", {"input_scale": 1e308}, "input_scale 1e+308"),
    ("mc", {"input_scale": -1e308}, "input_scale -1e+308"),
    ("mc", {"amplitude": 1e308}, "input_amplitude 1e+308"),
    ("mc", {"amplitude": -1e308}, "input_amplitude -1e+308"),
    ("simulate", {"reservoir": {"input_scale": 1e308}}, "input_scale 1e+308"),
    ("simulate", {"reservoir": {"input_scale": -1e308}}, "input_scale -1e+308"),
    # ... or b x - amplitude does, for x in the orbit search range [0, 4]
    ("critical-b", {"bracket": [1.5, 1e308]}, "bracket (1.5, 1e+308)"),
    ("critical-b", {"bracket": [-1e308, 3.0]}, "bracket (-1e+308, 3)"),
    # an empty path is no file
    ("mc", {"w_csv": ""}, "config key 'w_csv'"),
    ("simulate", {"reservoir": {"w_csv": ""}}, "config key 'w_csv'"),
    # the perturbed sample 1e308 + 1e308 overflows
    ("figure45", {"amplitude": 1e308, "delta_u": 1e308, "perturb_at": 2, "T": 50}, "delta_u"),
    # a start of the wrong length names its key
    ("simulate", {"x0": []}, "x0 must have shape (1,)"),
    ("simulate", {"y0": [0.1, 0.2]}, "y0 must have shape (1,)"),
    # the sine sigmoid doubles delta + zeta, which overflows past max float / 2
    ("verify", {"delta_grid": [0.0, 1.7e308, 1e307]}, "delta in (0.0,1.7e+308] step 1e+307"),
    ("verify", {"zeta_grid": [0.0, 1.7e308, 1e307]}, "zeta in [0.0,1.7e+308] step 1e+307"),
    ("verify", {"zeta_grid": [-1.7e308, 0.0, 1e307]}, "zeta in [-1.7e+308,0.0] step 1e+307"),
    (
        "verify",
        {"delta_grid": [0.0, 1e308, 1e307], "zeta_grid": [1e308, 1.7e308, 1e307]},
        "delta in (0.0,1e+308] step 1e+307, zeta in [1e+308,1.7e+308] step 1e+307",
    ),
    # dominance needs every q0 in (0, 1]; the line names the key
    ("verify", {"q0_list": [0.5, 1.5]}, "error: q0_list entries must be in (0, 1], got [0.5, 1.5]"),
    ("verify", {"q0_list": [0.0]}, "error: q0_list entries must be in (0, 1], got [0.0]"),
]


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
        if key == "b_step" and value == 1e-308:  # numpy cannot build the grid; the message names it
            assert err == "error: grid (0.5, 1.5, 1e-308) has too many points to count\n"
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
    "audit_runs_per_case": 1,
    "audit_T": 120,
}


class TestVerify:
    def test_default_certificates_pass(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", FAST_VERIFY)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert all(report[f"cover{k}_{kind}"]["passed"] for k in ("", "_k") for kind in ("tanh", "sine_sigmoid"))
        assert "phi_tangent" in report["cover_k_tanh"]["grid_spec"] and not any(n.startswith("cover_vec") for n in report)
        assert any(name.startswith("step_audit_") for name in report)
        statuses = {name: rep["status"] for name, rep in report.items() if name != "all_passed"}
        proved = {name for name in statuses if name.startswith("dominance_") or name == "phi_shape"}
        assert statuses == {name: "proved" if name in proved else "sampled" for name in statuses}
        assert len(proved) == 4  # one per default q0, and the shape facts

    def test_delta_grid_whose_squares_overflow_passes_without_a_warning(self, tmp_path):
        # phi takes its clamp at delta^2 = inf as at every delta^2 >= gamma
        cfg = _write_config(tmp_path, "v.json", {**FAST_VERIFY, "delta_grid": [0.0, 1e300, 1e299]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "verify_report.json").read_text())["all_passed"] is True

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

    def test_kappa_one_certificate_passes(self, tmp_path):
        # kappa = 1 bounds the distance by t^(-1/2), the measured critical rate
        cfg = _write_config(tmp_path, "v.json", {"kappa": 1, "eta": 0.1, "gamma": 0.5})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "verify_report.json").read_text())["all_passed"] is True

    def test_kappa_one_cover_fails_past_eta_one_sixth(self, tmp_path):
        # near delta = 0 the kappa = 1 cover margin is delta^2 (1/6 - eta)
        cfg = _write_config(tmp_path, "v.json", {"kappa": 1, "eta": 0.16, "gamma": 0.5})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = {name: rep["worst_margin"] for name, rep in report.items() if name != "all_passed" and not rep["passed"]}
        assert failed == {
            "cover_tanh": pytest.approx(-2.06e-3, rel=1e-2),
            "cover_sine_sigmoid": pytest.approx(-2.97e-4, rel=1e-2),
            "cover_k_tanh": pytest.approx(-2.38e-3, rel=1e-2),
            "cover_k_sine_sigmoid": pytest.approx(-4.22e-4, rel=1e-2),
        }

    def test_cover_params_reach_tangent_cover_and_step_checks(self, tmp_path, monkeypatch):
        seen = []

        def spy(cover):
            def spied(z, *args):
                seen.append((cover.__name__, args[-1]))  # the cover parameters come last
                return cover(z, *args)

            return spied

        monkeypatch.setattr(contraction, "phi_tangent", spy(contraction.phi_tangent))
        monkeypatch.setattr(contraction, "phi_k", spy(phi_k))
        cfg = _write_config(
            tmp_path, "v.json", {**FAST_VERIFY, "eta": 0.5, "transfer_kinds": ["tanh"], "audit_k_list": [1, 4]}
        )
        main(["verify", "--config", cfg, "--out", str(tmp_path)])
        greedy = contraction.CoverParams(eta=0.5)
        assert seen == [("phi_tangent", greedy), ("phi_k", greedy), ("phi_k", greedy)]  # one cover_k, two step audits


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

    def test_default_residuals_at_rounding_level(self, tmp_path):
        assert main(["critical-b", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "critical_b.json").read_text())
        assert payload["orbit_residual"] <= 1e-15
        assert payload["stability_residual"] <= 1e-15

    def test_amplitude_past_the_reach_of_theta_prime(self, tmp_path):
        # the tangency lies at z ~ 21, where 1 - tanh^2 rounds to 0; b* is read
        # off theta instead, so the run succeeds with b* = a + 22 to rounding
        cfg = _write_config(tmp_path, "cb.json", {"amplitude": 1e18, "bracket": [1, 1e19]})
        assert main(["critical-b", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "critical_b.json").read_text())
        assert payload["b_star"] == pytest.approx(1e18, rel=1e-15)
        assert payload["orbit_amplitude"] == 1.0

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

    @pytest.mark.parametrize(
        "payload",
        [{"amplitude": 1e-100, "T": 4000}, {"transfer": "linear", "amplitude": 1e200, "T": 4000}],
        ids=["tanh_at_1e-100", "linear_at_1e200"],
    )
    def test_memory_does_not_depend_on_the_size_of_the_states(self, tmp_path, capsys, payload):
        # The states are scaled by a power of two before the absolute ridge is added: unscaled, the
        # ridge swamps states of size 1e-100 (total 0) and X.T @ X overflows at 1e200 (total nan).
        # tanh at 1e-100 is the identity, so both are the same linear reservoir.
        cfg = _write_config(tmp_path, "mc.json", payload)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "mc: total=7.3654 over 100 delays (k=8)\n"

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

    @pytest.mark.parametrize("kind", ["linear", "sine_sigmoid", "tanh"])
    def test_transfer_takes_each_kind_name(self, tmp_path, kind):
        cfg = _write_config(tmp_path, "sim.json", {"reservoir": {"transfer": kind}, "T": 10})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        recorded = json.loads((tmp_path / "out" / "simulate_config.json").read_text())
        assert recorded["reservoir"]["transfer"] == kind
        assert len((tmp_path / "out" / "states.csv").read_text().splitlines()) == 11

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

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
    def test_file_input_with_no_data_lines_exits_2_with_one_line(self, tmp_path, capsys, text):
        (tmp_path / "u.csv").write_text(text)
        cfg = _write_config(tmp_path, "sim.json", {"input": {"kind": "file", "path": str(tmp_path / "u.csv")}, "T": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ill-formed input file {str(tmp_path / 'u.csv')!r}: no data lines\n"
        assert not (tmp_path / "out").exists()

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
        "command, payload, named",
        _ILL_FORMED,
        ids=[f"{command}-payload{i}" for i, (command, _, _) in enumerate(_ILL_FORMED)],
    )
    def test_ill_formed_config_exits_2_with_one_line(self, tmp_path, capsys, command, payload, named):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named is None or named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, bounds",
        [
            ("figure3", {"b_hi": 1e308}, "(0.5, 1e+308, 0.05)"),
            ("verify", {"delta_grid": [0.0, 1e308, 0.01]}, "(0.0, 1e+308, 0.01)"),
            ("verify", {"zeta_grid": [-1e308, 1e308, 0.01]}, "(-1e+308, 1e+308, 0.01)"),
            # countable, but more points than numpy can allocate or index
            ("figure3", {"b_step": 1e-12}, "(0.5, 1.5, 1e-12)"),
            ("verify", {"delta_grid": [0.0, 4.0, 1e-300]}, "(0.0, 4.0, 1e-300)"),
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
            ({"transfer_kinds": ["foo"]}, f"error: config key 'transfer_kinds' in config must be {_KINDS}, got [\"foo\"]\n"),
            # an empty list would leave a report that passes over fewer checks
            ({"transfer_kinds": []}, "error: config key 'transfer_kinds' must name at least one entry\n"),
            ({"q0_list": []}, "error: config key 'q0_list' must name at least one entry\n"),
            ({"transfer_kinds": ["tailored"]}, f"error: config key 'transfer_kinds' in config must be {_KINDS}, got [\"tailored\"]\n"),
            # a negative count used to drop the step audits silently; k = 0 names no reservoir
            ({"audit_runs_per_case": -3}, "error: audit_runs_per_case must be >= 0, got -3\n"),
            ({"audit_k_list": [4, 0]}, "error: audit_k_list entries must be >= 1, got [4, 0]\n"),
            # a twin run of audit_T states audits audit_T - 1 steps
            ({"audit_T": 0}, "error: audit_T must be >= 2, got 0\n"),
            ({"audit_T": 1}, "error: audit_T must be >= 2, got 1\n"),
        ],
        ids=[
            "transfer_kinds", "empty_transfer_kinds", "empty_q0_list", "tailored_kind",
            "negative_audit_runs", "audit_k_below_1", "audit_T_0", "audit_T_1",
        ],
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
            ("simulate", {"reservoir": {"params": [0.5]}}, "params"),  # a transfer is a name alone
            ("verify", {"dominance_T": 100_000}, "dominance_T"),  # dominance is proved for every t
            # figure3's exponent is in closed form, with no run length
            ("figure3", {"T": 100_000}, "T"),
            ("figure3", {"renorm_interval": 10}, "renorm_interval"),
            ("figure3", {"eps0": 1e-9}, "eps0"),
            # the tangent cover's one scalar check covers every network size
            ("verify", {"n_list": [2, 4]}, "n_list"),
            ("verify", {"vector_samples": 20000}, "vector_samples"),
            # critical-b solves to rounding, with no tolerance to set
            ("critical-b", {"tol": 1e-6}, "tol"),
        ],
    )
    def test_undeclared_key_exits_2_naming_it(self, tmp_path, capsys, command, payload, key):
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key ") and err.count("\n") == 1 and repr(key) in err
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
            ("critical-b", {"amplitude": "0.5"}, "amplitude"),
            ("critical-b", {"bracket": [1.5]}, "bracket"),
            ("verify", {"audit_k_list": [4.0]}, "audit_k_list"),
            ("simulate", {"reservoir": {"spectrum_mode": "x"}}, "spectrum_mode"),
            ("mc", {"spectrum_mode": "x"}, "spectrum_mode"),
            # a transfer is one of the three kind names, and nothing else
            ("simulate", {"reservoir": {"transfer": "tailored"}}, "transfer"),
            ("simulate", {"reservoir": {"transfer": {"kind": "tanh"}}}, "transfer"),
            ("mc", {"transfer": "tailored"}, "transfer"),
            ("mc", {"transfer": {"kind": "tanh"}}, "transfer"),
            # verify's transfer_kinds is a list of those names
            ("verify", {"transfer_kinds": ["tailored"]}, "transfer_kinds"),
            ("verify", {"transfer_kinds": ["tanh", 1]}, "transfer_kinds"),
            ("verify", {"transfer_kinds": "tanh"}, "transfer_kinds"),
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

    @pytest.mark.parametrize("command", ["mc", "simulate"])
    @pytest.mark.parametrize(
        "key, text",
        [("w_csv", ""), ("w_csv", "not a matrix\n"), ("w_in_csv", "")],
        ids=["w_csv-empty", "w_csv-ill-formed", "w_in_csv-empty"],
    )
    def test_unreadable_matrix_file_exits_2_naming_its_key(self, tmp_path, capsys, command, key, text):
        from critical_esn.reservoir import save_matrix_csv

        save_matrix_csv(tmp_path / "w.csv", np.eye(2) * 0.5)
        (tmp_path / "bad.csv").write_text(text)
        matrices = {"w_csv": str(tmp_path / "w.csv"), key: str(tmp_path / "bad.csv")}
        payload = {"reservoir": matrices} if command == "simulate" else {**matrices, "T": 400, "max_delay": 5}
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r}: ") and err.count("\n") == 1
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
                {**FAST_VERIFY, "transfer_kinds": ["tanh"], "q0_list": [0.5], "audit_k_list": [1, 4]},
            ),
            ("critical-b", {"bracket": [1.5, 2.5]}),
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


# One cheap base run per subcommand (figure3's grid is in TestFigure3).
_CHEAP_BASE = {
    "figure45": {"T": 300},
    "verify": {**FAST_VERIFY, "q0_list": [0.5], "audit_k_list": [1, 2], "audit_T": 40},
    "critical-b": {},
    "mc": {"k": 4, "max_delay": 5, "T": 400, "washout": 20},
    "simulate": {"T": 50},
}
_FLOAT_EXTREMES = (0, -1, 1e308, -1e308, 1e-308)
_INT_EXTREMES = (0, -1, 10**18)
_ONLY_LONG = [("verify", ("audit_runs_per_case",), 10**18)]  # a valid run, only 10^18 times longer


def _extreme_cases():
    """(command, key path, value) for each number a config can hold, at each extreme.

    A list takes the value as its one entry; a fixed-length list takes it
    at each position in turn, the other entries keeping their defaults.
    """

    def leaves(declared, path):
        for key, default in declared.items():
            if isinstance(default, dict):
                yield from leaves(default, path + (key,))
                continue
            form = next((f for f in _FORMS.get(key, (default,)) if isinstance(f, (int, float, list, tuple))), None)
            entry = form[0] if isinstance(form, (list, tuple)) else form
            if not isinstance(entry, (int, float)):
                continue
            for v in _FLOAT_EXTREMES if isinstance(entry, float) else _INT_EXTREMES:
                if isinstance(form, tuple):
                    yield from ((path + (key,), [*form[:i], v, *form[i + 1 :]]) for i in range(len(form)))
                else:
                    yield path + (key,), [v] if isinstance(form, list) else v

    for command in _CHEAP_BASE:
        for path, value in leaves(DEFAULTS[command], ()):
            if (command, path, value) not in _ONLY_LONG:
                yield command, path, value


_WRONG_FORMS = ("", [], {}, None, True, "x")


def _wrong_form_cases():
    """(command, key path, value) for each declared key, nested ones and objects included, at each of _WRONG_FORMS."""

    def keys(declared, path):
        for key, default in declared.items():
            yield path + (key,)
            if isinstance(default, dict):
                yield from keys(default, path + (key,))

    for command in _CHEAP_BASE:
        for path in keys(DEFAULTS[command], ()):
            for value in _WRONG_FORMS:
                yield command, path, value


def _assert_exits_cleanly(tmp_path, capsys, command, path, value):
    # main raises nothing (no traceback), and an exit 2 is one line with no files
    payload = json.loads(json.dumps(_CHEAP_BASE[command]))
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg = _write_config(tmp_path, "cfg.json", payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestExtremeConfigs:
    @pytest.mark.parametrize(
        "command, path, value",
        [pytest.param(c, p, v, id=f"{c}-{'.'.join(p)}={v}") for c, p, v in _extreme_cases()],
    )
    def test_extreme_value_exits_cleanly(self, tmp_path, capsys, command, path, value):
        _assert_exits_cleanly(tmp_path, capsys, command, path, value)

    @pytest.mark.parametrize(
        "command, path, value",
        [pytest.param(c, p, v, id=f"{c}-{'.'.join(p)}={json.dumps(v)}") for c, p, v in _wrong_form_cases()],
    )
    def test_empty_or_wrong_type_value_exits_cleanly(self, tmp_path, capsys, command, path, value):
        _assert_exits_cleanly(tmp_path, capsys, command, path, value)


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
