"""Lyapunov estimators, decay-law classification, critical coupling."""

import math

import numpy as np
import pytest

from critical_esn.analysis import (
    find_critical_b,
    fit_decay,
    lyapunov_exponent,
    lyapunov_sweep,
    write_sweep_csv,
)
from critical_esn.dynamics import (
    Alternating,
    Constant,
    ConvergenceTrace,
    IidSign,
    alternating_orbit,
    convergence_trace,
    make_alternating_neuron,
    perturbation_experiment,
)
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir, scale_to_spectrum
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH

A = math.pi / 4


class TestLyapunovExponent:
    def test_linear_neuron_is_exact(self):
        res = Reservoir(W=[[0.7]], w_in=[[1.0]], tf=LINEAR)
        r = lyapunov_exponent(res, IidSign(0.5, 3), T=2000)
        assert r.exponent == pytest.approx(math.log(0.7), abs=1e-6)

    def test_critical_alternating_neuron_is_marginal(self):
        res = make_alternating_neuron(1.0)
        free = lyapunov_exponent(res, Alternating(A), T=100_000)
        assert abs(free.exponent) <= 2e-3
        pinned = lyapunov_exponent(
            res, Alternating(A), T=100_000, reference_orbit=alternating_orbit(A)
        )
        assert abs(pinned.exponent) <= 2e-3

    def test_contraction_rate_at_quiet_fixed_point(self):
        # Jacobian at the origin is the coupling itself (unit slope there)
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        r = lyapunov_exponent(res, Constant(0.0), T=100_000, x0=[0.01])
        assert r.exponent == pytest.approx(math.log(0.5), abs=1e-4)

    def test_jacobian_product_agrees_on_smooth_orbit(self):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        r1 = lyapunov_exponent(res, Constant(0.0), T=50_000, x0=[0.01])
        r2 = lyapunov_exponent(res, Constant(0.0), T=50_000, x0=[0.01], method="jacobian_product")
        assert abs(r1.exponent - r2.exponent) <= 1e-3

    def test_jacobian_product_needs_single_neuron(self):
        res = make_orthogonal_reservoir(3, 1, 0.5, seed=0)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Constant(0.0), T=1000, method="jacobian_product")

    def test_bounded_by_log_spectrum_when_subcritical(self):
        for S, seed in ((0.5, 1), (0.9, 2)):
            base = make_orthogonal_reservoir(5, 1, 0.5, seed)
            res = Reservoir(W=scale_to_spectrum(base.W, S), w_in=base.w_in, tf=TANH)
            r = lyapunov_exponent(res, IidSign(A, seed), T=5000)
            assert r.exponent <= math.log(S) + 1e-6

    def test_power_law_trace_has_zero_exponent(self):
        res = make_alternating_neuron(1.0)
        r = lyapunov_exponent(res, Alternating(A), T=100_000, x0=[0.0])
        assert abs(r.exponent) <= 2e-3

    def test_stderr_brackets_contracting_exponent(self):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        r = lyapunov_exponent(res, Constant(0.0), T=10_000, x0=[0.01])
        assert r.exponent <= 0.0 + 3.0 * r.stderr

    def test_divergent_system_reports_infinity_sentinel(self):
        for res, x0 in (
            (Reservoir(W=[[2.0]], w_in=[[1.0]], tf=LINEAR), [0.1]),
            (Reservoir(W=2.0 * np.eye(4), w_in=np.ones((4, 1)), tf=LINEAR), [0.1] * 4),
            (Reservoir(W=[[3.0]], w_in=[[1.0]], tf=SINE_SIGMOID), [0.1]),
        ):
            methods = ("two_trajectory", "jacobian_product") if res.k == 1 else ("two_trajectory",)
            for method in methods:
                r = lyapunov_exponent(res, IidSign(0.5, 0), T=10_000, x0=x0, method=method)
                assert math.isinf(r.exponent) and r.exponent > 0

    def test_validation(self):
        res = make_alternating_neuron(1.0)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=50, renorm_interval=10)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=1000, eps0=1e-3)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=1000, method="qr")


class TestLyapunovSweep:
    def test_sign_pattern_around_critical_coupling(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [0.5, 1.0],
            T=20_000,
            orbit_factory=lambda b: alternating_orbit(A),
        )
        assert pts[0].exponent < 0
        assert pts[0].exponent == pytest.approx(math.log(0.5), abs=1e-3)
        assert abs(pts[1].exponent) <= 2e-3

    def test_single_point_matches_direct_call(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [1.0],
            T=5000,
            orbit_factory=lambda b: alternating_orbit(A),
        )
        direct = lyapunov_exponent(
            make_alternating_neuron(1.0),
            Alternating(A),
            T=5000,
            reference_orbit=alternating_orbit(A),
        )
        assert pts[0].exponent == direct.exponent

    def test_supercritical_cell_is_expansive(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [1.2],
            T=20_000,
            orbit_factory=lambda b: alternating_orbit(A),
        )
        assert pts[0].exponent > 0
        # independent check: direct twin trajectories near the orbit diverge
        tr = convergence_trace(
            make_alternating_neuron(1.2), Alternating(A), [A], [A + 1e-9], T=51
        )
        assert tr.q[50] / tr.q[0] == pytest.approx(1.2**50, rel=1e-2)

    def test_failed_cells_flagged_not_fatal(self):
        def factory(b):
            if b > 1.0:
                raise RuntimeError("boom")
            return make_alternating_neuron(b)

        pts = lyapunov_sweep(factory, Alternating(A), [0.5, 1.5], T=1000)
        assert pts[0].error is None
        assert pts[1].error is not None and math.isnan(pts[1].exponent)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_sweep(make_alternating_neuron, Alternating(A), [], T=1000)

    def test_csv_format(self, tmp_path):
        pts = lyapunov_sweep(
            make_alternating_neuron, Alternating(A), [0.5], T=1000,
            orbit_factory=lambda b: alternating_orbit(A),
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, pts)
        lines = path.read_text().splitlines()
        assert lines[0] == "b,lyapunov"
        b, lam = lines[1].split(",")
        assert float(b) == 0.5 and float(lam) == pts[0].exponent


def _trace(q):
    return ConvergenceTrace(q=np.asarray(q, dtype=float))


class TestFitDecay:
    def test_pure_power_law(self):
        t = np.arange(2000, dtype=float)
        fit = fit_decay(_trace(np.where(t > 0, t, 1.0) ** -1.0))
        assert fit.law == "power_law"
        assert fit.exponent_pow == pytest.approx(-1.0, abs=0.01)
        assert fit.r2_loglog > 0.999

    def test_pure_exponential(self):
        t = np.arange(2000, dtype=float)
        fit = fit_decay(_trace(0.9**t))
        assert fit.law == "exponential"
        assert fit.exponent_exp == pytest.approx(math.log(0.9), abs=0.001)
        assert fit.r2_semilog > 0.999

    @pytest.mark.parametrize("a", [-3.0, -2.0, -1.0, -0.5, -0.25])
    def test_power_exponent_recovery(self, a):
        t = np.arange(1, 3000, dtype=float)
        q = np.concatenate([[1.0], 2.0 * t**a])
        fit = fit_decay(_trace(q))
        assert fit.exponent_pow == pytest.approx(a, rel=0.01)

    @pytest.mark.parametrize("b", [0.5, 0.7, 0.9, 0.99])
    def test_exponential_rate_recovery(self, b):
        t = np.arange(3000, dtype=float)
        fit = fit_decay(_trace(3.0 * b**t))
        assert fit.exponent_exp == pytest.approx(math.log(b), rel=0.001)

    def test_critical_perturbation_trace_is_power_law(self):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, Alternating(A), 1, 0.01, T=10_001)
        fit = fit_decay(tr, t_start=10, t_end=10_000)
        assert fit.law == "power_law"

    def test_too_few_samples(self):
        fit = fit_decay(_trace(np.ones(15)))
        assert fit.law == "none"
        assert fit.r2_semilog == 0.0 and fit.r2_loglog == 0.0

    def test_floor_excluded_from_window(self):
        q = np.concatenate([0.9 ** np.arange(100), np.zeros(100)])
        fit = fit_decay(ConvergenceTrace(q=q, floor_hit_at=100))
        assert fit.law == "exponential"
        assert fit.n_samples == 90

    def test_r2_bounds(self):
        rng = np.random.default_rng(0)
        fit = fit_decay(_trace(np.exp(rng.uniform(-1, 1, 200))))
        for r2 in (fit.r2_semilog, fit.r2_loglog):
            assert 0.0 <= r2 <= 1.0


class TestFindCriticalB:
    def test_overtuned_tanh_neuron_values(self):
        b, amp = find_critical_b(TANH, A, (1.5, 3.0), 1e-6)
        assert b == pytest.approx(2.344, abs=1e-3)
        assert amp == pytest.approx(0.757, abs=1e-3)

    def test_residuals_within_ten_tolerances(self):
        for tol in (1e-6, 1e-9):
            b, amp = find_critical_b(TANH, A, (1.5, 3.0), tol)
            x_lin = b * amp - A
            assert abs(TANH(x_lin) - amp) <= 10 * tol
            assert abs(abs(b * TANH.derivative(x_lin)) - 1.0) <= 10 * tol

    def test_zero_amplitude_degenerates_to_unit_coupling(self):
        b, amp = find_critical_b(TANH, 0.0, (0.5, 2.0), 1e-6)
        assert b == pytest.approx(1.0, abs=1e-5)
        assert amp == 0.0

    def test_bracket_must_straddle(self):
        with pytest.raises(ValueError):
            find_critical_b(TANH, 0.0, (1.5, 3.0), 1e-6)
        with pytest.raises(ValueError):
            find_critical_b(TANH, A, (0.1, 0.5), 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_critical_b(TANH, A, (3.0, 1.5), 1e-6)
        with pytest.raises(ValueError):
            find_critical_b(TANH, A, (1.5, 3.0), 0.0)

    def test_sine_sigmoid_zero_amplitude(self):
        # same tangency construction applies to the other covered transfer;
        # values frozen from a converged tol=1e-9 run, re-verified by the
        # residuals of the two defining conditions
        b, amp = find_critical_b(SINE_SIGMOID, 0.0, (0.5, 1.8), 1e-6)
        assert b == pytest.approx(1.6430700, abs=1e-5)
        assert amp == pytest.approx(1.3673823, abs=1e-5)
        x_lin = b * amp
        assert abs(SINE_SIGMOID(x_lin) - amp) <= 1e-5
        assert abs(abs(b * SINE_SIGMOID.derivative(x_lin)) - 1.0) <= 1e-5
