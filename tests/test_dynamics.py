"""Input generation, simulation, and twin-trajectory experiments."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from critical_esn.analysis import SweepPoint, fit_decay, lyapunov_exponent, write_sweep_csv
from critical_esn.dynamics import (
    Alternating,
    Constant,
    ConvergenceTrace,
    FileInput,
    IidSign,
    Trajectory,
    alternating_orbit,
    convergence_trace,
    generate_input,
    make_alternating_neuron,
    perturbation_experiment,
    run,
    run_with_inputs,
    write_states_csv,
    write_trace_csv,
)
from critical_esn.contraction import audit_step_inequality
from critical_esn.reservoir import (
    Reservoir,
    check_esc,
    make_orthogonal_reservoir,
    save_matrix_csv,
    scale_to_spectrum,
)
from critical_esn.readout import McResult, write_mc_csv
from critical_esn.transfer import _FORMULAS, LINEAR, SINE_SIGMOID, TANH, TransferFunction
from critical_esn import dynamics
from oracles import step, twin_trace

A = math.pi / 4


class TestGenerateInput:
    def test_alternating_signs(self):
        u = generate_input(Alternating(A), 4)
        np.testing.assert_array_equal(u[:, 0], [A, -A, A, -A])

    @pytest.mark.parametrize("a", [A, -1.25, 0])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("T", [1, 6, 7])
    def test_alternating_matches_tiled_signs_bitwise(self, T, n, a):
        # the sign column times the amplitude, tiled: -1.0 * 0 is -0.0
        ref = np.tile(np.where(np.arange(T) % 2 == 0, 1.0, -1.0)[:, None] * a, (1, n))
        u = generate_input(Alternating(a), T, n)
        assert u.shape == ref.shape and u.dtype == ref.dtype and u.tobytes() == ref.tobytes()

    def test_constant_zero(self):
        np.testing.assert_array_equal(generate_input(Constant(0.0), 3), np.zeros((3, 1)))

    def test_iid_sign_values_and_mean(self):
        u = generate_input(IidSign(A, seed=5), 1000)
        assert np.all(np.isclose(np.abs(u), A))
        # law of large numbers: the empirical mean of fair +/-A signs
        assert abs(np.mean(u)) <= 3.0 / math.sqrt(1000) * A

    def test_iid_sign_deterministic(self):
        np.testing.assert_array_equal(
            generate_input(IidSign(A, 9), 64), generate_input(IidSign(A, 9), 64)
        )

    def test_broadcast_to_columns(self):
        u = generate_input(Alternating(1.0), 5, n=3)
        assert u.shape == (5, 3)
        assert np.all(u[0] == 1.0) and np.all(u[1] == -1.0)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "u.csv"
        data = np.arange(6.0).reshape(6, 1)
        np.savetxt(path, data, delimiter=",")
        np.testing.assert_array_equal(generate_input(FileInput(str(path)), 4), data[:4])

    def test_file_errors(self, tmp_path):
        with pytest.raises(IOError):
            generate_input(FileInput(str(tmp_path / "missing.csv")), 4)
        short = tmp_path / "short.csv"
        np.savetxt(short, np.ones((2, 1)), delimiter=",")
        with pytest.raises(IOError):
            generate_input(FileInput(str(short)), 4)
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("1.0\nnot-a-number\n")
        with pytest.raises(IOError):
            generate_input(FileInput(str(garbled)), 2)

    @pytest.mark.parametrize("text", ["", "\n  \n# a comment\n"], ids=["empty", "blank"])
    def test_file_with_no_data_lines_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "u.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IOError, match="no data lines"):
                generate_input(FileInput(str(path)), 1)

    def test_file_skips_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("# a header\n0.5\n\n  \n# between\n-0.25\n")
        np.testing.assert_array_equal(generate_input(FileInput(str(path)), 2), [[0.5], [-0.25]])

    def test_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            generate_input(Constant(1.0), 0)

    def test_file_with_the_wrong_column_count_raises(self, tmp_path):
        path = tmp_path / "u.csv"
        np.savetxt(path, np.ones((4, 1)), delimiter=",")
        with pytest.raises(IOError, match="has 1 columns, need 2"):
            generate_input(FileInput(str(path)), 4, n=2)

    @pytest.mark.parametrize("spec", [Alternating(math.inf), IidSign(math.nan, 0), Constant(-math.inf)], ids=repr)
    def test_non_finite_samples_raise(self, spec):
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            generate_input(spec, 4)

    def test_file_with_a_nan_row_raises(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("0.5\nnan\n0.5\n")
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            generate_input(FileInput(str(path)), 3)

    def test_unknown_spec_raises(self):
        with pytest.raises(TypeError, match="unknown input spec"):
            generate_input(0.5, 4)


class TestStep:
    def test_origin_fixed_point(self):
        res = Reservoir(W=[[1.0]], w_in=[[1.0]], tf=TANH)
        x_next, x_lin = step(res, [0.0], [0.0])
        assert x_next[0] == 0.0 and x_lin[0] == 0.0

    def test_alternating_attractor_step(self):
        # one update of the critical alternating neuron from the attractor
        res = make_alternating_neuron(1.0)
        x_next, x_lin = step(res, [A], [-A])
        assert x_lin[0] == pytest.approx(-math.pi / 2, abs=1e-15)
        assert x_next[0] == pytest.approx(-A, abs=1e-15)

    def test_rotation_origin_fixed(self):
        res = Reservoir(W=[[0.0, 1.0], [-1.0, 0.0]], w_in=np.ones((2, 1)), tf=TANH)
        x_next, _ = step(res, [0.0, 0.0], [0.0])
        np.testing.assert_array_equal(x_next, [0.0, 0.0])

    def test_dimension_mismatch(self):
        res = make_orthogonal_reservoir(3, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            step(res, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            step(res, [0.0, 0.0, 0.0], [0.0])


class TestRun:
    def test_critical_attractor_alternates(self):
        res = make_alternating_neuron(1.0)
        traj = run(res, Alternating(A), x0=[A], T=100)
        expected = np.where(np.arange(1, 101) % 2 == 0, A, -A)
        np.testing.assert_allclose(traj.states[:, 0], expected, rtol=0, atol=1e-12)

    def test_attractor_holds_for_other_couplings(self):
        for b in (0.5, 0.9, 1.3):
            traj = run(make_alternating_neuron(b), Alternating(A), x0=[A], T=50)
            np.testing.assert_allclose(np.abs(traj.states[:, 0]), A, atol=1e-12)

    def test_zero_input_zero_state(self):
        res = make_orthogonal_reservoir(4, 1, 0.7, seed=1)
        traj = run(res, Constant(0.0), x0=None, T=10)
        np.testing.assert_array_equal(traj.states, np.zeros((10, 4)))

    def test_subcritical_tanh_against_scalar_recurrence(self):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        traj = run(res, Constant(0.0), x0=[0.3], T=200)
        x, expected = 0.3, []
        for _ in range(200):
            x = math.tanh(0.5 * x)
            expected.append(x)
        # np.tanh and math.tanh may differ in the last ulp
        np.testing.assert_allclose(traj.states[:, 0], expected, rtol=1e-13, atol=0)
        assert abs(traj.states[-1, 0]) < 1e-30

    def test_bit_identical_reruns(self):
        res = make_orthogonal_reservoir(5, 1, 0.5, seed=3)
        t1 = run(res, IidSign(A, 7), x0=None, T=64)
        t2 = run(res, IidSign(A, 7), x0=None, T=64)
        np.testing.assert_array_equal(t1.states, t2.states)

    def test_states_recompute_from_linear_states(self):
        res = make_orthogonal_reservoir(3, 1, 0.5, seed=4)
        res = Reservoir(W=res.W, w_in=res.w_in, tf=SINE_SIGMOID)
        traj = run(res, IidSign(A, 2), x0=None, T=50)
        np.testing.assert_array_equal(res.tf(traj.linear_states), traj.states)

    def test_run_with_inputs_pairs_rows(self):
        res = Reservoir(W=[[0.0]], w_in=[[1.0]], tf=LINEAR)
        u = np.array([[1.0], [2.0], [3.0]])
        traj = run_with_inputs(res, u, x0=[5.0])
        np.testing.assert_array_equal(traj.states, u)

    def test_start_of_the_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"^x0 must have shape \(1,\)$"):
            run(make_alternating_neuron(1.0), Alternating(A), [0.1, 0.2], T=5)

    def test_inputs_of_the_wrong_width_raise(self):
        with pytest.raises(ValueError, match="inputs must have 1 columns"):
            run_with_inputs(make_alternating_neuron(1.0), np.ones((5, 2)))

    # Both raise under the suite's error::RuntimeWarning filter: the run
    # steps with overflow ignored and reports divergence as ValueError.
    def test_diverging_linear_run_raises(self):
        res = Reservoir(W=2.0 * np.eye(4), w_in=np.ones((4, 1)), tf=LINEAR)
        with pytest.raises(ValueError, match="states must stay finite"):
            run(res, Constant(0.5), None, T=2000)

    def test_transfer_overflow_to_nan_raises(self):
        # finite linear state, but 2x overflows inside the sine sigmoid
        res = Reservoir(W=[[1.0]], w_in=[[1.0]], tf=SINE_SIGMOID)
        with pytest.raises(ValueError, match="states must stay finite"):
            run(res, Constant(0.0), [1.5e308], T=1)


    def test_run_with_inputs_allocates_no_drive_temporary(self):
        # the drive goes straight into the linear-state rows; a (T, k)
        # temporary for it would add half again to the peak
        res = make_orthogonal_reservoir(200, 1, 0.5, seed=0)
        u = generate_input(IidSign(A, 0), 2000)
        tracemalloc.start()
        try:
            traj = run_with_inputs(res, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (traj.states.nbytes + traj.linear_states.nbytes)


class TestConvergenceTrace:
    def test_identical_starts_stay_identical(self):
        res = make_alternating_neuron(1.0)
        tr = convergence_trace(res, Alternating(A), [0.1], [0.1], T=50)
        np.testing.assert_array_equal(tr.q, np.zeros(50))

    def test_needs_positive_horizon(self):
        with pytest.raises(ValueError, match="need T >= 1"):
            convergence_trace(make_alternating_neuron(1.0), Alternating(A), [0.1], [0.2], T=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_drive_raises(self, k):
        # the drive 2 u = 2e308 overflows, which warns nothing: the k = n = 1
        # float body raises on it as the array body does
        res = Reservoir(W=0.5 * np.eye(k), w_in=np.full((k, 1), 2.0), tf=TANH)
        with pytest.raises(ValueError, match="twin states must stay finite"):
            convergence_trace(res, Constant(1e308), np.zeros(k), np.full(k, 0.1), T=10)

    def test_critical_memory_outlives_64_steps(self):
        res = make_alternating_neuron(1.0)
        tr = convergence_trace(res, Alternating(A), [A], [A + 0.01], T=10_000)
        assert tr.q[64] > 0
        assert np.all(tr.q > 0)
        assert np.all(np.diff(tr.q) <= 1e-12)

    def test_iid_input_erases_memory_quickly(self):
        res = make_alternating_neuron(1.0)
        for seed in range(5):
            tr = convergence_trace(res, IidSign(A, seed), [A], [A + 0.01], T=300)
            assert tr.floor_hit_at is not None and tr.floor_hit_at <= 80
            np.testing.assert_array_equal(tr.q[tr.floor_hit_at :], 0.0)

    def test_non_expansive_at_boundary(self):
        for tf in (TANH, SINE_SIGMOID):
            for seed in range(5):
                base = make_orthogonal_reservoir(6, 1, 0.5, seed)
                res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
                rng = np.random.default_rng(seed)
                tr = convergence_trace(
                    res, IidSign(A, seed), rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6), T=200
                )
                assert np.all(np.diff(tr.q) <= 1e-12)

    def test_distances_match_per_row_norm_bitwise(self):
        res = make_orthogonal_reservoir(16, 1, 0.5, seed=5)
        rng = np.random.default_rng(5)
        x0, y0 = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
        tr = convergence_trace(res, IidSign(A, 5), x0, y0, T=600)  # three blocks, the last one partial
        u = generate_input(IidSign(A, 5), 600)[1:]
        X, Y = (run_with_inputs(res, u, z).states for z in (x0, y0))
        assert tr.floor_hit_at is None
        np.testing.assert_array_equal(tr.q, [np.linalg.norm(x0 - y0)] + [np.linalg.norm(r) for r in X - Y])

    @pytest.mark.parametrize("n", [1, 2])
    def test_overflowing_tanh_linear_state_raises(self, n):
        # math.tanh(inf) is 1.0; the k = n = 1 float body still sees the overflow
        res = Reservoir(W=[[1.5e308]], w_in=[[1e308]] if n == 1 else [[1e308, 0.0]], tf=TANH)
        with pytest.raises(ValueError, match="twin states must stay finite"):
            convergence_trace(res, IidSign(0.7, 1), [0.3], [0.2], T=100)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec, x0, y0, T, floor_hit_at",
        [
            # the twins start 1e200 apart and halve their distance each step,
            # so its square overflows for about 150 steps
            (IidSign(0.7, 1), 0.0, 1e200, 600, None),
            # they start 0.5 apart and halve it each step, so its square
            # underflows from about t = 510 until they collide below 1e-300
            (Constant(0.0), 1.0, 0.5, 1200, 996),
        ],
        ids=["overflow", "underflow"],
    )
    def test_distance_past_the_squares_range_matches_one_coordinate(self, spec, x0, y0, T, floor_hit_at):
        one = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=LINEAR)
        two = Reservoir(W=0.5 * np.eye(2), w_in=[[1.0], [0.0]], tf=LINEAR)
        tr1 = convergence_trace(one, spec, [x0], [y0], T=T)
        tr2 = convergence_trace(two, spec, [x0, 0.0], [y0, 0.0], T=T)
        assert tr2.q[0] == abs(y0 - x0)
        np.testing.assert_array_equal(tr2.q, tr1.q)
        assert tr1.floor_hit_at == tr2.floor_hit_at == floor_hit_at

    def test_distance_whose_squares_underflow_is_exact(self):
        # 3e-160 and 4e-160 square to subnormals; their norm is 5e-160 all the same
        res = Reservoir(np.eye(2), [[0.0], [0.0]], LINEAR)
        assert convergence_trace(res, Constant(0.0), [3e-160, 4e-160], [0.0, 0.0], 3).q[0] == 5e-160

    def test_subcritical_exponential_envelope(self):
        base = make_orthogonal_reservoir(5, 1, 0.5, seed=8)
        res = Reservoir(W=scale_to_spectrum(base.W, 0.5), w_in=base.w_in, tf=TANH)
        rng = np.random.default_rng(0)
        x0, y0 = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        tr = convergence_trace(res, IidSign(A, 1), x0, y0, T=100)
        envelope = tr.q[0] * 0.5 ** np.arange(100) * (1 + 1e-9)
        assert np.all(tr.q <= envelope)


def _halving_pair(c):
    """A linear neuron whose twins halve their distance each step from 1e-300 * 2^c, so collide at t = c."""
    return Reservoir(W=[[0.5]], w_in=[[1.0]], tf=LINEAR), Constant(0.0), [1e-300 * 2.0**c], [0.0]


class TestTwinTraceBlocks:
    # Twin traces step in blocks of 8, 9, 18, 36, ..., 256 steps; blocking
    # decides only when a collision is looked for, so q and floor_hit_at
    # match twins stepped and checked one step at a time.
    _EDGES = [1, 8, 9, 10, 17, 18, 19, 36, 37, 255, 256, 257, 600]

    @staticmethod
    def _assert_matches_oracle(res, spec, x0, y0, T):
        tr = convergence_trace(res, spec, x0, y0, T)
        u = generate_input(spec, T, res.n)
        q, floor_hit_at = twin_trace(res, u, u, x0, y0)
        assert tr.q.tobytes() == q.tobytes() and tr.floor_hit_at == floor_hit_at
        return tr

    @pytest.mark.parametrize("T", _EDGES)
    def test_horizons_at_block_edges_match_per_step_oracle(self, T):
        # the critical alternating neuron on its float loop, and k = 4 tanh on the array body
        self._assert_matches_oracle(make_alternating_neuron(1.0), Alternating(A), [A], [A + 0.01], T)
        res = Reservoir(W=make_orthogonal_reservoir(4, 1, 0.5, seed=3).W, w_in=[[0.5]] * 4, tf=TANH)
        rng = np.random.default_rng(T)
        self._assert_matches_oracle(res, IidSign(A, T), rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), T)

    @pytest.mark.parametrize("c", [1, 7, 8, 9, 17, 18, 36, 37, 255, 256, 257])
    def test_collisions_at_block_edges_match_per_step_oracle(self, c):
        tr = self._assert_matches_oracle(*_halving_pair(c), 600)
        assert tr.floor_hit_at == c

    def test_collision_at_the_first_step_matches_per_step_oracle(self):
        # with W = 0 both copies are theta(u_1) at t = 1
        res = Reservoir(W=[[0.0]], w_in=[[1.0]], tf=SINE_SIGMOID)
        assert self._assert_matches_oracle(res, IidSign(0.5, 0), [0.3], [-0.2], 50).floor_hit_at == 1

    def test_collision_from_squares_that_underflow_matches_per_step_oracle(self):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=LINEAR)
        assert self._assert_matches_oracle(res, Constant(0.0), [1.0], [0.5], 1200).floor_hit_at == 996

    @pytest.mark.parametrize("c", [3, 9, 40])
    def test_perturbed_collision_matches_per_step_oracle(self, c):
        # the copies start equal, which is no collision before they share the input again at t = 2
        res, spec, (delta,), _ = _halving_pair(c - 1)
        tr = perturbation_experiment(res, spec, 1, delta, 300)
        u = generate_input(spec, 300)
        u_pert = u.copy()
        u_pert[1] += delta
        q, floor_hit_at = twin_trace(res, u, u_pert, [0.0], [0.0], shared_from=2)
        assert tr.q.tobytes() == q.tobytes() and tr.floor_hit_at == floor_hit_at == c

    @pytest.mark.parametrize("c", [1, 4, 5, 8, 9, 17, 18, 19, 36, 100, 255, 256, 257, 700])
    def test_collision_at_c_steps_at_most_max_8_2c_rows(self, monkeypatch, c):
        rows, advance = [], dynamics._advance

        def counting(res, u, x, *args):
            rows.append(len(u))
            return advance(res, u, x, *args)

        monkeypatch.setattr(dynamics, "_advance", counting)
        assert convergence_trace(*_halving_pair(c), 2000).floor_hit_at == c
        assert rows[0::2] == rows[1::2] and sum(rows[0::2]) <= max(8, 2 * c)


class TestLinearTwins:
    # The drive cancels in a linear twin difference, so q_t = |w|^t q_0 on
    # the k = n = 1 float loop: at |w| = 1 the linear counterexample never forgets.
    @pytest.mark.parametrize("w", [0.5, 0.999, -0.999, 1.0, -1.0])
    def test_distance_scales_by_abs_w_each_step(self, w):
        q = convergence_trace(Reservoir([[w]], [[1.0]], LINEAR), IidSign(0.7, 3), [0.3], [-0.2], 2000).q
        np.testing.assert_allclose(q, 0.5 * abs(w) ** np.arange(2000), rtol=0.0, atol=1e-12)


class TestCriticalForgetting:
    # At a unit-slope point theta'' = 0 and theta''' = -2 (tanh at 0, the sine
    # sigmoid at pi/2), so a one-neuron deviation with |w| = 1 obeys
    # |e| -> |e| - |e|^3/3 + O(e^5): 1/q_t^2 = 1/q_0^2 + (2/3) t + O(log t).
    # On the k-cycle W = -P (P the cyclic shift) every sine-sigmoid neuron
    # runs the alternating neuron's b = 1 orbit, and each deviation moves one
    # place round the cycle, so with equal deviations
    # 1/q_t^2 = 1/q_0^2 + (2/(3k)) t + O(log t).  At k = 1 the cycle is
    # make_alternating_neuron(1.0).
    @staticmethod
    def _twins(kind, k):
        if kind == "tanh":
            return Reservoir([[1.0]], [[1.0]], TANH), Constant(0.0), [0.0], [0.01]
        x0 = np.full(k, A)
        return Reservoir(-np.roll(np.eye(k), 1, axis=0), np.ones((k, 1)), SINE_SIGMOID), Alternating(A), x0, x0 + 0.01

    @pytest.mark.parametrize(
        "kind, k",
        [("tanh", 1), ("sine_sigmoid", 1), ("sine_sigmoid", 2), ("sine_sigmoid", 4), ("sine_sigmoid", 8)],
        ids=["tanh", "sine_sigmoid", "sine_sigmoid_k2", "sine_sigmoid_k4", "sine_sigmoid_k8"],
    )
    def test_inverse_square_distance_grows_at_two_thirds(self, kind, k):
        res, spec, x0, y0 = self._twins(kind, k)
        q = convergence_trace(res, spec, x0, y0, 10_001).q
        t = np.arange(10, 10_001)
        slope, intercept = np.polyfit(t, q[t] ** -2.0, 1)
        rate, start = 2.0 / (3.0 * k), 1.0 / (k * 0.01**2)
        assert abs(slope / rate - 1.0) <= 1e-3 and abs(intercept / start - 1.0) <= 1e-4
        verdict = check_esc(res)
        assert verdict.critical_boundary and verdict.covered_by_theorem
        assert audit_step_inequality(res, spec, x0, y0, 10_001).passed

    def test_figure4_trace_falls_as_t_to_the_minus_three_halves(self):
        # both twins start at 0, off the orbit, so q is the difference of two
        # t^(-1/2) approaches shifted in time
        trace = perturbation_experiment(make_alternating_neuron(1.0), Alternating(A), 1, 0.01, 10_000)
        fit = fit_decay(trace, t_start=1000)
        assert fit.law == "power_law" and -1.51 <= fit.exponent_pow <= -1.48


class TestPerturbationExperiment:
    def test_zero_perturbation_is_null(self):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, Alternating(A), 1, 0.0, T=100)
        np.testing.assert_array_equal(tr.q, np.zeros(100))
        assert tr.floor_hit_at is None

    def test_unconsumed_sample_zero_is_noop(self):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, Alternating(A), 0, 0.05, T=50)
        np.testing.assert_array_equal(tr.q, np.zeros(50))

    def test_alternating_drive_retains_perturbation(self):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, Alternating(A), 1, 0.01, T=10_000)
        assert tr.q[0] == 0.0
        assert tr.q[1] > 0.0
        assert tr.q[64] > 0.0
        assert tr.floor_hit_at is None

    def test_iid_drive_floors_fast(self):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, IidSign(A, 3), 1, 0.01, T=200)
        assert tr.floor_hit_at is not None
        assert tr.floor_hit_at - 1 <= 69

    def test_bad_perturb_index(self):
        res = make_alternating_neuron(1.0)
        with pytest.raises(ValueError):
            perturbation_experiment(res, Alternating(A), 100, 0.01, T=100)

    def test_overflowing_perturbation_raises_naming_it_without_a_warning(self):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^delta_u \[1e\+308\] at perturb_at=1 makes a non-finite input$"):
                perturbation_experiment(res, Constant(1e308), 1, 1e308, 10)

    def test_multi_neuron_delta_shape(self):
        res = make_orthogonal_reservoir(3, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            perturbation_experiment(res, Constant(0.1), 1, [0.01], T=20)
        tr = perturbation_experiment(res, Constant(0.1), 1, [0.01, 0.0], T=20)
        assert tr.q[1] > 0


@pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID])
def test_multi_input_runs_match_step_bitwise(tmp_path, tf):
    # n = 3 random input weights: the projection w_in @ u_t must sum in the
    # same order as step() does, in trajectories and in twin traces.
    rng = np.random.default_rng(11)
    res = Reservoir(W=make_orthogonal_reservoir(6, 3, 0.5, seed=2).W, w_in=rng.normal(size=(6, 3)), tf=tf)
    u = rng.uniform(-1.0, 1.0, size=(300, 3))
    x0, y0 = rng.uniform(-1.0, 1.0, size=(2, 6))
    x, xs, lins = x0, [], []
    for row in u:
        x, lin = step(res, x, row)
        xs.append(x)
        lins.append(lin)
    traj = run_with_inputs(res, u, x0=x0)
    np.testing.assert_array_equal(traj.states, xs)
    np.testing.assert_array_equal(traj.linear_states, lins)

    x, y, q = x0, y0, [np.linalg.norm(x0 - y0)]
    for row in u[1:]:  # u_0 is aligned with the initial pair
        x, y = step(res, x, row)[0], step(res, y, row)[0]
        q.append(np.linalg.norm(x - y))
    np.savetxt(tmp_path / "u.csv", u, delimiter=",")
    tr = convergence_trace(res, FileInput(str(tmp_path / "u.csv")), x0, y0, T=300)
    np.testing.assert_array_equal(tr.q, q)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("call", ["run", "convergence_trace", "lyapunov_exponent"])
def test_non_finite_input_row_rejected(tmp_path, k, call):
    u = np.full((200, 1), 0.5)
    u[50] = np.nan
    path = tmp_path / "u.csv"
    np.savetxt(path, u, delimiter=",")
    spec = FileInput(str(path))
    res = make_orthogonal_reservoir(k, 1, 0.5, seed=0)
    calls = {
        "run": lambda: run(res, spec, None, 150),
        "convergence_trace": lambda: convergence_trace(res, spec, np.zeros(k), np.full(k, 0.1), 150),
        "lyapunov_exponent": lambda: lyapunov_exponent(res, spec, T=150),
    }
    with pytest.raises(ValueError):
        calls[call]()


def _transfer_calls(monkeypatch) -> list:
    """The shapes that TransferFunction.__call__ is given from now on."""
    shapes = []
    call = TransferFunction.__call__

    def counted(self, x, out=None):
        shapes.append(np.shape(x))
        return call(self, x, out=out)

    monkeypatch.setattr(TransferFunction, "__call__", counted)
    return shapes


class TestKernelBody:
    # _advance runs its kind's plain-float loop, which makes no
    # TransferFunction call, for every k = n = 1 twin trace
    @pytest.mark.parametrize("kind", sorted(_FORMULAS))
    def test_single_neuron_twin_traces(self, monkeypatch, kind):
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TransferFunction(kind))
        calls = _transfer_calls(monkeypatch)
        convergence_trace(res, IidSign(0.5, 0), [0.3], [-0.2], 50)
        perturbation_experiment(res, IidSign(0.5, 0), 1, 0.1, 50)
        assert calls == []

    def test_run_with_inputs_calls_the_transfer_once_per_step(self, monkeypatch):
        calls = _transfer_calls(monkeypatch)
        run_with_inputs(Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH), np.full((37, 1), 0.3))
        assert calls == [(1,)] * 37

    def test_two_input_twin_trace_steps_the_array_body(self, monkeypatch):
        calls = _transfer_calls(monkeypatch)
        res = Reservoir(W=[[0.5]], w_in=[[1.0, 0.0]], tf=TANH)
        trace = convergence_trace(res, IidSign(0.5, 0), [0.3], [-0.2], 20)
        assert trace.floor_hit_at is None and calls == [(1,)] * 2 * 19


class TestNonFiniteStart:
    @pytest.mark.parametrize("T", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejected_by_name(self, T, bad):
        # at T = 1 no step meets the state; at T > 1 no step is to blame
        res = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH)
        spec = IidSign(1.0, 0)
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            convergence_trace(res, spec, [bad], [0.0], T)
        with pytest.raises(ValueError, match="^y0 must be finite$"):
            convergence_trace(res, spec, [0.0], [bad], T)
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            perturbation_experiment(res, spec, 0, 0.1, T, x0=[bad])
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            run(res, spec, [bad], T)


class TestNamedFamilies:
    def test_alternating_neuron_weights(self):
        res = make_alternating_neuron(0.7)
        assert res.W[0, 0] == -0.7
        assert res.w_in[0, 0] == pytest.approx(1.3)
        assert res.tf is SINE_SIGMOID

    def test_orbit_matches_simulation(self):
        orbit = alternating_orbit(A)
        traj = run(make_alternating_neuron(1.0), Alternating(A), x0=orbit[0], T=4)
        np.testing.assert_allclose(traj.states, [[-A], [A], [-A], [A]], atol=1e-12)


class TestTraceCsv:
    def test_golden_format(self, tmp_path):
        res = make_alternating_neuron(1.0)
        tr = perturbation_experiment(res, Alternating(A), 1, 0.01, T=5)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tr)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q"
        assert lines[1] == "0,0"
        assert len(lines) == 6
        t, q = lines[2].split(",")
        assert int(t) == 1 and float(q) == tr.q[1]

    @pytest.mark.parametrize("T", [1, 255, 256, 257, 513])
    def test_block_formatting_matches_per_row_formatting(self, tmp_path, T):
        # the writers format 256 rows per % operation; every block boundary
        # must give the bytes of formatting each row on its own
        vals = np.random.default_rng(T).standard_normal((T, 3))
        vals.flat[:3] = -0.0, 1e-300, 1e17
        vals.flat[-1] = 1e17
        write_states_csv(tmp_path / "s.csv", Trajectory(vals, vals))
        line = "%d,%.17g,%.17g,%.17g\n"
        expected = "t,x0,x1,x2\n" + "".join(line % (t, *row) for t, row in enumerate(vals.tolist(), start=1))
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

        q = vals[:, 0].copy()
        write_trace_csv(tmp_path / "t.csv", ConvergenceTrace(q=q))
        expected = "t,q\n" + "".join("%d,%.17g\n" % tv for tv in enumerate(q.tolist()))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

        scores = np.random.default_rng(T + 1).uniform(size=300).tolist()
        write_mc_csv(tmp_path / "mc.csv", McResult(mc_total=sum(scores), per_delay=tuple(enumerate(scores, start=1))))
        expected = "delay,score\n" + "".join("%d,%.17g\n" % ds for ds in enumerate(scores, start=1))
        assert (tmp_path / "mc.csv").read_bytes() == (expected + "total,%.17g\n" % sum(scores)).encode()

    def test_writers_match_fstring_reference(self, tmp_path):
        # the writers format whole rows with one %-format; the bytes must be
        # those of formatting every value with f"{v:.17g}"
        vals = np.array([-0.0, 5e-324, 1e-300, 1 / 3, 0.1, -1.0])
        M = vals.reshape(3, 2)

        def ref(v):
            return f"{v:.17g}"

        write_states_csv(tmp_path / "s.csv", Trajectory(M, M))
        expected = "t,x0,x1\n" + "".join(
            f"{t}," + ",".join(ref(v) for v in row) + "\n" for t, row in enumerate(M, start=1)
        )
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

        write_trace_csv(tmp_path / "t.csv", ConvergenceTrace(q=vals))
        expected = "t,q\n" + "".join(f"{t},{ref(v)}\n" for t, v in enumerate(vals))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

        save_matrix_csv(tmp_path / "m.csv", M)
        expected = "# 3,2\n" + "".join(",".join(ref(v) for v in row) + "\n" for row in M)
        assert (tmp_path / "m.csv").read_bytes() == expected.encode()

        # a failed cell's NaN and b = 0's -inf among the exponents
        exponents = [math.nan, -math.inf, math.inf, *vals]
        points = [SweepPoint(b=0.05 * i, exponent=e) for i, e in enumerate(exponents)]
        write_sweep_csv(tmp_path / "sweep.csv", points)
        expected = "b,lyapunov\n" + "".join(f"{ref(pt.b)},{ref(pt.exponent)}\n" for pt in points)
        assert (tmp_path / "sweep.csv").read_bytes() == expected.encode()

        result = McResult(mc_total=float(np.sum(vals)), per_delay=tuple(enumerate(vals.tolist(), start=1)))
        write_mc_csv(tmp_path / "mc.csv", result)
        expected = "delay,score\n" + "".join(f"{d},{ref(s)}\n" for d, s in result.per_delay)
        assert (tmp_path / "mc.csv").read_bytes() == (expected + f"total,{ref(result.mc_total)}\n").encode()
