"""Input generation, simulation, and twin-trajectory experiments."""

import math
import tracemalloc

import numpy as np
import pytest

from critical_esn.analysis import lyapunov_exponent
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
    make_overtuned_neuron,
    perturbation_experiment,
    run,
    run_with_inputs,
    step,
    write_states_csv,
    write_trace_csv,
)
from critical_esn.reservoir import (
    Reservoir,
    make_orthogonal_reservoir,
    save_matrix_csv,
    scale_to_spectrum,
)
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH

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

    def test_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            generate_input(Constant(1.0), 0)


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
    def test_distance_past_the_squares_range_matches_one_coordinate(self):
        # the twins start 1e200 apart and halve their distance each step, so at
        # k = 2 its square overflows for about 150 steps; at k = 1 nothing is squared
        one = Reservoir(W=[[0.5]], w_in=[[1.0]], tf=LINEAR)
        two = Reservoir(W=0.5 * np.eye(2), w_in=[[1.0], [0.0]], tf=LINEAR)
        q1 = convergence_trace(one, IidSign(0.7, 1), [0.0], [1e200], T=600).q
        q2 = convergence_trace(two, IidSign(0.7, 1), [0.0, 0.0], [1e200, 0.0], T=600).q
        assert q2[0] == 1e200
        np.testing.assert_array_equal(q2, q1)

    def test_subcritical_exponential_envelope(self):
        base = make_orthogonal_reservoir(5, 1, 0.5, seed=8)
        res = Reservoir(W=scale_to_spectrum(base.W, 0.5), w_in=base.w_in, tf=TANH)
        rng = np.random.default_rng(0)
        x0, y0 = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        tr = convergence_trace(res, IidSign(A, 1), x0, y0, T=100)
        envelope = tr.q[0] * 0.5 ** np.arange(100) * (1 + 1e-9)
        assert np.all(tr.q <= envelope)


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

    def test_overtuned_neuron(self):
        res = make_overtuned_neuron(2.0)
        assert res.W[0, 0] == -2.0 and res.w_in[0, 0] == 1.0 and res.tf is TANH


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
        write_states_csv(tmp_path / "s.csv", Trajectory(vals, vals, np.zeros(3)))
        line = "%d,%.17g,%.17g,%.17g\n"
        expected = "t,x0,x1,x2\n" + "".join(line % (t, *row) for t, row in enumerate(vals.tolist(), start=1))
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

        q = vals[:, 0].copy()
        write_trace_csv(tmp_path / "t.csv", ConvergenceTrace(q=q))
        expected = "t,q\n" + "".join("%d,%.17g\n" % tv for tv in enumerate(q.tolist()))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_writers_match_fstring_reference(self, tmp_path):
        # the writers format whole rows with one %-format; the bytes must be
        # those of formatting every value with f"{v:.17g}"
        vals = np.array([-0.0, 5e-324, 1e-300, 1 / 3, 0.1, -1.0])
        M = vals.reshape(3, 2)

        def ref(v):
            return f"{v:.17g}"

        write_states_csv(tmp_path / "s.csv", Trajectory(M, M, np.zeros(2)))
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
