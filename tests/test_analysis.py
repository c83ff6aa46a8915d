"""Lyapunov estimators, decay-law classification, critical coupling."""

import math

import numpy as np
import pytest

from critical_esn import analysis
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
    FileInput,
    IidSign,
    alternating_orbit,
    convergence_trace,
    generate_input,
    make_alternating_neuron,
    perturbation_experiment,
)
from critical_esn.contraction import _grid
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir, scale_to_spectrum
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH, TransferFunction
from oracles import step

A = math.pi / 4


def _tangent_by_step(res, spec, T, L, orbit=None):
    """Reference tangent-map (exponent, T_used): x advanced by oracles.step, v by theta'(lin) W v.

    theta' comes from TransferFunction.derivative.  With orbit, x follows
    orbit[t mod P] instead, from orbit[0], and lin is stepped from it.  v
    starts at the first unit vector and is rescaled to norm 1 every L
    steps; a non-finite state reports +inf at its block's end.
    """
    u = generate_input(spec, T + 1, res.n)
    x = np.zeros(res.k) if orbit is None else np.asarray(orbit[0], float)
    v = np.eye(res.k)[0]
    stretches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T // L * L + 1):
            if orbit is not None:
                x = np.asarray(orbit[(t - 1) % len(orbit)], float)
            try:
                x, lin = step(res, x, u[t])
            except ValueError:  # a non-finite state met the transfer function
                return math.inf, -(-t // L) * L
            v = res.tf.derivative(lin) * (res.W @ v)
            if t % L == 0:
                d = math.hypot(*v)
                stretches.append(math.log(d))
                v = v / d
    return float(np.mean(np.asarray(stretches) / L)), T // L * L


# Odd transfer functions, so that x_t = (-1)^t theta(z) can follow an
# alternating drive.
ORBIT_TRANSFERS = {"linear": LINEAR, "sine_sigmoid": SINE_SIGMOID, "tanh": TANH}


def _slope(kind, z):
    """theta'(z) from the textbook formulas, not from TransferFunction.derivative."""
    z = np.asarray(z, dtype=float)
    if kind == "linear":
        return np.ones_like(z)
    if kind == "sine_sigmoid":
        return np.sin(z) ** 2
    return 1.0 / np.cosh(z) ** 2  # tanh


def _designed_orbit(kind, W, z, source, n=1):
    """(res, spec, orbit) whose linear states are +-z: the input weights are solved for.

    With x = theta(z), the fixed point x under Constant(0.5) needs w_in u =
    z - W x, and the orbit x_t = (-1)^t x under Alternating(0.5) needs
    w_in u_t = (-1)^t (z + W x).  Each of the n input columns carries an
    equal share, and 0.5 and the halving are exact, so theta of each linear
    state is within a few ulps of the next state (asserted by oracles.step).
    """
    tf, W, z = ORBIT_TRANSFERS[kind], np.atleast_2d(np.asarray(W, dtype=float)), np.asarray(z, dtype=float)
    x = tf(z)
    if source == "alternating":
        spec, orbit, total = Alternating(0.5), np.array([x, -x]), (z + W @ x) / 0.5
    else:
        spec, orbit, total = Constant(0.5), np.array([x]), (z - W @ x) / 0.5
    res = Reservoir(W=W, w_in=np.tile(total[:, None] / n, (1, n)), tf=tf)
    u = generate_input(spec, 3, n)
    for t in (1, 2):
        nxt = orbit[t % len(orbit)]
        assert np.all(np.abs(step(res, orbit[(t - 1) % len(orbit)], u[t])[0] - nxt) <= 4 * np.spacing(np.abs(nxt)))
    return res, spec, orbit


# One-neuron coupling w and linear state z per kind, with the Floquet
# multiplier w theta'(z) near the critical value 1 on each side of the unit
# circle: 0.9 and 1.1 (linear), -0.956 and -1.13 (sine sigmoid), 0.961 and
# 1.007 (tanh).
ONE_NEURON_ORBITS = {
    "linear": {"inside": (0.9, 0.5), "outside": (1.1, 0.5)},
    "sine_sigmoid": {"inside": (-1.1, 1.2), "outside": (-1.3, 1.2)},
    "tanh": {"inside": (1.05, 0.3), "outside": (1.1, 0.3)},
}
SIDES = ["inside", "outside"]


def _coupled_orbit(kind, side, k, n, source):
    """A k-neuron designed orbit whose Jacobian diag(theta'(z)) W has spectral radius |ONE_NEURON_ORBITS multiplier|."""
    rng = np.random.default_rng(10 * k + n)
    z = rng.uniform(-1.2, 1.2, k)
    A = rng.normal(size=(k, k))
    W = (A + A.T) / 2  # diag(theta') W is then similar to a symmetric matrix: a real spectrum
    w, z1 = ONE_NEURON_ORBITS[kind][side]
    target = abs(w * float(_slope(kind, z1)))
    W *= target / np.max(np.abs(np.linalg.eigvals(_slope(kind, z)[:, None] * W)))
    return _designed_orbit(kind, W, z, source, n), z, target


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

    @pytest.mark.parametrize("orbit", [None, alternating_orbit(A)], ids=["free", "pinned"])
    @pytest.mark.parametrize(
        "run_length, message",
        [
            ({"renorm_interval": 0}, r"need renorm_interval >= 1"),
            ({"T": 99, "renorm_interval": 10}, r"need T >= 10 \* renorm_interval"),
        ],
    )
    def test_bad_run_length_rejected(self, orbit, run_length, message):
        # checked before any step, and with an orbit as without one
        with pytest.raises(ValueError, match=message):
            lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), **run_length, reference_orbit=orbit)

    @pytest.mark.parametrize("b", [0.1, 0.2, 0.3])
    def test_contracting_alternating_neuron_gives_log_b(self, b):
        # a 1e-9 separation would fall below one ulp of the state within a
        # 10-step block here; the tangent needs no separation
        r = lyapunov_exponent(make_alternating_neuron(b), Alternating(A), T=2000)
        assert r.exponent == pytest.approx(math.log(b), rel=0.0, abs=1e-3)

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
            r = lyapunov_exponent(res, IidSign(0.5, 0), T=10_000, x0=x0)
            assert math.isinf(r.exponent) and r.exponent > 0

    def test_free_running_pair_shares_one_transfer_call_per_step(self, monkeypatch):
        shapes = []
        call = TransferFunction.__call__

        def counted(self, x, out=None):
            shapes.append(np.shape(x))
            return call(self, x, out=out)

        monkeypatch.setattr(TransferFunction, "__call__", counted)
        res = make_orthogonal_reservoir(4, 1, 0.5, seed=0)
        r = lyapunov_exponent(res, IidSign(A, 0), T=1005)
        assert len(shapes) == r.T_used == 1000
        assert set(shapes) == {(4,)}  # the state's column; theta' of it is read unchecked

    @pytest.mark.parametrize("k", [2, 16])
    def test_paired_block_matches_per_copy_steps(self, k):
        # the block's GEMM rounds unlike the oracle's GEMVs
        res = make_orthogonal_reservoir(k, 1, 0.5, seed=k)
        r = lyapunov_exponent(res, IidSign(A, k), T=3000)
        assert r.exponent == pytest.approx(_tangent_by_step(res, IidSign(A, k), 3000, 10)[0], rel=1e-6)

    def test_saturating_sine_sigmoid_takes_the_tangent_exponent(self):
        # the saturating sine sigmoid would merge two states 1e-9 apart within
        # every 10-step block
        base = make_orthogonal_reservoir(4, 1, 0.5, seed=0)
        res = Reservoir(W=base.W, w_in=base.w_in, tf=SINE_SIGMOID)
        r = lyapunov_exponent(res, IidSign(A, 3), T=2000)
        assert r.exponent == pytest.approx(_tangent_by_step(res, IidSign(A, 3), 2000, 10)[0], rel=1e-6)
        assert r.exponent == pytest.approx(-4.2172, abs=1e-4)

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_tangent_gives_minus_infinity(self, k):
        # theta'(0) = 0 for the sine sigmoid, so the first step zeroes v, which stays zero
        res = Reservoir(W=0.5 * np.eye(k), w_in=np.ones((k, 1)), tf=SINE_SIGMOID)
        r = lyapunov_exponent(res, Constant(0.0), T=1000)
        assert (r.exponent, r.T_used) == (-math.inf, 1000) and math.isnan(r.stderr)

    def test_validation(self):
        res = make_alternating_neuron(1.0)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=50, renorm_interval=10)
        with pytest.raises(TypeError, match="eps0"):  # the tangent map needs no separation
            lyapunov_exponent(res, Alternating(A), T=1000, eps0=1e-9)

    @pytest.mark.parametrize("orbit", [None, [[A], [-A]]])
    def test_non_finite_x0_raises(self, orbit):
        for x0 in ([math.nan], [math.inf]):
            with pytest.raises(ValueError, match="x0 must be finite"):
                lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), T=1000, x0=x0, reference_orbit=orbit)

    @pytest.mark.parametrize("n", [1, 2])
    def test_overflowing_tanh_linear_state_reports_the_sentinel(self, n):
        # math.tanh(inf) is 1.0, so the k = n = 1 float body checks the linear
        # state as the array body (n = 2) does
        res = Reservoir(W=[[1.5e308]], w_in=[[1e308]] if n == 1 else [[1e308, 0.0]], tf=TANH)
        r = lyapunov_exponent(res, IidSign(0.7, 1), T=100, x0=[0.3])
        assert (r.exponent, r.T_used) == (math.inf, 10) and math.isnan(r.stderr)

    @pytest.mark.parametrize("n", [1, 2])
    def test_free_running_stretch_past_the_float_range_stays_finite(self, n):
        # x stays at 0 and the unit tangent would grow by 10^309 in each block,
        # past the float range, unless it is rescaled within the block
        res = Reservoir(W=[[10.0]], w_in=[[1.0]] if n == 1 else [[1.0, 0.0]], tf=LINEAR)
        r = lyapunov_exponent(res, Constant(0.0), T=3090, renorm_interval=309, x0=[0.0])
        assert r.T_used == 3090
        assert r.exponent == pytest.approx(math.log(10.0), rel=1e-12)
        assert math.isfinite(r.stderr) and r.stderr <= 1e-12

    @pytest.mark.parametrize("L", [10, 11])
    def test_non_finite_reference_orbit_raises(self, L):
        with pytest.raises(ValueError, match="reference orbit must be finite"):
            lyapunov_exponent(
                make_alternating_neuron(1.0), Alternating(A), T=1000, renorm_interval=L, reference_orbit=[[0.5], [math.nan]]
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0", [None, [0.3]])
    def test_empty_reference_orbit_raises(self, x0):
        with pytest.raises(ValueError, match="reference orbit must have at least one state"):
            lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), T=1000, x0=x0, reference_orbit=np.empty((0, 1)))

    def test_reference_orbit_of_the_wrong_width_raises(self):
        res = Reservoir(W=0.5 * np.eye(2), w_in=[[1.0], [0.0]], tf=TANH)
        with pytest.raises(ValueError, match="reference orbit states must have 2 columns"):
            lyapunov_exponent(res, Alternating(A), T=1000, reference_orbit=alternating_orbit(A))


class TestPinnedOrbit:
    """A run pinned to a reference orbit returns the orbit's exponent in closed form."""

    def test_exponent_is_log_b_at_every_figure3_grid_point(self):
        for b in _grid(0.5, 1.5, 0.05).tolist():
            r = lyapunov_exponent(make_alternating_neuron(b), Alternating(A), reference_orbit=alternating_orbit(A))
            assert r.exponent == pytest.approx(math.log(b), rel=0.0, abs=1e-12)
            assert (r.T_used, r.renorm_interval, r.stderr) == (2, 1, 0.0)
        r = lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), reference_orbit=alternating_orbit(A))
        assert r.exponent == 0.0

    @pytest.mark.parametrize("b", [0.55, 1.0, 1.45])
    def test_agrees_with_the_tangent_oracle(self, b):
        res, orbit = make_alternating_neuron(b), alternating_orbit(A)
        r = lyapunov_exponent(res, Alternating(A), T=100_000, reference_orbit=orbit)
        exponent, _ = _tangent_by_step(res, Alternating(A), 100_000, 10, orbit=orbit)
        assert r.exponent == pytest.approx(exponent, rel=0.0, abs=1e-12)

    # the oracle multiplies the orbit's own one-step slopes, so it agrees to
    # rounding: 8.3e-17 at most over both grids below
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("L", [1, 3, 10, 37])
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kind", sorted(ORBIT_TRANSFERS))
    def test_matches_per_step_reference(self, kind, side, L, n):
        w, z = ONE_NEURON_ORBITS[kind][side]
        res, spec, orbit = _designed_orbit(kind, [[w]], [z], "alternating", n)
        r = lyapunov_exponent(res, spec, T=50 * L + 2, renorm_interval=L, reference_orbit=orbit)
        exponent, _ = _tangent_by_step(res, spec, 50 * L + 2, L, orbit=orbit)
        assert r.exponent == pytest.approx(exponent, rel=0.0, abs=1e-12)
        assert r.exponent == pytest.approx(math.log(abs(w * float(_slope(kind, z)))), rel=0.0, abs=1e-14)
        assert (r.T_used, r.renorm_interval, r.stderr) == (2, 1, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("L", [1, 3, 10, 37])
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kind", sorted(ORBIT_TRANSFERS))
    def test_fixed_point_matches_per_step_reference(self, kind, side, L, n):
        w, z = ONE_NEURON_ORBITS[kind][side]
        res, spec, orbit = _designed_orbit(kind, [[w]], [z], "constant", n)
        r = lyapunov_exponent(res, spec, T=50 * L + 2, renorm_interval=L, reference_orbit=orbit)
        exponent, _ = _tangent_by_step(res, spec, 50 * L + 2, L, orbit=orbit)
        assert r.exponent == pytest.approx(exponent, rel=0.0, abs=1e-12)
        assert r.exponent == pytest.approx(math.log(abs(w * float(_slope(kind, z)))), rel=0.0, abs=1e-14)
        assert (r.T_used, r.renorm_interval, r.stderr) == (1, 1, 0.0)

    # the oracle's tangent turns towards the top eigenvector from e0, an
    # error that falls as 1/T: 1.2e-3 at most over this grid at T = 4000
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kind", sorted(ORBIT_TRANSFERS))
    @pytest.mark.parametrize("source", ["alternating", "constant"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_coupled_orbit_takes_the_top_exponent(self, k, n, source, kind, side):
        (res, spec, orbit), z, target = _coupled_orbit(kind, side, k, n, source)
        r = lyapunov_exponent(res, spec, T=4000, reference_orbit=orbit)
        exponent, _ = _tangent_by_step(res, spec, 4000, 10, orbit=orbit)
        assert r.exponent == pytest.approx(exponent, rel=0.0, abs=5e-3)
        assert r.exponent == pytest.approx(math.log(target), rel=0.0, abs=1e-13)
        assert r.T_used == len(orbit)

    @pytest.mark.parametrize("T,L", [(10, 1), (1000, 100), (100_001, 7), (2_000_000, 10)])
    def test_run_length_and_renormalisation_leave_the_exponent_alone(self, T, L):
        res, spec, orbit = _designed_orbit("tanh", [[1.1]], [0.3], "alternating")
        r = lyapunov_exponent(res, spec, T=T, renorm_interval=L, reference_orbit=orbit)
        assert r == lyapunov_exponent(res, spec, reference_orbit=orbit)

    @pytest.mark.parametrize("reps", [1, 2, 3])
    @pytest.mark.parametrize("source", ["alternating", "constant"])
    def test_repeated_orbit_takes_the_joint_period(self, source, reps):
        res, spec, orbit = _designed_orbit("sine_sigmoid", [[-1.3]], [1.2], source)
        r = lyapunov_exponent(res, spec, reference_orbit=np.tile(orbit, (reps, 1)))
        assert r.exponent == pytest.approx(lyapunov_exponent(res, spec, reference_orbit=orbit).exponent, rel=1e-14)
        assert (r.T_used, r.renorm_interval) == (math.lcm(reps * len(orbit), 2 if source == "alternating" else 1), 1)

    @pytest.mark.parametrize("pick", [[0], [1, 0], [0, 1, 0]], ids=["one_state", "flipped", "three_states"])
    def test_orbit_out_of_step_with_its_input_raises(self, pick):
        res, spec, orbit = _designed_orbit("tanh", [[1.1]], [0.3], "alternating")
        with pytest.raises(ValueError, match="reference orbit is not an orbit of the driven map"):
            lyapunov_exponent(res, spec, reference_orbit=orbit[pick])

    @pytest.mark.parametrize("source", ["alternating", "constant"])
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kind", sorted(ORBIT_TRANSFERS))
    def test_orbit_moved_off_by_a_billionth_raises(self, kind, side, source):
        w, z = ONE_NEURON_ORBITS[kind][side]
        res, spec, orbit = _designed_orbit(kind, [[w]], [z], source)
        with pytest.raises(ValueError, match="reference orbit is not an orbit of the driven map"):
            lyapunov_exponent(res, spec, reference_orbit=orbit + 1e-9)

    @pytest.mark.parametrize("b", [0.01, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("amplitude", [-A, A, 3 * A, 5 * A], ids=["-pi/4", "pi/4", "3pi/4", "5pi/4"])
    def test_odd_multiples_of_a_quarter_pi_give_log_b(self, amplitude, b):
        r = lyapunov_exponent(make_alternating_neuron(b), Alternating(amplitude), reference_orbit=alternating_orbit(amplitude))
        assert r.exponent == pytest.approx(math.log(b), rel=0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", ["alternating", "constant"])
    @pytest.mark.parametrize("kind", sorted(ORBIT_TRANSFERS))
    def test_nilpotent_coupling_gives_minus_infinity(self, kind, source):
        # theta' > 0, yet diag(theta') W is strictly upper triangular
        res, spec, orbit = _designed_orbit(kind, [[0.0, 0.8], [0.0, 0.0]], [0.3, -0.4], source)
        r = lyapunov_exponent(res, spec, reference_orbit=orbit)
        assert (r.exponent, r.stderr) == (-math.inf, 0.0)

    def test_two_neuron_product_takes_the_spectral_radius(self):
        # tanh' = 1 at the fixed point 0, so the one-step product is W itself
        res = Reservoir(W=np.diag([0.5, -1.2]), w_in=[[1.0], [1.0]], tf=TANH)
        r = lyapunov_exponent(res, Constant(0.0), reference_orbit=[[0.0, 0.0]])
        assert r.exponent == pytest.approx(math.log(1.2), rel=1e-15)
        assert (r.T_used, r.renorm_interval, r.stderr) == (1, 1, 0.0)

    @pytest.mark.parametrize("amplitude", [0.0, math.pi / 2, math.pi, -math.pi / 2])
    def test_zero_slope_orbit_gives_minus_infinity(self, amplitude):
        # the sine sigmoid's slope is 0 at every multiple of pi, here 2a
        r = lyapunov_exponent(make_alternating_neuron(1.3), Alternating(amplitude), reference_orbit=alternating_orbit(amplitude))
        assert (r.exponent, r.T_used, r.stderr) == (-math.inf, 2, 0.0)

    def test_zero_coupling_gives_minus_infinity(self):
        # with W = 0 the orbit 0.5 u_t is reached from anywhere in one step
        res = Reservoir(W=[[0.0]], w_in=[[0.5]], tf=LINEAR)
        r = lyapunov_exponent(res, Alternating(A), T=2000, reference_orbit=[[0.5 * A], [-0.5 * A]])
        assert (r.exponent, r.T_used, r.stderr) == (-math.inf, 2, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_product_past_the_float_range_stays_finite(self, scale):
        # the product of the two one-step Jacobians s W at tanh's fixed point 0 leaves the float range
        res = Reservoir(W=scale * np.diag([0.5, -1.2]), w_in=[[1.0], [1.0]], tf=TANH)
        r = lyapunov_exponent(res, Alternating(0.0), reference_orbit=[[0.0, 0.0]])
        assert r.exponent == pytest.approx(math.log(1.2 * scale), rel=1e-15)
        assert (r.T_used, r.renorm_interval, r.stderr) == (2, 1, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", [-A, A, 3 * A, 5 * A], ids=["-pi/4", "pi/4", "3pi/4", "5pi/4"])
    def test_log_b_far_off_the_figure3_grid(self, amplitude):
        # b^2 underflows below 1e-154; the rounding of -b a + (2 - b) a grows
        # with b, not with the state a
        for b in [1e-308, 1e-200, 1e-100] + _grid(1.5, 30.0, 0.05).tolist() + [100.0, 1e3, 1e6]:
            r = lyapunov_exponent(make_alternating_neuron(b), Alternating(amplitude), reference_orbit=alternating_orbit(amplitude))
            assert r.exponent == pytest.approx(math.log(b), rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("source", ["alternating", "constant"])
    @pytest.mark.parametrize("tf", [LINEAR, SINE_SIGMOID, TANH], ids=lambda tf: tf.kind)
    @pytest.mark.parametrize("k, n", [(20, 1), (20, 3), (50, 2)])
    def test_orbit_reached_by_stepping_passes_the_check(self, k, n, tf, source):
        # the orbit comes from iterating oracles.step, rounding and all, not by design
        res = make_orthogonal_reservoir(k, n, 1.0, seed=k + n)
        res = Reservoir(W=0.7 * res.W, w_in=res.w_in, tf=tf)
        spec = Alternating(0.8) if source == "alternating" else Constant(0.8)
        u, x = generate_input(spec, 2001, n), np.zeros(k)
        states = []
        for t in range(1, 2001):
            x = step(res, x, u[t])[0]
            states.append(x)
        orbit = np.array([states[-1], states[-2]] if source == "alternating" else [states[-1]])  # orbit[0] at even t
        r = lyapunov_exponent(res, spec, reference_orbit=orbit)
        product = np.eye(k)
        for t in range(1, len(orbit) + 1):
            lin = res.W @ orbit[(t - 1) % len(orbit)] + res.w_in @ u[t]
            product = (_slope(tf.kind, lin)[:, None] * res.W) @ product
        expected = math.log(np.max(np.abs(np.linalg.eigvals(product)))) / len(orbit)
        assert r.exponent == pytest.approx(expected, rel=0.0, abs=1e-12)
        assert r.exponent <= math.log(0.7) + 1e-12  # |theta'| <= 1 and every |eigenvalue| of W is 0.7

    # 0.5 and -1 miss theta(2a) = a; at 1e308 the drive overflows, at 5e307
    # theta of the linear state is nan, at 1e-308 theta(2a) is 0
    @pytest.mark.parametrize("amplitude", [0.5, -1.0, 1e308, 5e307, 1e-308])
    def test_non_orbit_raises(self, amplitude):
        with pytest.raises(ValueError, match="reference orbit is not an orbit of the driven map"):
            lyapunov_exponent(make_alternating_neuron(1.3), Alternating(amplitude), reference_orbit=alternating_orbit(amplitude))

    def test_input_without_a_period_raises(self, tmp_path):
        np.savetxt(tmp_path / "u.csv", generate_input(Alternating(A), 1001), delimiter=",")
        for spec in (IidSign(A, 0), FileInput(str(tmp_path / "u.csv"))):
            with pytest.raises(ValueError, match="a reference orbit needs a periodic input"):
                lyapunov_exponent(make_alternating_neuron(1.0), spec, T=1000, reference_orbit=alternating_orbit(A))

    def test_x0_with_an_orbit_raises(self):
        with pytest.raises(ValueError, match="x0 does nothing with a reference orbit"):
            lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), x0=[A], reference_orbit=alternating_orbit(A))

    @pytest.mark.parametrize(
        "res, spec, orbit, samples",
        [
            (make_alternating_neuron(1.3), Alternating(A), alternating_orbit(A), 3),
            (Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH), Constant(0.0), [[0.0]], 2),
            (Reservoir(W=[[0.5]], w_in=[[1.0]], tf=TANH), Alternating(0.0), [[0.0]] * 3, 7),
        ],
    )
    def test_generates_one_joint_period_of_input(self, monkeypatch, res, spec, orbit, samples):
        calls = []

        def spy(spec, T, n=1):
            calls.append(T)
            return generate_input(spec, T, n)

        monkeypatch.setattr(analysis, "generate_input", spy)
        lyapunov_exponent(res, spec, T=100_000, reference_orbit=orbit)
        assert calls == [samples]

    def test_non_finite_input_raises(self):
        with pytest.raises(ValueError, match="inputs must be finite"):
            lyapunov_exponent(make_alternating_neuron(1.0), Constant(math.nan), T=100, reference_orbit=alternating_orbit(A))


class TestLyapunovSweep:
    def test_sign_pattern_around_critical_coupling(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [0.5, 1.0],
            reference_orbit=alternating_orbit(A),
        )
        assert pts[0].exponent < 0
        assert pts[0].exponent == pytest.approx(math.log(0.5), abs=1e-3)
        assert abs(pts[1].exponent) <= 2e-3

    def test_single_point_matches_direct_call(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [1.0],
            reference_orbit=alternating_orbit(A),
        )
        direct = lyapunov_exponent(
            make_alternating_neuron(1.0),
            Alternating(A),
            reference_orbit=alternating_orbit(A),
        )
        assert pts[0].exponent == direct.exponent

    def test_supercritical_cell_is_expansive(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [1.2],
            reference_orbit=alternating_orbit(A),
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

        pts = lyapunov_sweep(factory, Alternating(A), [0.5, 1.5], alternating_orbit(A))
        assert pts[0].error is None
        assert pts[1].error is not None and math.isnan(pts[1].exponent)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_sweep(make_alternating_neuron, Alternating(A), [], alternating_orbit(A))

    def test_non_finite_reference_orbit_raises_before_any_cell(self):
        built = []

        def factory(b):
            built.append(b)
            return make_alternating_neuron(b)

        with pytest.raises(ValueError, match="reference orbit must be finite"):
            lyapunov_sweep(factory, Alternating(A), [0.5, 1.0], reference_orbit=[[0.5], [math.nan]])
        assert built == []

    def test_empty_reference_orbit_raises_before_any_cell(self):
        built = []

        def factory(b):
            built.append(b)
            return make_alternating_neuron(b)

        with pytest.raises(ValueError, match="reference orbit must have at least one state"):
            lyapunov_sweep(factory, Alternating(A), [0.5, 1.0], reference_orbit=np.empty((0, 1)))
        assert built == []

    def test_csv_format(self, tmp_path):
        pts = lyapunov_sweep(
            make_alternating_neuron, Alternating(A), [0.5],
            reference_orbit=alternating_orbit(A),
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
        fit = fit_decay(tr, t_start=10)
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
        b, amp = find_critical_b(TANH, A, (1.5, 3.0))
        assert b == pytest.approx(2.344, abs=1e-3)
        assert amp == pytest.approx(0.757, abs=1e-3)

    @pytest.mark.parametrize("tf, a_hi", [(TANH, 3.0), (SINE_SIGMOID, 1.5)])
    def test_residuals_at_rounding_level(self, tf, a_hi):
        # Newton solves the tangency to rounding, at every amplitude; past
        # a ~ 1.7 the sine sigmoid's tangency lies beyond the search bound x = 4
        for a in np.random.default_rng(0).uniform(1e-3, a_hi, 25).tolist():
            b, amp = find_critical_b(tf, a, (0.5, 60.0))
            x_lin = b * amp - a
            assert abs(tf(x_lin) - amp) <= 1e-13, a
            assert abs(abs(b * tf.derivative(x_lin)) - 1.0) <= 1e-13, a

    @pytest.mark.parametrize("tf", [LINEAR, SINE_SIGMOID, TANH], ids=lambda tf: tf.kind)
    def test_seeded_cases_solve_or_raise_value_error(self, tf):
        # any amplitude and bracket either yields a tangency inside the
        # bracket, solved to rounding, or a ValueError, never another error
        rng = np.random.default_rng(1)
        for _ in range(60):
            a, lo = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 3.0))
            bracket = (lo, lo + float(rng.uniform(0.01, 60.0)))
            try:
                b, amp = find_critical_b(tf, a, bracket)
            except ValueError:
                continue
            x_lin = b * amp - a
            assert bracket[0] <= b <= bracket[1], (a, bracket)
            assert abs(abs(tf(x_lin)) - amp) <= 1e-13, (a, bracket)
            assert abs(abs(b * tf.derivative(x_lin)) - 1.0) <= 1e-13, (a, bracket)

    @pytest.mark.parametrize("tf", [LINEAR, SINE_SIGMOID, TANH], ids=lambda tf: tf.kind)
    def test_log_uniform_amplitudes_solve_or_raise_value_error(self, tf):
        # amplitudes from 1e-300 to 1e18 and brackets up to 1e20 wide reach
        # the pitchfork and the saturated tail of tanh, where theta' rounds to 0
        rng = np.random.default_rng(2)
        for _ in range(60):
            a, lo = float(10.0 ** rng.uniform(-300.0, 18.0)), float(rng.uniform(0.1, 3.0))
            bracket = (lo, lo * float(10.0 ** rng.uniform(0.01, 20.0)))
            try:
                b, amp = find_critical_b(tf, a, bracket)
            except ValueError:
                continue
            assert bracket[0] <= b <= bracket[1], (a, bracket)
            assert 0.0 < amp <= 4.0, (a, bracket)

    @pytest.mark.parametrize(
        "a, bracket, b_ref",
        [(1e4, (1.0, 1e6), 10005.798594719189), (5724493704031863.0, (2.0, 7e16), 5724493704031882.3), (1e18, (1.0, 1e19), 1e18)],
    )
    def test_large_amplitude_matches_the_closed_form(self, a, bracket, b_ref):
        # for tanh the tangency solves a = sinh(2 z) / 2 - z, and b* = (z + a) / tanh(z):
        # b_ref from a 40-digit solve.  1 / theta'(z) would round 1 - tanh^2 away here
        b, amp = find_critical_b(TANH, a, bracket)
        assert b == pytest.approx(b_ref, rel=1e-15)
        assert amp == pytest.approx(1.0, abs=1e-4)

    def test_zero_amplitude_degenerates_to_unit_coupling(self):
        assert find_critical_b(TANH, 0.0, (0.5, 2.0)) == (1.0, 0.0)

    @pytest.mark.parametrize("a", [1e-20, 1e-300])
    def test_tiny_amplitude_finds_the_cube_root_orbit(self, a):
        # near the pitchfork G(z) ~ 2 z^3 / 3 - a, so |x*| ~ (1.5 a)^(1/3);
        # rounding in G fixes that root only to about 1e-3 relative at 1e-20
        b, amp = find_critical_b(TANH, a, (0.5, 2.0))
        assert amp == pytest.approx((1.5 * a) ** (1.0 / 3.0), rel=1e-2)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_bracket_must_straddle(self):
        with pytest.raises(ValueError):
            find_critical_b(TANH, 0.0, (1.5, 3.0))
        with pytest.raises(ValueError):
            find_critical_b(TANH, A, (0.1, 0.5))

    @pytest.mark.parametrize("bracket, amplitude", [((1.5, 1e308), A), ((-1e308, 3.0), A), ((1.5, 3e307), -1e308)])
    def test_bracket_whose_drive_overflows_is_named(self, bracket, amplitude):
        # b x - a past the float range for some x in [0, 4]
        with pytest.raises(ValueError, match=r"bracket \(.*\) is too wide for amplitude"):
            find_critical_b(TANH, amplitude, bracket)

    def test_tangency_at_the_search_bound_rejected(self):
        # theta(b x - a) - x is (b - 1) x - a for the identity: its maximum
        # over the search range sits on the bound x = 4 for every b > 1
        with pytest.raises(ValueError, match="edge of the search range"):
            find_critical_b(LINEAR, A, (0.5, 3.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            find_critical_b(TANH, A, (3.0, 1.5))

    def test_sine_sigmoid_zero_amplitude(self):
        # same tangency construction applies to the other covered transfer;
        # values frozen from a converged run, re-verified by the
        # residuals of the two defining conditions
        b, amp = find_critical_b(SINE_SIGMOID, 0.0, (0.5, 1.8))
        assert b == pytest.approx(1.6430700, abs=1e-5)
        assert amp == pytest.approx(1.3673823, abs=1e-5)
        x_lin = b * amp
        assert abs(SINE_SIGMOID(x_lin) - amp) <= 1e-5
        assert abs(abs(b * SINE_SIGMOID.derivative(x_lin)) - 1.0) <= 1e-5
