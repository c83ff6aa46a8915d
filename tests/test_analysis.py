"""Lyapunov estimators, decay-law classification, critical coupling."""

import math

import numpy as np
import pytest

from critical_esn import analysis
from critical_esn.analysis import (
    _chosen_cells,
    _sign_chain,
    find_critical_b,
    fit_decay,
    lyapunov_exponent,
    lyapunov_sweep,
    write_sweep_csv,
)
from critical_esn.dynamics import (
    ZERO_FLOOR,
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
    step,
)
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir, scale_to_spectrum
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH, TransferFunction, tailored

A = math.pi / 4


def _benettin_by_step(res, spec, T, L, eps0=1e-9, x0=None, orbit=None):
    """Reference two-trajectory (exponent, T_used): x and y each advanced by dynamics.step.

    With orbit, x follows orbit[t mod P] instead of stepping, from x0 or
    orbit[0].  A collision floors the block's stretch and restarts the
    companion at x + eps0; a non-finite state reports +inf at its block's end.
    """
    u = generate_input(spec, T + 1, res.n)
    e0 = np.eye(res.k)[0]
    if x0 is None:
        x0 = np.zeros(res.k) if orbit is None else orbit[0]
    x = np.asarray(x0, float)
    y = x + eps0 * e0
    stretches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T // L * L + 1):
            try:
                y, _ = step(res, y, u[t])
            except ValueError:  # a non-finite state met the transfer function
                return math.inf, -(-t // L) * L
            x = step(res, x, u[t])[0] if orbit is None else np.asarray(orbit[t % len(orbit)], float)
            if t % L == 0:
                d = math.hypot(*(y - x))  # no overflow in the squares
                if not math.isfinite(d):
                    return math.inf, t
                if d <= ZERO_FLOOR:
                    stretches.append(math.log(ZERO_FLOOR / eps0))
                    y = x + eps0 * e0
                else:  # d / eps0 may overflow for a finite d
                    stretches.append(math.log(d) - math.log(eps0))
                    y = x + (y - x) * (eps0 / d)
    return float(np.mean(np.asarray(stretches) / L)), T // L * L


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
        assert set(shapes) == {(4, 2)}

    @pytest.mark.parametrize("k", [2, 16])
    def test_paired_block_matches_per_copy_steps(self, k):
        # GEMM rounds unlike GEMV, and the 1e-9 separation magnifies that to ~1e-7 per block
        res = make_orthogonal_reservoir(k, 1, 0.5, seed=k)
        r = lyapunov_exponent(res, IidSign(A, k), T=3000)
        assert r.exponent == pytest.approx(_benettin_by_step(res, IidSign(A, k), 3000, 10)[0], rel=1e-6)

    def test_pair_colliding_every_block_reports_the_floor(self):
        # the saturating sine sigmoid merges the twins within every 10-step block
        base = make_orthogonal_reservoir(4, 1, 0.5, seed=0)
        res = Reservoir(W=base.W, w_in=base.w_in, tf=SINE_SIGMOID)
        r = lyapunov_exponent(res, IidSign(A, 3), T=2000)
        assert r.exponent == math.log(ZERO_FLOOR / 1e-9) / 10

    def test_validation(self):
        res = make_alternating_neuron(1.0)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=50, renorm_interval=10)
        with pytest.raises(ValueError):
            lyapunov_exponent(res, Alternating(A), T=1000, eps0=1e-3)

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
        # x stays at 0 and the companion grows from 1e-9 to 1e300 in each block,
        # so d / eps0 overflows though d is finite
        res = Reservoir(W=[[10.0]], w_in=[[1.0]] if n == 1 else [[1.0, 0.0]], tf=LINEAR)
        r = lyapunov_exponent(res, Constant(0.0), T=3090, renorm_interval=309, x0=[0.0])
        assert r.T_used == 3090
        assert r.exponent == pytest.approx(math.log(10.0), rel=1e-12)
        assert math.isfinite(r.stderr) and r.stderr <= 1e-12

    @pytest.mark.parametrize("L", [10, 11])
    def test_non_finite_reference_orbit_raises(self, L):
        # at L = 10 no block boundary reads the nan state
        with pytest.raises(ValueError, match="reference orbit must be finite"):
            lyapunov_exponent(
                make_alternating_neuron(1.0), Alternating(A), T=1000, renorm_interval=L, reference_orbit=[[0.5], [math.nan]]
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0", [None, [0.3]])
    def test_empty_reference_orbit_raises(self, x0):
        with pytest.raises(ValueError, match="reference orbit must have at least one state"):
            lyapunov_exponent(make_alternating_neuron(1.0), Alternating(A), T=1000, x0=x0, reference_orbit=np.empty((0, 1)))


PINNED_TRANSFERS = {  # couplings that keep each kind's run finite
    "sine_sigmoid": (SINE_SIGMOID, -1.3),
    "tanh": (TANH, 0.9),
    "linear": (LINEAR, 0.6),
    "tailored": (tailored([-0.5, 0.7]), 1.1),
}


def _neuron(tf, w, n):
    return Reservoir(W=[[w]], w_in=[[0.8]] if n == 1 else [[0.8, -0.3]], tf=tf)


class TestPinnedNeuron:
    """One-neuron runs pinned to a reference orbit step each distinct block once."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("L", [1, 3, 10, 37])
    @pytest.mark.parametrize("kind", sorted(PINNED_TRANSFERS))
    def test_matches_per_step_reference(self, kind, L, n):
        tf, w = PINNED_TRANSFERS[kind]
        res, spec, T = _neuron(tf, w, n), IidSign(0.7, L), 50 * L + 2
        orbit, x0 = [[0.4], [-0.6], [0.1]], (None if n == 1 else [0.2])
        r = lyapunov_exponent(res, spec, T=T, renorm_interval=L, x0=x0, reference_orbit=orbit)
        exponent, T_used = _benettin_by_step(res, spec, T, L, x0=x0, orbit=orbit)
        assert r.T_used == T_used == T // L * L
        assert r.exponent == pytest.approx(exponent, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tf,w", [(LINEAR, 3.0), (SINE_SIGMOID, -3.0)], ids=["linear", "sine_sigmoid"])
    def test_divergent_run_reports_the_sentinel_at_the_reference_block(self, tf, w, n):
        # the companion restarts near the orbit every block, so only the block
        # from t = 7 (orbit[7 % 3] = 1e307) overflows within its 7 steps
        res, spec, orbit = _neuron(tf, w, n), IidSign(0.5, 1), [[0.3], [1e307], [-0.2]]
        r = lyapunov_exponent(res, spec, T=5000, renorm_interval=7, reference_orbit=orbit)
        exponent, T_used = _benettin_by_step(res, spec, 5000, 7, orbit=orbit)
        assert r.exponent == exponent == math.inf
        assert r.T_used == T_used == 14 and math.isnan(r.stderr)

    @pytest.mark.parametrize("n", [1, 2])
    def test_overflowing_linear_state_reports_the_sentinel(self, n):
        # tanh maps the overflowed linear state back to 1.0; the checked
        # per-step reference still sees the divergence in the first block
        res = Reservoir(W=[[1.5e308]], w_in=[[1e308]] if n == 1 else [[1e308, 0.0]], tf=TANH)
        r = lyapunov_exponent(res, IidSign(0.7, 1), T=100, reference_orbit=[[0.3], [-0.2]])
        assert (r.exponent, r.T_used) == _benettin_by_step(res, IidSign(0.7, 1), 100, 10, orbit=[[0.3], [-0.2]])
        assert r.exponent == math.inf and r.T_used == 10

    @pytest.mark.parametrize("n", [1, 2])
    def test_stretch_past_the_float_range_stays_finite(self, n):
        # blocks ending at orbit[1] = 1e307 are about 1e307 from the tanh companion,
        # so d / eps0 overflows though d is finite
        res, spec, orbit = _neuron(TANH, 0.5, n), IidSign(0.7, 1), [[0.3], [1e307]]
        r = lyapunov_exponent(res, spec, T=1000, renorm_interval=7, reference_orbit=orbit)
        exponent, T_used = _benettin_by_step(res, spec, 1000, 7, orbit=orbit)
        assert r.T_used == T_used == 994
        assert r.exponent == pytest.approx(exponent, rel=1e-12)
        assert math.isfinite(r.exponent) and math.isfinite(r.stderr)

    @pytest.mark.filterwarnings("error")
    def test_distance_past_the_squares_range_matches_one_coordinate(self):
        # blocks ending at 1e307 end about 1e307 from the companion; at k = 2
        # the square of that distance overflows, at k = 1 nothing is squared
        spec, orbit = IidSign(0.7, 1), np.array([[0.3], [1e307]])
        one = lyapunov_exponent(_neuron(TANH, 0.5, 1), spec, T=1000, renorm_interval=7, reference_orbit=orbit)
        two = lyapunov_exponent(
            Reservoir(W=0.5 * np.eye(2), w_in=[[0.8], [0.0]], tf=TANH),
            spec,
            T=1000,
            renorm_interval=7,
            reference_orbit=np.column_stack([orbit, np.zeros(2)]),
        )
        assert one.T_used == two.T_used == 994
        assert two.exponent == pytest.approx(one.exponent, rel=1e-12)
        assert two.stderr == pytest.approx(one.stderr, rel=1e-12)

    @pytest.mark.parametrize("L", [1, 3, 10, 37])
    def test_collision_every_block_reports_the_floor(self, L):
        # with W = 0 the companion lands bitwise on the orbit 0.5 u_t at every step
        res = Reservoir(W=[[0.0]], w_in=[[0.5]], tf=LINEAR)
        r = lyapunov_exponent(res, Alternating(A), T=2000, renorm_interval=L, reference_orbit=[[0.5 * A], [-0.5 * A]])
        assert r.exponent == pytest.approx(math.log(ZERO_FLOOR / 1e-9) / L, rel=1e-15, abs=0.0)
        assert r.stderr <= 1e-12

    @pytest.mark.parametrize("L", [1, 10, 37])
    def test_one_transfer_evaluation_per_step_of_the_block(self, monkeypatch, L):
        # the alternating orbit repeats every block at even L and every second
        # block at odd L; block 0 steps on its own, so 2 or 3 rows step.  An
        # i.i.d. drive repeats nothing, and every block steps.
        shapes = []
        theta = TransferFunction._theta

        def counted(self, arr, out=None):
            shapes.append(arr.shape)
            return theta(self, arr, out)

        monkeypatch.setattr(TransferFunction, "_theta", counted)
        for spec in (Alternating(A), IidSign(A, 4)):
            shapes.clear()
            r = lyapunov_exponent(
                make_alternating_neuron(1.0), spec, T=100 * L + 5, renorm_interval=L, reference_orbit=alternating_orbit(A)
            )
            rows = r.T_used // L if isinstance(spec, IidSign) else 2 + L % 2
            assert shapes == [(rows, 2)] * L

    def test_non_finite_input_raises(self):
        with pytest.raises(ValueError, match="inputs must be finite"):
            lyapunov_exponent(make_alternating_neuron(1.0), Constant(math.nan), T=100, reference_orbit=alternating_orbit(A))


def _pinned_uncollapsed(res, spec, T, L, orbit, x0=None, eps0=1e-9):
    """(exponent, stderr, T_used) of a pinned one-neuron run with every block on its own row.

    The pinned body as it was before it stepped only the distinct blocks:
    both candidates of all T_used/L blocks as one array, a loop over bytes
    for the chain of restart columns and one math.log per block.
    """
    u = generate_input(spec, T + 1, res.n)
    orbit = np.asarray(orbit, dtype=float)
    blocks = T // L
    T_used = blocks * L
    drive = np.matmul(res.w_in, u[1 : T_used + 1, :, None]).reshape(blocks, L)
    ref = orbit[np.arange(0, T_used + 1, L) % len(orbit), 0]
    ref[0] = orbit[0, 0] if x0 is None else x0[0]
    Y = ref[:-1, None] + np.array([eps0, -eps0])
    w, finite = float(res.W[0, 0]), np.ones(Y.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(L):
            Y *= w
            Y += drive[:, i, None]
            finite &= np.isfinite(Y)
            res.tf._theta(Y, out=Y)
        diff = Y - ref[1:, None]
    D = np.abs(diff)
    succ = ((diff < 0.0) & (D > ZERO_FLOOR)).astype(np.uint8)
    succ[~(finite & np.isfinite(D))] = 2
    succ = succ.tobytes()
    chosen, c = bytearray(blocks), 0
    for j in range(blocks):
        chosen[j] = c
        c = succ[2 * j + c]
        if c == 2:
            return math.inf, math.nan, (j + 1) * L
    d = np.maximum(D[np.arange(blocks), np.frombuffer(chosen, dtype=np.uint8)], ZERO_FLOOR)
    with np.errstate(over="ignore"):
        ratio = d / eps0
    stretches = list(map(math.log, ratio.tolist()))
    for i in np.flatnonzero(np.isinf(ratio)).tolist():
        stretches[i] = math.log(d[i]) - math.log(eps0)
    per_step = np.asarray(stretches) / L
    return float(np.mean(per_step)), float(np.std(per_step) / math.sqrt(len(per_step))), T_used


def _bits(exponent, stderr, T_used):
    return exponent.hex(), stderr.hex(), T_used


def _pinned_input(source, tmp_path, T, n):
    if source == "alternating":
        return Alternating(0.7)
    if source == "iid_sign":
        return IidSign(0.7, T)
    # period 3 up to sample T - 5, which breaks the period late in the run
    u = np.tile([[0.6, 0.1], [-0.2, -0.4], [0.9, 0.3]], (T // 3 + 1, 1))[: T + 1, :n]
    u[T - 5] += 0.25
    np.savetxt(tmp_path / "periodic.csv", u, delimiter=",")
    return FileInput(str(tmp_path / "periodic.csv"))


class TestCollapsedPinnedBody:
    """Stepping only the distinct blocks changes no bit of a pinned run."""

    def _check(self, res, spec, T, L, orbit, x0=None):
        r = lyapunov_exponent(res, spec, T=T, renorm_interval=L, x0=x0, reference_orbit=orbit)
        assert _bits(r.exponent, r.stderr, r.T_used) == _bits(*_pinned_uncollapsed(res, spec, T, L, orbit, x0))
        return r

    @pytest.mark.parametrize("source", ["alternating", "iid_sign", "periodic_file"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("L", [1, 3, 10, 37])
    @pytest.mark.parametrize("kind", sorted(PINNED_TRANSFERS))
    def test_matches_the_uncollapsed_body_bitwise(self, tmp_path, kind, L, n, source):
        tf, w = PINNED_TRANSFERS[kind]
        T = 50 * L + 2
        x0 = None if n == 1 else [0.2]  # block 0 then starts off the orbit
        self._check(_neuron(tf, w, n), _pinned_input(source, tmp_path, T, n), T, L, [[0.4], [-0.6], [0.1]], x0)

    @pytest.mark.parametrize("source", ["alternating", "iid_sign"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "tf,w,orbit",
        [
            (LINEAR, 3.0, [[0.3], [1e307], [-0.2]]),
            (SINE_SIGMOID, -3.0, [[0.3], [1e307], [-0.2]]),
            (TANH, 0.5, [[0.3], [1e307]]),
        ],
        ids=["linear_diverges", "sine_sigmoid_diverges", "tanh_stretch_overflows"],
    )
    def test_extreme_runs_match_the_uncollapsed_body_bitwise(self, tmp_path, tf, w, orbit, n, source):
        self._check(_neuron(tf, w, n), _pinned_input(source, tmp_path, 1000, n), 1000, 7, orbit)

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.7])
    def test_figure3_cells_match_the_uncollapsed_body_bitwise(self, b):
        r = self._check(make_alternating_neuron(b), Alternating(A), 20_000, 10, alternating_orbit(A))
        assert math.isfinite(r.exponent)

    @pytest.mark.parametrize("spec", [Alternating(A), IidSign(A, 3)], ids=["alternating", "iid_sign"])
    def test_zero_input_weight_matches_the_uncollapsed_body_bitwise(self, spec):
        # b = 2 gives w_in = 0: every drive is 0 while the i.i.d. inputs differ
        r = self._check(make_alternating_neuron(2.0), spec, 5000, 10, alternating_orbit(A))
        assert math.isfinite(r.exponent)

    @pytest.mark.parametrize("L", [1, 10, 37])
    def test_zero_amplitude_collides_every_block_bitwise(self, L):
        # with W = 0 and input +-0.0 the companion lands on the orbit 0 at every step
        res = Reservoir(W=[[0.0]], w_in=[[0.5]], tf=LINEAR)
        r = self._check(res, Alternating(0.0), 2000, L, alternating_orbit(0.0))
        assert r.exponent == pytest.approx(math.log(ZERO_FLOOR / 1e-9) / L, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("b", [0.5, 1.0])
    def test_huge_amplitude_diverges_bitwise(self, b):
        # the linear state -b x + (2 - b) u passes the float range in block 0
        r = self._check(make_alternating_neuron(b), Alternating(1e308), 1000, 10, alternating_orbit(1e308))
        assert (r.exponent, r.T_used) == (math.inf, 10)

    @pytest.mark.parametrize("T,L", [(20_003, 10), (1000, 7), (1001, 3)])
    def test_run_length_off_the_block_grid_bitwise(self, T, L):
        r = self._check(make_alternating_neuron(1.3), Alternating(A), T, L, alternating_orbit(A))
        assert r.T_used == T // L * L

    @pytest.mark.parametrize("L", [1, 2, 3, 10])
    def test_two_inputs_match_the_uncollapsed_body_bitwise(self, L):
        res = Reservoir(W=[[-1.3]], w_in=[[0.5, 0.2]], tf=SINE_SIGMOID)
        self._check(res, Alternating(A), 3000, L, alternating_orbit(A), x0=[0.3])

    @pytest.mark.parametrize("L", [1, 2])
    def test_references_that_repeat_block_1s_key_early_bitwise(self, L):
        # the references from block 1 run a b a b c d: block 3 has block 1's key,
        # but the run does not repeat with period 2
        at_blocks = [[0.2], [0.4], [-0.6], [0.4], [-0.6], [0.1]]
        orbit = [state for x in at_blocks for state in [x] + [[0.0]] * (L - 1)]
        self._check(make_alternating_neuron(1.3), Alternating(A), 1000, L, orbit)

    @pytest.mark.parametrize("L", [1, 2, 3, 10, 37])
    def test_periodic_run_walks_and_drives_one_period(self, monkeypatch, L):
        # figure 3's orbit repeats every block at even L (p = 1), every second at odd L (p = 2)
        chains, drives = [], []
        sign_chain, matmul = analysis._sign_chain, np.matmul

        def chain(succ):
            chains.append(len(succ))
            return sign_chain(succ)

        def spy(a, b, *args, **kwargs):
            drives.append(b.shape[0])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(analysis, "_sign_chain", chain)
        monkeypatch.setattr(np, "matmul", spy)
        r = lyapunov_exponent(
            make_alternating_neuron(1.3), Alternating(A), T=100_000, renorm_interval=L, reference_orbit=alternating_orbit(A)
        )
        p = 1 + L % 2
        assert math.isfinite(r.exponent) and r.T_used == 100_000 // L * L
        assert len(chains) == 1 and chains[0] <= 1 + 3 * p
        assert drives == [(p + 1) * L]


def _walk_by_bytes(succ):
    """The sequential chain: each block's column up to the first divergence, and that block (None if none)."""
    chosen, c = [], 0
    for j, row in enumerate(succ.tolist()):
        chosen.append(c)
        c = row[c]
        if c == 2:
            return chosen, j
    return chosen, None


def test_key_period_is_the_first_full_key_repeat_that_holds():
    ref = np.array([9.0] + [1.0, 2.0, 1.0, 3.0] * 25)  # block j runs from ref[j] to ref[j + 1]
    inputs = np.zeros((100, 3))
    assert analysis._key_period(inputs, ref) == 4  # block 3 starts like block 1 but ends elsewhere
    inputs[97, 1] = -0.0
    assert analysis._key_period(inputs, ref) == 99  # a late input breaks the period, bit for bit
    ref = np.array([9.0] + [1.0, 2.0, 1.0, 2.0, 3.0, 4.0] * 20)
    assert analysis._key_period(np.zeros((120, 3)), ref) == 119  # block 3 has block 1's key, period 2 fails


def test_prefix_and_tile_match_the_chain_over_every_block():
    rng = np.random.default_rng(19)
    for p in range(1, 7):
        for _ in range(40):
            blocks = int(rng.integers(p + 1, 301))
            succ = rng.choice(3, size=(p + 1, 2), p=[0.45, 0.45, 0.1]).astype(np.uint8)
            row = np.r_[0, np.arange(blocks - 1) % p + 1]
            full = 2 * row + _sign_chain(succ[row])
            cells = _chosen_cells(succ, blocks)
            assert cells.tolist() == full.tolist()
            _, diverged = _walk_by_bytes(succ[row])
            hits = np.flatnonzero(succ.ravel()[cells] == 2)
            assert (int(hits[0]) if hits.size else None) == diverged


def test_closed_form_chain_matches_the_sequential_walk():
    rng = np.random.default_rng(17)
    for _ in range(50):
        for blocks in range(1, 61):
            p2 = rng.choice([0.0, 0.02, 0.2])  # the share of non-finite candidates
            succ = rng.choice(3, size=(blocks, 2), p=[(1 - p2) / 2, (1 - p2) / 2, p2]).astype(np.uint8)
            chosen, diverged = _walk_by_bytes(succ)
            closed = _sign_chain(succ)
            assert closed.tolist()[: len(chosen)] == chosen
            hits = np.flatnonzero(succ[np.arange(blocks), closed] == 2)
            assert (int(hits[0]) if hits.size else None) == diverged


class TestLyapunovSweep:
    def test_sign_pattern_around_critical_coupling(self):
        pts = lyapunov_sweep(
            make_alternating_neuron,
            Alternating(A),
            [0.5, 1.0],
            T=20_000,
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
            T=5000,
            reference_orbit=alternating_orbit(A),
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

        pts = lyapunov_sweep(factory, Alternating(A), [0.5, 1.5], T=1000)
        assert pts[0].error is None
        assert pts[1].error is not None and math.isnan(pts[1].exponent)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_sweep(make_alternating_neuron, Alternating(A), [], T=1000)

    def test_non_finite_reference_orbit_raises_before_any_cell(self):
        built = []

        def factory(b):
            built.append(b)
            return make_alternating_neuron(b)

        with pytest.raises(ValueError, match="reference orbit must be finite"):
            lyapunov_sweep(factory, Alternating(A), [0.5, 1.0], T=1000, reference_orbit=[[0.5], [math.nan]])
        assert built == []

    def test_empty_reference_orbit_raises_before_any_cell(self):
        built = []

        def factory(b):
            built.append(b)
            return make_alternating_neuron(b)

        with pytest.raises(ValueError, match="reference orbit must have at least one state"):
            lyapunov_sweep(factory, Alternating(A), [0.5, 1.0], T=1000, reference_orbit=np.empty((0, 1)))
        assert built == []

    def test_csv_format(self, tmp_path):
        pts = lyapunov_sweep(
            make_alternating_neuron, Alternating(A), [0.5], T=1000,
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

    def test_tangency_at_the_search_bound_rejected(self):
        # theta(b x - a) - x is (b - 1) x - a for the identity: its maximum
        # over the search range sits on the bound x = 4 for every b > 1
        with pytest.raises(ValueError, match="edge of the search range"):
            find_critical_b(LINEAR, A, (0.5, 3.0), 1e-6)

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
