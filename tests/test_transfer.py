"""Transfer function values, derivatives, unit-slope points, and shape facts."""

import dataclasses
import math

import numpy as np
import pytest

from critical_esn.dynamics import _advance
from critical_esn.reservoir import Reservoir
from critical_esn.transfer import (
    LINEAR,
    SINE_SIGMOID,
    TANH,
    _FORMULAS,
    TransferFunction,
)

PI = math.pi
GRID = np.arange(-10.0, 10.0 + 1e-9, 1e-3)


class TestEval:
    def test_tanh_origin(self):
        assert TANH(0.0) == 0.0

    def test_sine_sigmoid_first_unit_slope_point(self):
        # the curve passes through the line y = x/2 at its unit-slope points
        assert SINE_SIGMOID(PI / 2) == pytest.approx(PI / 4, abs=1e-12)

    def test_sine_sigmoid_second_unit_slope_point(self):
        assert SINE_SIGMOID(3 * PI / 2) == pytest.approx(3 * PI / 4, abs=1e-12)

    def test_linear_is_identity(self):
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_array_equal(LINEAR(xs), xs)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                TANH(bad)
        with pytest.raises(ValueError):
            SINE_SIGMOID(np.array([0.0, math.nan]))


class TestOut:
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR], ids=lambda tf: tf.kind)
    def test_out_is_filled_and_returned_bitwise(self, tf):
        xs = GRID.reshape(-1, 1)
        rows = np.full((3, xs.size), np.nan)
        buf = rows[1]  # a row view, as the stepping body passes
        assert tf(GRID, out=buf) is buf
        assert buf.tobytes() == tf(GRID).tobytes()
        assert np.isnan(rows[[0, 2]]).all()
        block = np.empty_like(xs)
        assert tf(xs, out=block) is block and block.tobytes() == tf(xs).tobytes()


class TestFiniteCheck:
    # The check warns about nothing (the suite turns RuntimeWarnings into
    # errors), whatever the entries.
    def test_finite_entries_with_an_overflowing_sum_pass(self):
        x = np.array([1e308, 1e308, -1e308])
        np.testing.assert_array_equal(LINEAR(x), x)
        np.testing.assert_array_equal(LINEAR.derivative(x), 1.0)

    @pytest.mark.parametrize("bad", [[math.nan], [math.inf], [1.0, -math.inf], [math.inf, -math.inf]])
    def test_non_finite_entries_raise(self, bad):
        for f in (TANH, TANH.derivative):
            with pytest.raises(ValueError, match="^transfer function input must be finite$"):
                f(np.array(bad))

    def test_empty_input_passes(self):
        empty = np.empty(0)
        for tf in (TANH, SINE_SIGMOID, LINEAR):
            assert tf(empty).shape == (0,) and tf.derivative(empty).shape == (0,)
            buf = np.empty(0)
            assert tf(empty, out=buf) is buf

    # Every input form __call__ accepts gives the values, and the error, of
    # the same values passed as a list.
    FORMS = {
        "int array": lambda v: np.array(v, dtype=np.int64),
        "float32 array": lambda v: np.array(v, dtype=np.float32),
        "list": list,
        "python float": lambda v: float(v[0]),
        "0-d array": lambda v: np.array(v[0]),
        "strided float64 view": lambda v: np.repeat(np.array(v, dtype=float), 2)[::2],
        "column of a 2-d array": lambda v: np.column_stack([v, np.full(len(v), np.inf)])[:, 0],
    }

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR], ids=lambda tf: tf.kind)
    def test_every_input_form_gives_the_converted_values(self, tf, form):
        values = [-3, 0, 2, 5]
        x = self.FORMS[form](values)
        ref = tf(np.asarray(x, dtype=float).tolist())
        got = tf(x)
        assert type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        if np.ndim(x):
            buf = np.empty(np.shape(x))
            assert tf(x, out=buf) is buf and buf.tobytes() == ref.tobytes()
        assert np.asarray(tf.derivative(x)).tobytes() == np.asarray(tf.derivative(np.asarray(x, dtype=float).tolist())).tobytes()

    @pytest.mark.parametrize("form", [f for f in FORMS if f != "int array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_input_form_rejects_non_finite(self, form, bad):
        x = self.FORMS[form]([bad, 1.0])
        buf = np.empty(np.shape(x)) if np.ndim(x) else None
        for f in (lambda x: TANH(x, out=buf), TANH.derivative):
            with pytest.raises(ValueError, match="^transfer function input must be finite$"):
                f(x)


class TestDerivative:
    def test_tanh_origin(self):
        assert TANH.derivative(0.0) == 1.0

    def test_sine_sigmoid_maximum_slope(self):
        assert SINE_SIGMOID.derivative(PI / 2) == pytest.approx(1.0, abs=1e-12)

    def test_sine_sigmoid_zero_slope_at_origin(self):
        assert SINE_SIGMOID.derivative(0.0) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LINEAR.derivative(math.inf)

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR])
    def test_slope_stays_in_unit_band(self, tf):
        d = tf.derivative(GRID)
        assert np.all(d >= -1e-15)
        assert np.all(d <= 1.0 + 1e-12)

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR])
    def test_matches_central_finite_difference(self, tf):
        h = 1e-5
        numeric = (tf(GRID + h) - tf(GRID - h)) / (2 * h)
        np.testing.assert_allclose(tf.derivative(GRID), numeric, atol=1e-6)


class TestEpiCriticalPoints:
    def test_tanh_single_point(self):
        assert TANH.epi_critical_points(-1.0, 1.0) == [0.0]
        assert TANH.epi_critical_points(0.5, 2.0) == []

    def test_sine_sigmoid_half_period_ladder(self):
        pts = SINE_SIGMOID.epi_critical_points(0.0, 2 * PI)
        np.testing.assert_allclose(pts, [PI / 2, 3 * PI / 2], rtol=0, atol=1e-15)

    def test_sine_sigmoid_empty_window(self):
        assert SINE_SIGMOID.epi_critical_points(0.0, 0.1) == []

    def test_sine_sigmoid_negative_window(self):
        pts = SINE_SIGMOID.epi_critical_points(-2 * PI, 0.0)
        np.testing.assert_allclose(pts, [-3 * PI / 2, -PI / 2], atol=1e-15)

    def test_linear_has_no_isolated_points(self):
        with pytest.raises(ValueError):
            LINEAR.epi_critical_points(-1.0, 1.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            TANH.epi_critical_points(1.0, 1.0)

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID])
    def test_reported_points_have_unit_slope(self, tf):
        for p in tf.epi_critical_points(-8.0, 8.0):
            assert abs(tf.derivative(p) - 1.0) <= 1e-12

    def test_sine_sigmoid_images_on_half_line(self):
        for p in SINE_SIGMOID.epi_critical_points(-20.0, 20.0):
            assert abs(SINE_SIGMOID(p) - p / 2) <= 1e-12


def _max_secant_slope(tf, lo, hi, n_grid):
    xs = np.linspace(lo, hi, n_grid)
    return float(np.max(np.abs(np.diff(tf(xs)) / np.diff(xs))))


class TestSecantSlope:
    def test_tanh_lipschitz(self):
        assert _max_secant_slope(TANH, -4.0, 4.0, 10000) <= 1.0 + 1e-9

    def test_linear_exact(self):
        assert _max_secant_slope(LINEAR, -1.0, 1.0, 100) == 1.0

    def test_sine_sigmoid_grid_straddles_unit_slope(self):
        # independent check: a 10000-point grid on [-4, 4] has points within
        # 8e-4 of pi/2, where the secant slope is 1 - O(step^2)
        est = _max_secant_slope(SINE_SIGMOID, -4.0, 4.0, 10000)
        assert 0.999 <= est <= 1.0 + 1e-9


class TestAdmissible:
    # The paper's class: non-decreasing and 1-Lipschitz.  Every kind is in
    # it, the linear counterexample too (slope 1 everywhere, so it never contracts).
    @pytest.mark.parametrize("kind", sorted(_FORMULAS))
    def test_non_decreasing_and_1_lipschitz(self, kind):
        xs = np.linspace(-8.0, 8.0, 1_600_001)
        dy = np.diff(TransferFunction(kind)(xs))
        assert np.all(dy >= 0.0)
        assert np.max(dy / np.diff(xs)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("kind", sorted(_FORMULAS))
    def test_float_column_matches_the_array_column(self, kind):
        # theta on a float, the body of _advance's float loop, against theta
        # on arrays: from the smallest subnormal to 4e307, both signs, +-0
        # and the range the states visit
        mags = np.geomspace(5e-324, 4e307, 200_001)
        z = np.concatenate([mags, -mags, [0.0, -0.0], np.linspace(-50.0, 50.0, 200_001)])
        theta, theta_float = _FORMULAS[kind][0], _FORMULAS[kind][2]
        floats = np.array([theta_float(v) for v in z.tolist()])
        if kind == "tanh":  # math.tanh and np.tanh differ in the last bits
            np.testing.assert_array_max_ulp(floats, theta(z), maxulp=2)
        else:
            assert floats.tobytes() == theta(z).tobytes()


class TestCurvatureColumn:
    @pytest.mark.parametrize("kind", sorted(_FORMULAS))
    def test_matches_a_central_difference_of_the_slope(self, kind):
        # theta'' (the fourth column) against (theta'(x + h) - theta'(x - h)) / 2h:
        # truncation ~ h^2 and rounding ~ eps / h are both below 1e-9
        slope, curvature = _FORMULAS[kind][1], _FORMULAS[kind][3]
        xs, h = np.linspace(-4.0, 4.0, 8001), 1e-5
        np.testing.assert_allclose(curvature(xs), (slope(xs + h) - slope(xs - h)) / (2.0 * h), rtol=0.0, atol=1e-9)

    def test_linear_kind_is_exactly_flat(self):
        xs = np.linspace(-4.0, 4.0, 8001)
        assert np.all(_FORMULAS["linear"][3](xs) == 0.0)


class TestFloatSteps:
    @pytest.mark.parametrize("kind", sorted(_FORMULAS))
    def test_scalar_and_array_paths_agree(self, kind):
        # _advance's float loop at k = n = 1 with w = 0 and unit input weight
        # steps x_t = theta(u_t); run it over the whole grid at once and in
        # spans of 7 steps, each storing its states in out
        tf = TransferFunction(kind)
        xs = np.linspace(-6, 6, 301)
        res, u = Reservoir(W=[[0.0]], w_in=[[1.0]], tf=tf), xs[:, None]
        whole, spans = np.full((xs.size, 1), np.nan), np.full((xs.size, 1), np.nan)
        assert _advance(res, u, np.array([0.5]), whole) == whole[-1]
        x = np.array([0.5])
        for t0 in range(0, xs.size, 7):
            x = _advance(res, u[t0 : t0 + 7], x, spans[t0:])
        assert spans.tobytes() == whole.tobytes()
        if kind == "tanh":  # math.tanh and np.tanh differ in the last bit
            np.testing.assert_array_max_ulp(whole[:, 0], tf(xs), maxulp=1)
        else:
            assert whole[:, 0].tobytes() == tf(xs).tobytes()


class TestSineSigmoidFormula:
    def test_bitwise_the_textbook_expression(self):
        # 0.25*(y - sin y) with y = 2z against 0.5z - 0.25 sin 2z: from the
        # smallest subnormal to 4e307 (2z stays finite), both signs, and +-0
        mags = np.geomspace(5e-324, 4e307, 200_001)
        z = np.concatenate([mags, -mags, [0.0, -0.0], np.linspace(-20.0, 20.0, 200_001)])
        textbook = np.subtract(0.5 * z, 0.25 * np.sin(2.0 * z))
        assert SINE_SIGMOID(z).tobytes() == textbook.tobytes()
        buf = np.empty_like(z)
        assert SINE_SIGMOID(z, out=buf) is buf and buf.tobytes() == textbook.tobytes()


class TestSerialization:
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR])
    def test_roundtrip(self, tf):
        assert TransferFunction(**dataclasses.asdict(tf)) == tf

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TransferFunction("sigmoid")

    def test_rejects_params_on_fixed_kinds(self):
        # a transfer function is its kind's name alone
        with pytest.raises(TypeError):
            TransferFunction("tanh", (1.0,))
