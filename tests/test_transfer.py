"""Transfer function values, derivatives, unit-slope points, and shape facts."""

import math

import numpy as np
import pytest

from critical_esn.transfer import (
    LINEAR,
    SINE_SIGMOID,
    TANH,
    TransferFunction,
    continuity_defect,
    tailored,
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

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, tailored([-2.5, 3.0])])
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

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, tailored([-2.5, 3.0])])
    def test_reported_points_have_unit_slope(self, tf):
        for p in tf.epi_critical_points(-8.0, 8.0):
            assert abs(tf.derivative(p) - 1.0) <= 1e-12

    def test_sine_sigmoid_images_on_half_line(self):
        for p in SINE_SIGMOID.epi_critical_points(-20.0, 20.0):
            assert abs(SINE_SIGMOID(p) - p / 2) <= 1e-12


class TestMaxSlopeEstimate:
    def test_tanh_lipschitz(self):
        assert TANH.max_slope_estimate(-4.0, 4.0, 10000) <= 1.0 + 1e-9

    def test_linear_exact(self):
        assert LINEAR.max_slope_estimate(-1.0, 1.0, 100) == 1.0

    def test_sine_sigmoid_grid_straddles_unit_slope(self):
        # independent check: a 10000-point grid on [-4, 4] has points within
        # 8e-4 of pi/2, where the secant slope is 1 - O(step^2)
        est = SINE_SIGMOID.max_slope_estimate(-4.0, 4.0, 10000)
        assert 0.999 <= est <= 1.0 + 1e-9

    def test_bad_args(self):
        with pytest.raises(ValueError):
            TANH.max_slope_estimate(1.0, -1.0, 100)
        with pytest.raises(ValueError):
            TANH.max_slope_estimate(-1.0, 1.0, 1)


class TestMonotonicity:
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR])
    def test_non_decreasing_on_grid(self, tf):
        ys = tf(GRID)
        assert np.all(np.diff(ys) >= -1e-15)


class TestTailored:
    def test_needs_anchors(self):
        with pytest.raises(ValueError):
            TransferFunction("tailored")

    def test_anchors_sorted_and_unique(self):
        tf = tailored([3.0, -2.5])
        assert tf.params == (-2.5, 3.0)
        with pytest.raises(ValueError):
            tailored([1.0, 1.0])

    def test_piece_near_anchor(self):
        tf = tailored([-2.5, 3.0])
        assert tf(3.2) == pytest.approx(math.tanh(0.2) + math.tanh(3.0), abs=1e-15)
        # far from every anchor the plain curve applies
        assert tf(0.0) == 0.0

    def test_tie_breaks_toward_smaller_anchor(self):
        tf = tailored([0.0, 1.0])
        assert tf(0.5) == pytest.approx(math.tanh(0.5), abs=1e-15)

    def test_unit_slope_points_include_anchors_and_origin(self):
        tf = tailored([-2.5, 3.0])
        np.testing.assert_allclose(tf.epi_critical_points(-5.0, 5.0), [-2.5, 0.0, 3.0], atol=1e-12)

    def test_origin_suppressed_when_owned_by_anchor(self):
        tf = tailored([0.5])
        pts = tf.epi_critical_points(-5.0, 5.0)
        np.testing.assert_allclose(pts, [0.5], atol=1e-12)

    def test_continuity_defect_detects_piece_jumps(self):
        assert continuity_defect(TANH, -5.0, 5.0) <= 1e-6
        assert continuity_defect(tailored([3.0]), -5.0, 5.0) > 0.5

    def test_scalar_and_array_paths_agree(self):
        tf = tailored([-2.5, 3.0])
        f = tf.scalar_fn()
        xs = np.linspace(-6, 6, 301)
        np.testing.assert_array_equal([f(x) for x in xs], tf(xs))


class TestSerialization:
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR, tailored([-1.0, 2.0])])
    def test_roundtrip(self, tf):
        assert TransferFunction.from_dict(tf.to_dict()) == tf

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TransferFunction("sigmoid")

    def test_rejects_params_on_fixed_kinds(self):
        with pytest.raises(ValueError):
            TransferFunction("tanh", (1.0,))
