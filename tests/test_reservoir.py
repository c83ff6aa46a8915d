"""Reservoir construction, spectral summaries, boundary verdicts, matrix IO."""

import re

import numpy as np
import pytest

from critical_esn.reservoir import (
    Reservoir,
    check_esc,
    load_matrix_csv,
    make_orthogonal_reservoir,
    save_matrix_csv,
    scale_to_spectrum,
    spectral_summary,
)
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH


class TestMakeOrthogonalReservoir:
    def test_one_by_one_is_sign(self):
        for seed in range(8):
            res = make_orthogonal_reservoir(1, 1, 1.0, seed)
            assert res.W[0, 0] in (1.0, -1.0)

    def test_boundary_spectrum(self):
        res = make_orthogonal_reservoir(8, 1, 0.5, seed=7)
        s = spectral_summary(res.W)
        assert s.max_singular_value == pytest.approx(1.0, abs=1e-10)
        assert s.is_normal

    def test_deterministic(self):
        a = make_orthogonal_reservoir(3, 2, 1.0, seed=1)
        b = make_orthogonal_reservoir(3, 2, 1.0, seed=1)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.w_in, b.w_in)

    def test_input_scale_and_shape(self):
        res = make_orthogonal_reservoir(4, 3, 0.25, seed=0)
        assert res.w_in.shape == (4, 3)
        assert np.all(np.abs(res.w_in) <= 0.25)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_orthogonal_reservoir(0, 1, 1.0, 0)
        with pytest.raises(ValueError):
            make_orthogonal_reservoir(1, 0, 1.0, 0)

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_input_scale_whose_range_overflows_is_named(self, scale):
        with pytest.raises(ValueError, match=re.escape(f"input_scale {scale!r} is too large")):
            make_orthogonal_reservoir(2, 1, scale, 0)

    def test_thousand_seeded_reservoirs_sit_on_boundary(self):
        for i in range(1000):
            k = 1 + (i % 16)
            res = make_orthogonal_reservoir(k, 1, 1.0, seed=i)
            sv = np.linalg.svd(res.W, compute_uv=False)
            assert np.all(np.abs(sv - 1.0) <= 1e-9)
            comm = res.W @ res.W.T - res.W.T @ res.W
            assert np.max(np.abs(comm)) <= 1e-9
            assert np.max(np.abs(res.W.T @ res.W - np.eye(k))) <= 1e-10


class TestScaleToSpectrum:
    def test_identity(self):
        out = scale_to_spectrum(np.eye(3), 0.5)
        np.testing.assert_array_equal(out, 0.5 * np.eye(3))

    def test_orthogonal_already_at_target(self):
        W = make_orthogonal_reservoir(5, 1, 1.0, seed=2).W
        np.testing.assert_allclose(scale_to_spectrum(W, 1.0), W, rtol=0, atol=1e-12)

    def test_random_gaussian_hits_target(self):
        rng = np.random.default_rng(11)
        W = scale_to_spectrum(rng.standard_normal((5, 5)), 1.0, "singular")
        # independent recomputation of the output's spectrum
        assert np.linalg.svd(W, compute_uv=False)[0] == pytest.approx(1.0, abs=1e-9)

    def test_eigen_mode(self):
        rng = np.random.default_rng(12)
        W = scale_to_spectrum(rng.standard_normal((6, 6)), 0.7, "eigen")
        assert np.max(np.abs(np.linalg.eigvals(W))) == pytest.approx(0.7, abs=1e-9)

    def test_idempotent_at_target(self):
        rng = np.random.default_rng(13)
        W1 = scale_to_spectrum(rng.standard_normal((5, 5)), 0.9)
        W2 = scale_to_spectrum(W1, 0.9)
        np.testing.assert_allclose(W2, W1, rtol=1e-12, atol=0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            scale_to_spectrum(np.zeros((3, 3)), 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_non_positive_target_rejected(self, target):
        with pytest.raises(ValueError, match="target must be positive"):
            scale_to_spectrum(np.eye(2), target)

    def test_bad_mode_and_shape(self):
        with pytest.raises(ValueError):
            scale_to_spectrum(np.eye(2), 1.0, "nuclear")
        with pytest.raises(ValueError):
            scale_to_spectrum(np.ones((2, 3)), 1.0)


class TestSpectralSummary:
    def test_nilpotent_shift(self):
        s = spectral_summary([[0.0, 1.0], [0.0, 0.0]])
        assert s.max_abs_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert s.max_singular_value == pytest.approx(1.0, abs=1e-12)
        assert not s.is_normal

    def test_identity(self):
        s = spectral_summary(np.eye(2))
        assert s.max_abs_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert s.max_singular_value == pytest.approx(1.0, abs=1e-12)
        assert s.is_normal

    def test_rotation(self):
        # eigenvalues are +/- i, singular values both 1, and the matrix is normal
        s = spectral_summary([[0.0, 1.0], [-1.0, 0.0]])
        assert s.max_abs_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert s.max_singular_value == pytest.approx(1.0, abs=1e-12)
        assert s.is_normal
        np.testing.assert_allclose(s.singular_values, (1.0, 1.0), atol=1e-12)

    def test_singular_values_descending(self):
        rng = np.random.default_rng(3)
        s = spectral_summary(rng.standard_normal((6, 6)))
        assert list(s.singular_values) == sorted(s.singular_values, reverse=True)

    def test_gaussian_sweep_max_singular_dominates_eigenvalue(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            s = spectral_summary(rng.standard_normal((k, k)))
            assert s.max_singular_value >= s.max_abs_eigenvalue - 1e-9

    def test_normal_matrices_have_matching_extremes(self):
        for seed in range(50):
            W = make_orthogonal_reservoir(5, 1, 1.0, seed).W * 0.8
            s = spectral_summary(W)
            assert s.is_normal
            assert abs(s.max_singular_value - s.max_abs_eigenvalue) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_summary(np.ones((2, 3)))


class TestCheckEsc:
    def test_strictly_inside(self):
        v = check_esc(Reservoir(W=[[0.9]], w_in=[[1.0]], tf=TANH))
        assert (v.c1_necessary, v.c2_sufficient, v.critical_boundary, v.covered_by_theorem) == (
            True,
            True,
            False,
            False,
        )

    def test_boundary_with_tanh_is_covered(self):
        v = check_esc(Reservoir(W=[[1.0]], w_in=[[1.0]], tf=TANH))
        assert (v.c1_necessary, v.c2_sufficient) == (False, False)
        assert v.critical_boundary and v.covered_by_theorem

    def test_boundary_with_identity_transfer_is_not_covered(self):
        v = check_esc(Reservoir(W=[[1.0]], w_in=[[1.0]], tf=LINEAR))
        assert v.critical_boundary and not v.covered_by_theorem

    def test_boundary_with_sine_sigmoid_is_covered(self):
        res = make_orthogonal_reservoir(4, 1, 0.5, seed=5)
        v = check_esc(Reservoir(W=res.W, w_in=res.w_in, tf=SINE_SIGMOID))
        assert v.critical_boundary and v.covered_by_theorem

    def test_logical_structure_over_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            W = rng.standard_normal((k, k)) * rng.uniform(0.1, 1.5)
            v = check_esc(Reservoir(W=W, w_in=np.ones((k, 1)), tf=TANH))
            if v.c2_sufficient:
                assert v.c1_necessary
            if v.critical_boundary:
                assert not v.c2_sufficient


class TestReservoirType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Reservoir(W=np.ones((2, 3)), w_in=np.ones((2, 1)), tf=TANH)
        with pytest.raises(ValueError):
            Reservoir(W=np.eye(2), w_in=np.ones((3, 1)), tf=TANH)
        with pytest.raises(ValueError):
            Reservoir(W=[[np.inf]], w_in=[[1.0]], tf=TANH)
        with pytest.raises(ValueError, match="w_in must be finite"):
            Reservoir(W=[[0.5]], w_in=[[np.nan]], tf=TANH)

    @pytest.mark.parametrize(
        "use",
        [
            lambda W: Reservoir(W=W, w_in=np.zeros((0, 1)), tf=TANH),
            spectral_summary,
            lambda W: scale_to_spectrum(W, 1.0),
        ],
        ids=["Reservoir", "spectral_summary", "scale_to_spectrum"],
    )
    def test_empty_matrix_rejected(self, use):
        with pytest.raises(ValueError, match="^W must be non-empty$"):
            use(np.zeros((0, 0)))

    def test_weights_frozen(self):
        res = make_orthogonal_reservoir(3, 1, 1.0, seed=0)
        with pytest.raises(ValueError):
            res.W[0, 0] = 2.0


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((4, 2))
        path = tmp_path / "w.csv"
        save_matrix_csv(path, W)
        np.testing.assert_array_equal(load_matrix_csv(path), W)
        assert path.read_text().splitlines()[0] == "# 4,2"

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# 2,2\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# two,2\n1.0,2.0\n")
        with pytest.raises(ValueError, match="bad matrix header"):
            load_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
