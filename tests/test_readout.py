"""Readout regression and the delay-reconstruction memory benchmark."""

import tracemalloc

import numpy as np
import pytest

from critical_esn import readout
from critical_esn.dynamics import run_with_inputs
from critical_esn.readout import (
    fit_readout,
    memory_capacity,
    predict,
    write_mc_csv,
)
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir, scale_to_spectrum
from critical_esn.transfer import LINEAR, TANH


def _scaled(k, target, seed, tf=TANH):
    base = make_orthogonal_reservoir(k, 1, 0.5, seed)
    return Reservoir(W=scale_to_spectrum(base.W, target), w_in=base.w_in, tf=tf)


class TestFitReadout:
    def test_states_as_targets_recovers_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 4))
        model = fit_readout(X, X, ridge=0.0)
        np.testing.assert_allclose(model.w_out, np.eye(4), atol=1e-9)

    def test_zero_targets_zero_weights(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 3))
        model = fit_readout(X, np.zeros((100, 2)), ridge=0.0)
        np.testing.assert_allclose(model.w_out, np.zeros((2, 3)), atol=1e-12)

    def test_exact_linear_map_recovery(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((300, 5))
        M = rng.standard_normal((2, 5))
        model = fit_readout(X, X @ M.T, ridge=0.0)
        np.testing.assert_allclose(model.w_out, M, atol=1e-8)
        assert model.training_error <= 1e-8

    def test_singular_states_need_ridge(self):
        X = np.ones((50, 2))  # rank one
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            fit_readout(X, np.ones(50), ridge=0.0)
        model = fit_readout(X, np.ones(50), ridge=1e-6)
        assert np.isfinite(model.w_out).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_readout(np.ones((10, 2)), np.ones(9))
        for ridge in (-1.0, np.nan):
            with pytest.raises(ValueError, match="ridge"):
                fit_readout(np.ones((10, 2)), np.ones(10), ridge=ridge)

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_given_normal_matrix_gives_the_same_bits(self, ridge):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((120, 4))
        Y = rng.standard_normal((120, 3))
        G = X.T @ X + ridge * np.eye(4)
        a = fit_readout(X, Y, ridge=ridge)
        b = fit_readout(X, Y, ridge=ridge, normal=G)
        assert a.w_out.tobytes() == b.w_out.tobytes()
        assert a.training_error == b.training_error

    @pytest.mark.parametrize("shape", [(3, 3), (4, 5), (4,), (16,)])
    def test_normal_matrix_of_the_wrong_shape_rejected(self, shape):
        X = np.random.default_rng(7).standard_normal((50, 4))
        with pytest.raises(ValueError, match=r"normal matrix must be \(4, 4\)"):
            fit_readout(X, np.ones(50), ridge=1e-8, normal=np.ones(shape))


class TestPredict:
    def test_identity_model(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        model = fit_readout(X, X, ridge=0.0)
        np.testing.assert_allclose(predict(model, X), X, atol=1e-9)

    def test_zero_model(self):
        X = np.random.default_rng(4).standard_normal((20, 3))
        model = fit_readout(X, np.zeros((20, 1)), ridge=0.0)
        np.testing.assert_array_equal(predict(model, X), np.zeros((20, 1)))

    def test_training_error_is_recomputable(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 4))
        Y = X @ rng.standard_normal((4, 2)) + 0.01 * rng.standard_normal((100, 2))
        model = fit_readout(X, Y, ridge=1e-8)
        rms = float(np.sqrt(np.mean((predict(model, X) - Y) ** 2)))
        assert rms == pytest.approx(model.training_error, rel=1e-12)

    def test_dimension_mismatch(self):
        X = np.ones((10, 3))
        model = fit_readout(X, np.ones(10), ridge=1e-8)
        with pytest.raises(ValueError):
            predict(model, np.ones((5, 2)))


class TestMemoryCapacity:
    def test_total_bounded_by_neuron_count(self):
        for k in (4, 8):
            res = _scaled(k, 0.99, seed=42)
            mc = memory_capacity(res, 1.0, max_delay=2 * k, T=3000, seed=1)
            assert mc.mc_total <= k + 0.5

    def test_per_delay_scores_are_correlations(self):
        res = _scaled(4, 0.9, seed=0)
        mc = memory_capacity(res, 1.0, max_delay=10, T=2000, seed=2)
        assert len(mc.per_delay) == 10
        for d, s in mc.per_delay:
            assert 1 <= d <= 10
            assert 0.0 <= s <= 1.0 + 1e-9
        assert mc.mc_total == pytest.approx(sum(s for _, s in mc.per_delay))

    def test_more_ridge_never_helps(self):
        res = _scaled(8, 0.99, seed=42)
        totals = [
            memory_capacity(res, 1.0, max_delay=20, T=4000, ridge=r, seed=1).mc_total
            for r in (1e-8, 1e-4, 1e-2, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_linear_boundary_reservoir_baseline(self):
        # frozen regression value for a fixed protocol; the memory of a
        # linear near-boundary reservoir approaches its neuron count once
        # enough delays are scored
        res = _scaled(8, 0.99, seed=3, tf=LINEAR)
        mc = memory_capacity(res, 1.0, max_delay=100, T=20_000, seed=1)
        assert mc.mc_total >= 4.0
        assert mc.mc_total == pytest.approx(6.9510, abs=2e-3)

    def test_deterministic(self):
        res = _scaled(4, 0.9, seed=7)
        a = memory_capacity(res, 1.0, max_delay=8, T=1500, seed=9)
        b = memory_capacity(res, 1.0, max_delay=8, T=1500, seed=9)
        assert a == b

    def test_zero_delay_rejected(self):
        res = _scaled(4, 0.9, seed=0)
        with pytest.raises(ValueError):
            memory_capacity(res, 1.0, max_delay=0, T=2000)

    def test_short_run_rejected(self):
        res = _scaled(4, 0.9, seed=0)
        with pytest.raises(ValueError, match="T too small"):
            memory_capacity(res, 1.0, max_delay=10, T=220)

    @pytest.mark.parametrize("max_delay", [1, 7, 8, 9, 17])
    def test_delay_blocks_match_per_delay_fits(self, monkeypatch, max_delay):
        res = _scaled(6, 0.95, seed=4)
        T, washout, ridge, seed = 1500, 200, 1e-8, 3
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args[1].shape[1])
            return fit_readout(*args, **kwargs)

        monkeypatch.setattr(readout, "fit_readout", counting_fit)
        mc = memory_capacity(res, 1.0, max_delay, T, washout=washout, ridge=ridge, seed=seed)
        # ceil(max_delay / 8) solves, each over the next block of delays
        assert calls == [min(8, max_delay - first) for first in range(0, max_delay, 8)]

        # reference: one fit per delay, as a plain loop over row indices
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(T, 1))
        rows = np.arange(max(washout, max_delay), T)
        X = run_with_inputs(res, u).states[rows]
        split = rows.size // 2
        expected = []
        for d in range(1, max_delay + 1):
            target = u[rows - d, 0]
            model = fit_readout(X[:split], target[:split], ridge=ridge)
            pred = predict(model, X[split:])[:, 0]
            r = np.corrcoef(pred, target[split:])[0, 1]
            expected.append(r * r)
        delays = [d for d, _ in mc.per_delay]
        assert delays == list(range(1, max_delay + 1))
        assert all(type(d) is int for d in delays)
        np.testing.assert_allclose([s for _, s in mc.per_delay], expected, rtol=0, atol=1e-12)

    def test_delay_blocks_keep_singular_check(self, monkeypatch):
        # two identical neurons: the state matrix has rank one
        res = Reservoir(W=np.zeros((2, 2)), w_in=[[1.0], [1.0]], tf=TANH)
        calls = []
        monkeypatch.setattr(readout, "fit_readout", lambda *a, **kw: calls.append(a))
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            memory_capacity(res, 1.0, max_delay=9, T=1000, ridge=0.0)
        assert calls == []  # raised before any block was fitted

    @pytest.mark.parametrize("max_delay", [1, 9, 17])
    def test_normal_matrix_formed_once_per_run(self, monkeypatch, max_delay):
        res = _scaled(6, 0.95, seed=4)
        formed, given = [], []
        normal_matrix, fit = readout._normal_matrix, readout.fit_readout

        def counting_normal(*args):
            formed.append(normal_matrix(*args))
            return formed[-1]

        def recording_fit(*args, normal=None, **kwargs):
            given.append(normal)
            return fit(*args, normal=normal, **kwargs)

        monkeypatch.setattr(readout, "_normal_matrix", counting_normal)
        monkeypatch.setattr(readout, "fit_readout", recording_fit)
        memory_capacity(res, 1.0, max_delay, T=1500, seed=3)
        assert len(formed) == 1
        # one fit per block of 8 delays, each handed that one matrix
        assert len(given) == -(-max_delay // 8) and all(g is formed[0] for g in given)

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_shared_normal_matrix_keeps_every_bit(self, monkeypatch, ridge):
        # reference: each block's fit_readout forms its own normal matrix
        res = _scaled(6, 0.95, seed=4)
        shared = memory_capacity(res, 1.0, max_delay=17, T=1500, ridge=ridge, seed=3)
        fit = readout.fit_readout
        monkeypatch.setattr(
            readout, "fit_readout", lambda states, targets, ridge, normal=None: fit(states, targets, ridge)
        )
        per_block = memory_capacity(res, 1.0, max_delay=17, T=1500, ridge=ridge, seed=3)
        assert shared.per_delay == per_block.per_delay
        assert shared.mc_total == per_block.mc_total

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ridge": -1.0}, "ridge"),
            ({"ridge": np.nan}, "ridge"),
            ({"washout": -1}, "washout"),
        ],
    )
    def test_bad_ridge_or_washout_rejected_before_simulating(self, monkeypatch, kwargs, message):
        res = _scaled(4, 0.9, seed=0)
        runs = []
        monkeypatch.setattr(readout, "run_with_inputs", lambda *a, **kw: runs.append(a))
        with pytest.raises(ValueError, match=message):
            memory_capacity(res, 1.0, max_delay=10, T=2000, **kwargs)
        assert runs == []

    @pytest.mark.parametrize("washout", [0, 1023, 1024, 2500])
    def test_run_in_chunks_keeps_every_bit(self, monkeypatch, washout):
        # reference: the whole run as one run_with_inputs call
        res = _scaled(6, 0.95, seed=4)
        chunked = memory_capacity(res, 1.0, max_delay=9, T=3000, washout=washout, seed=3)
        monkeypatch.setattr(readout, "_RUN_ROWS", 3000)
        whole = memory_capacity(res, 1.0, max_delay=9, T=3000, washout=washout, seed=3)
        assert chunked.per_delay == whole.per_delay

    def test_peak_memory_holds_only_the_fitted_states(self):
        # at the parent every state and linear state of the run was alive at once (2.05x)
        k, T, max_delay = 100, 20_000, 400
        res = _scaled(k, 0.95, seed=1)
        tracemalloc.start()
        try:
            memory_capacity(res, 1.0, max_delay, T, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ((T - max_delay) * k * 8) < 1.5

    def test_csv_format(self, tmp_path):
        res = _scaled(4, 0.9, seed=0)
        mc = memory_capacity(res, 1.0, max_delay=3, T=1500, seed=2)
        path = tmp_path / "mc.csv"
        write_mc_csv(path, mc)
        lines = path.read_text().splitlines()
        assert lines[0] == "delay,score"
        assert len(lines) == 5
        assert lines[-1].startswith("total,")
        assert float(lines[-1].split(",")[1]) == mc.mc_total
