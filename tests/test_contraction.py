"""Cover function, covering sequence, contraction bounds, and step audits."""

import math

import numpy as np
import pytest

from critical_esn.contraction import (
    CoverParams,
    audit_step_inequality,
    check_phi_properties,
    iterate_q,
    omega,
    omega_max_zeta,
    phi,
    phi_k,
    q_star,
    tau_bound,
    verify_cover_inequality,
    verify_cover_inequality_vec,
    verify_dominance,
)
from critical_esn.dynamics import Alternating, Constant, IidSign, convergence_trace
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH

A = math.pi / 4


class TestCoverParams:
    def test_defaults_are_single_neuron_certificate(self):
        p = CoverParams()
        assert (p.eta, p.gamma, p.kappa) == (1 / 48, 0.5, 2.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_for_network_scales_eta(self, n):
        p = CoverParams.for_network(n)
        assert p.eta == 1.0 / (48.0 * n * n)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverParams(eta=0.0)
        with pytest.raises(ValueError):
            CoverParams(gamma=1.0)
        with pytest.raises(ValueError):
            CoverParams(kappa=0.5)
        with pytest.raises(ValueError):
            CoverParams.for_network(0)


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0) == 1.0

    def test_at_branch_point(self):
        # 1 - (1/48) * 0.25 = 191/192, continuous across the branch
        assert phi(0.5) == pytest.approx(191.0 / 192.0, abs=1e-15)

    def test_clamped_branch(self):
        assert phi(2.0) == phi(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            phi(-0.1)

    def test_array_input(self):
        zs = np.array([0.0, 0.25, 0.5, 3.0])
        vals = phi(zs)
        assert vals.shape == zs.shape
        assert vals[0] == 1.0 and vals[2] == vals[3]

    def test_phi_k_is_argument_rescaling(self):
        zs = np.linspace(0.0, 8.0, 101)
        np.testing.assert_array_equal(phi_k(zs, 4), phi(zs / 16.0))

    def test_shape_facts_hold_for_certificate(self):
        rep = check_phi_properties()
        assert rep.passed and rep.worst_margin >= 0.0

    def test_shape_facts_fail_without_clamp_room(self):
        # large eta makes z * phi(z) decrease before the clamp kicks in
        rep = check_phi_properties(CoverParams(eta=0.9, gamma=0.99, kappa=2.0))
        assert not rep.passed


class TestOmega:
    def test_matches_direct_evaluation(self):
        assert omega(TANH, 1.0, -0.5) == pytest.approx((2.0 * math.tanh(0.5)) ** 2, abs=1e-15)

    def test_centered_beats_origin_for_tanh(self):
        assert omega(TANH, 1.0, 0.0) < omega(TANH, 1.0, -0.5)

    def test_identity_transfer_never_contracts(self):
        for d, z in ((0.5, 0.0), (1.0, -2.0), (3.0, 1.5)):
            assert omega(LINEAR, d, z) == pytest.approx(1.0, abs=1e-12)

    def test_argmax_at_midpoint_for_tanh(self):
        val, z_star = omega_max_zeta(TANH, 1.0)
        assert z_star == pytest.approx(-0.5, abs=1e-6)
        assert val == pytest.approx(omega(TANH, 1.0, -0.5), abs=1e-12)

    def test_argmax_centers_on_unit_slope_point_for_sine_sigmoid (self):
        delta = 0.5
        val, z_star = omega_max_zeta(SINE_SIGMOID, delta)
        # maxima sit where [zeta, zeta+delta] brackets a unit-slope point
        assert abs(z_star + delta / 2) % (math.pi / 2) == pytest.approx(0.0, abs=1e-6) or (
            math.pi / 2 - abs(z_star + delta / 2) % (math.pi / 2)
        ) <= 1e-6
        assert val == pytest.approx(omega(SINE_SIGMOID, delta, z_star), abs=1e-15)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            omega(TANH, 0.0, 0.0)
        with pytest.raises(ValueError):
            omega_max_zeta(TANH, -1.0)


class TestCoverInequality:
    def test_tanh_certificate_holds(self):
        rep = verify_cover_inequality(TANH)
        assert rep.passed and rep.worst_margin >= 0.0
        assert rep.n_checked == 400 * 801  # every (delta > 0, zeta) grid point

    def test_sine_sigmoid_certificate_holds(self):
        rep = verify_cover_inequality(SINE_SIGMOID)
        assert rep.passed and rep.worst_margin >= 0.0

    def test_identity_transfer_fails(self):
        rep = verify_cover_inequality(LINEAR)
        assert not rep.passed and rep.worst_margin < -1e-3

    def test_overgreedy_eta_fails(self):
        rep = verify_cover_inequality(TANH, CoverParams(eta=0.5))
        assert not rep.passed

    def test_report_invariant(self):
        for rep in (verify_cover_inequality(TANH), verify_cover_inequality(LINEAR)):
            assert rep.passed == (rep.worst_margin >= -1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID])
    def test_vector_form_holds(self, tf, n):
        rep = verify_cover_inequality_vec(tf, n, n_samples=20000, seed=1)
        assert rep.passed and rep.worst_margin >= 0.0


class TestIterateQ:
    def test_first_step_value(self):
        seq = iterate_q(0.5, T=2)
        assert seq[1] == pytest.approx(0.5 * (1.0 - 1.0 / 192.0), abs=1e-16)
        assert seq.shape == (3,)

    def test_zero_is_fixed(self):
        np.testing.assert_array_equal(iterate_q(0.0, T=5), np.zeros(6))

    def test_strictly_decreasing_and_positive(self):
        seq = iterate_q(1.0, T=1000)
        assert np.all(seq > 0)
        assert np.all(np.diff(seq) < 0)

    def test_long_run_tracks_closed_form_within_factor_two(self):
        p = CoverParams()
        seq = iterate_q(0.5, p, T=1_000_000)
        ratio = q_star(1_000_000, 0.5, p) / seq[-1]
        assert 1.0 <= ratio <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            iterate_q(1.5)
        with pytest.raises(ValueError):
            iterate_q(-0.1)
        with pytest.raises(ValueError):
            iterate_q(0.5, T=0)


class TestQStar:
    def test_time_zero_is_exact(self):
        assert q_star(0, 0.5) == 0.5
        assert q_star(0.0, 0.37) == 0.37

    def test_known_value(self):
        # (1/96)*96 + 0.5^-2 = 5, so the value is 5^(-1/2)
        assert q_star(96, 0.5) == pytest.approx(5.0**-0.5, abs=1e-15)

    def test_vanishes_at_infinity(self):
        assert q_star(1e18, 0.5) < 1e-8
        vals = q_star(np.logspace(2, 9, 8), 0.5)
        assert np.all(np.diff(vals) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            q_star(1.0, 0.0)
        with pytest.raises(ValueError):
            q_star(-1.0, 0.5)


class TestDominance:
    def test_certificate_holds_for_unit_start(self):
        rep = verify_dominance(1.0, T=1000)
        assert rep.passed and rep.worst_margin >= -1e-12

    def test_base_case(self):
        p = CoverParams()
        assert q_star(1, 0.5, p) >= iterate_q(0.5, p, T=1)[1]

    def test_gap_is_tightest_at_start(self):
        rep = verify_dominance(0.5, T=10_000)
        assert rep.worst_point == (0,)
        assert rep.worst_margin == 0.0

    def test_holds_for_scaled_network_parameters(self):
        rep = verify_dominance(0.5, CoverParams.for_network(4), T=10_000)
        assert rep.passed


class TestTauBound:
    def test_subcritical_value(self):
        assert tau_bound(0.01, 1.0, "subcritical", S=0.5) == pytest.approx(
            math.log(0.01) / math.log(0.5), abs=1e-12
        )

    def test_near_phase_scale_factor(self):
        # kappa/eta with the one-neuron certificate is 96
        p = CoverParams()
        assert p.kappa / p.eta == 96.0
        got = tau_bound(0.1, 1.0, "critical_near", p)
        assert got == pytest.approx(96.0 * (0.1**-4 - 1.0), rel=1e-12)

    def test_near_phase_nothing_to_contract(self):
        assert tau_bound(0.5, 0.5, "critical_near") == 0.0
        assert tau_bound(0.6, 0.5, "critical_near") == 0.0

    def test_far_phase_positive(self):
        assert tau_bound(0.8, 2.0, "critical_far") > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tau_bound(1.0, 0.5, "subcritical", S=0.9)
        with pytest.raises(ValueError):
            tau_bound(0.1, 1.0, "subcritical", S=1.0)
        with pytest.raises(ValueError):
            tau_bound(0.8, 1.0, "critical_near")  # eps^2 >= gamma
        with pytest.raises(ValueError):
            tau_bound(0.1, 1.0, "overdamped")
        with pytest.raises(ValueError):
            tau_bound(-0.1, 1.0, "critical_far")

    def test_measured_near_phase_never_exceeds_bound(self):
        res = Reservoir(W=[[1.0]], w_in=[[1.0]], tf=TANH)
        tr = convergence_trace(res, Constant(0.0), [0.3], [0.1], T=2000)
        eps = 0.15
        bound = tau_bound(eps, tr.q[0], "critical_near")
        measured = int(np.argmax(tr.q <= eps))
        assert measured <= bound

    def test_measured_far_phase_never_exceeds_bound(self):
        base = make_orthogonal_reservoir(4, 1, 0.5, seed=9)
        rng = np.random.default_rng(2)
        x0, y0 = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
        tr = convergence_trace(base, Constant(0.0), x0, y0, T=2000)
        eps = math.sqrt(0.51)
        bound = tau_bound(eps, tr.q[0], "critical_far")
        measured = int(np.argmax(tr.q <= eps))
        assert measured <= bound


class TestStepAudit:
    def test_boundary_reservoir_respects_cover(self):
        rng = np.random.default_rng(5)
        for tf in (TANH, SINE_SIGMOID):
            for k in (1, 4):
                base = make_orthogonal_reservoir(k, 1, 0.5, seed=int(rng.integers(1 << 30)))
                res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
                rep = audit_step_inequality(
                    res, IidSign(A, 3), rng.uniform(-1, 1, k), rng.uniform(-1, 1, k), T=300
                )
                assert rep.passed, rep

    def test_identity_transfer_breaks_cover(self):
        res = Reservoir(W=[[1.0]], w_in=[[1.0]], tf=LINEAR)
        rep = audit_step_inequality(res, Alternating(A), [0.3], [0.1], T=100)
        assert not rep.passed
