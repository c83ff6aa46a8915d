"""Cover function, covering sequence, contraction bounds, and step audits."""

import math
import re

import numpy as np
import pytest

from critical_esn.contraction import (
    PASS_SLACK,
    CoverParams,
    _grid,
    audit_step_inequality,
    check_phi_properties,
    omega,
    phi,
    phi_k,
    phi_tangent,
    q_star,
    tau_bound,
    verify_cover_inequality,
    verify_dominance,
)
from critical_esn.dynamics import Alternating, Constant, IidSign, convergence_trace
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH
from oracles import iterate_q

A = math.pi / 4


class TestCoverParams:
    def test_defaults_are_single_neuron_certificate(self):
        p = CoverParams()
        assert (p.eta, p.gamma, p.kappa) == (1 / 48, 0.5, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverParams(eta=0.0)
        with pytest.raises(ValueError):
            CoverParams(gamma=1.0)
        with pytest.raises(ValueError):
            CoverParams(kappa=0.5)


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

    def test_phi_k_needs_a_neuron(self):
        with pytest.raises(ValueError, match="need n_neurons >= 1"):
            phi_k(0.5, 0)

    def test_shape_facts_hold_for_certificate(self):
        rep = check_phi_properties()
        assert rep.passed and rep.status == "proved" and rep.n_checked == 1 and rep.worst_point == (0.5,)
        assert rep.worst_margin == 1.0 - 3.0 * 0.25 / 48.0  # 1 - eta (kappa + 1) gamma^kappa

    def test_shape_facts_fail_without_clamp_room(self):
        # large eta makes z * phi(z) decrease before the clamp kicks in
        rep = check_phi_properties(CoverParams(eta=0.9, gamma=0.99, kappa=2.0))
        assert not rep.passed

    def test_shape_facts_catch_a_thin_violation(self):
        # eta (kappa + 1) gamma^kappa = 1.001: z phi(z) dips too little, too close to gamma, for a grid to see
        rep = check_phi_properties(CoverParams(eta=1.001 / 1.92, gamma=0.8, kappa=2.0))
        assert not rep.passed and rep.worst_margin == pytest.approx(-1e-3)
        assert check_phi_properties(CoverParams(eta=1.0 / 1.92, gamma=0.8, kappa=2.0)).passed  # the boundary case

    @pytest.mark.parametrize(
        "eta, gamma, kappa",
        [(0.9, 0.99, 2.0), (0.6, 0.9, 1.0), (0.5, 0.9, 1.0), (0.2, 0.95, 5.0), (0.99, 0.5, 1.5), (1.0 / 48.0, 0.5, 2.0)],
    )
    def test_closed_form_agrees_with_a_fine_grid(self, eta, gamma, kappa):
        p = CoverParams(eta=eta, gamma=gamma, kappa=kappa)
        zs = np.linspace(0.0, 2.0, 200_001)
        ph = phi(zs, p)
        assert ph.max() <= 1.0 and np.all(np.diff(ph) <= 0.0)
        assert check_phi_properties(p).passed == bool(np.all(np.diff(zs * ph) >= 0.0))


class TestOmega:
    def test_matches_direct_evaluation(self):
        assert omega(TANH, 1.0, -0.5) == pytest.approx((2.0 * math.tanh(0.5)) ** 2, abs=1e-15)

    def test_centered_beats_origin_for_tanh(self):
        assert omega(TANH, 1.0, 0.0) < omega(TANH, 1.0, -0.5)

    def test_identity_transfer_never_contracts(self):
        for d, z in ((0.5, 0.0), (1.0, -2.0), (3.0, 1.5)):
            assert omega(LINEAR, d, z) == pytest.approx(1.0, abs=1e-12)

    # The worst base point of a perturbation of size delta centres
    # [zeta, zeta + delta] on a unit-slope point; located on a fine zeta grid.
    ZETAS = np.linspace(-4.0, 4.0, 80_001)  # step 1e-4

    def test_argmax_at_midpoint_for_tanh(self):
        z_star = self.ZETAS[np.argmax(omega(TANH, 1.0, self.ZETAS))]
        assert z_star == pytest.approx(-0.5, abs=1e-4)

    def test_argmax_centers_on_unit_slope_point_for_sine_sigmoid(self):
        delta = 0.5
        z_star = self.ZETAS[np.argmax(omega(SINE_SIGMOID, delta, self.ZETAS))]
        # the unit-slope points of the sine sigmoid are (n + 1/2) pi
        centre = z_star + delta / 2
        assert abs(centre - (math.floor(centre / math.pi) + 0.5) * math.pi) <= 1e-4

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            omega(TANH, 0.0, 0.0)


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

    @pytest.mark.parametrize(
        "delta_grid, zeta_grid",
        [((0.0, 4.0, 1e-2), (-4.0, 4.0, 1e-2)), ((0.0, 0.5, 0.1), (-4.0, 4.0, 4e-4))],
        ids=["many_rows_per_block", "one_row_per_block"],
    )
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR], ids=lambda tf: tf.kind)
    @pytest.mark.parametrize("cover", [phi, phi_tangent], ids=lambda cover: cover.__name__)
    def test_blocked_check_matches_a_per_delta_loop(self, cover, tf, delta_grid, zeta_grid):
        zetas = _grid(*zeta_grid)
        margins, points = [], []
        for d in _grid(*delta_grid)[1:]:
            w = omega(tf, d, zetas)
            j = int(np.argmax(w))
            margins.append(cover(d * d) - w[j])
            points.append((d, zetas[j]))
        rep = verify_cover_inequality(tf, delta_grid=delta_grid, zeta_grid=zeta_grid, cover=cover)
        i = int(np.argmin(margins))
        assert (rep.worst_margin, rep.worst_point) == (margins[i], points[i])

    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID, LINEAR], ids=lambda tf: tf.kind)
    def test_grids_past_half_the_float_range_raise_before_any_evaluation(self, tf):
        # the sine sigmoid's theta(x) is NaN for |x| > max float / 2 ~ 8.99e307
        rep = verify_cover_inequality(tf, delta_grid=(0.0, 8e307, 1e307), zeta_grid=(-4.0, 4.0, 1.0))
        assert math.isfinite(rep.worst_margin)
        with pytest.raises(ValueError, match=r"zeta in \[-4.0,4.0\] step 1.0: \|delta\| \+ \|zeta\| reaches 9e\+307, past"):
            verify_cover_inequality(tf, delta_grid=(0.0, 9e307, 1e307), zeta_grid=(-4.0, 4.0, 1.0))

    def test_report_invariant(self):
        for rep in (verify_cover_inequality(TANH), verify_cover_inequality(LINEAR)):
            assert rep.passed == (rep.worst_margin >= -1e-12)

    def test_zero_points_raise_naming_the_grid(self):
        with pytest.raises(ValueError, match=re.escape("no points to check: delta in (0.0,0.0]")):
            verify_cover_inequality(TANH, delta_grid=(0.0, 0.0, 1.0))

    def test_tangent_cover_uses_given_cover_params(self):
        greedy = CoverParams(eta=0.9, gamma=0.99)
        assert verify_cover_inequality(TANH, cover=phi_tangent).passed
        assert not verify_cover_inequality(TANH, greedy, cover=phi_tangent).passed


# The paper's cover parameters and the kappa = 1 certificates, which bound the distance by t^(-1/2).
_PARAMS = [CoverParams(), CoverParams(eta=0.1, kappa=1.0), CoverParams(eta=0.15, kappa=1.0)]
_PARAM_IDS = ["paper", "kappa1_eta0.1", "kappa1_eta0.15"]


class TestTangentCover:
    @pytest.mark.parametrize("p", _PARAMS[:2], ids=_PARAM_IDS[:2])
    def test_equals_phi_below_gamma_and_lies_below_it_past_gamma(self, p):
        zs = np.linspace(0.0, 4.0, 40_001)
        below = zs < p.gamma
        assert phi_tangent(zs, p)[below].tobytes() == phi(zs, p)[below].tobytes()
        assert np.all(phi_tangent(zs[~below], p) <= phi(zs[~below], p))
        assert phi_tangent(0.3, p) == phi(0.3, p) and phi_tangent(3.0, p) < phi(3.0, p)

    @pytest.mark.parametrize("p", _PARAMS[:2], ids=_PARAM_IDS[:2])
    def test_z_times_tangent_cover_is_concave_where_z_phi_is_not(self, p):
        zs = np.linspace(0.0, 4.0, 40_001)
        # second differences of a linear piece are rounding noise of order 1e-16
        assert np.all(np.diff(zs * phi_tangent(zs, p), 2) <= PASS_SLACK)
        assert np.max(np.diff(zs * phi(zs, p), 2)) > 1e-7  # the clamp makes z phi(z) bend up at gamma

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            phi_tangent(-0.1)

    def test_termwise_cover_fails_where_the_tangent_cover_holds(self):
        # x / k^2 = gamma, so phi_k clamps, while the neuron with z_i < gamma contracts less than the clamp
        z = np.array([1.71, 0.29])
        x = float(z.sum())
        assert np.sum(z * phi(z)) - x * phi_k(x, 2) == pytest.approx(1.0e-3, rel=1e-2)
        assert np.sum(z * phi_tangent(z)) <= x * phi(x / 2)

    @pytest.mark.parametrize("p", _PARAMS, ids=_PARAM_IDS)
    @pytest.mark.parametrize("tf", [TANH, SINE_SIGMOID], ids=lambda tf: tf.kind)
    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_one_scalar_inequality_covers_k_neurons(self, k, tf, p):
        # Seeded perturbations Delta of every reachable size, |Delta_i| <= 2 sqrt(k), at base points zeta.
        rng = np.random.default_rng(k)
        deltas = rng.uniform(-2.0 * math.sqrt(k), 2.0 * math.sqrt(k), (2000, k))
        zetas = rng.uniform(-4.0, 4.0, (2000, k))
        after = tf(zetas + deltas) - tf(zetas)
        lhs = np.sum(after * after, axis=1)
        z = deltas * deltas
        x = z.sum(axis=1)
        # g: z phi(z) below gamma, its tangent line at gamma past it
        slope = 1.0 - (p.kappa + 1.0) * p.eta * p.gamma**p.kappa
        g = np.where(z < p.gamma, z - p.eta * z ** (p.kappa + 1.0), p.gamma - p.eta * p.gamma ** (p.kappa + 1.0) + slope * (z - p.gamma))
        np.testing.assert_allclose(z * phi_tangent(z, p), g, rtol=1e-14, atol=1e-15)
        assert np.min(np.sum(g, axis=1) - lhs) >= -PASS_SLACK  # the scalar inequality, neuron by neuron
        assert np.min(x * phi(x / k, p) - lhs) >= -PASS_SLACK  # its consequence by Jensen, so phi_k's too


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
        rep = verify_dominance(0.5, CoverParams(eta=1 / 768), T=10_000)  # eta = 1/(48 k^2), k = 4
        assert rep.passed

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
    def test_proved_with_zero_gap_at_start(self, kappa):
        for eta in (1 / 48, 1 / 768, 0.9):
            for q0 in (0.1, 0.5, 1.0):
                rep = verify_dominance(q0, CoverParams(eta=eta, kappa=kappa), T=1000)
                assert rep.status == "proved" and rep.passed
                assert (rep.worst_margin, rep.worst_point, rep.n_checked) == (0.0, (0,), 1001)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
    def test_float_recursion_stays_below_the_bernoulli_bound(self, kappa):
        # the bound B(t) <= q_star(t) that verify_dominance proves, against the recursion
        ts = np.arange(10_001)
        for eta in (1 / 48, 1 / 768, 0.9):
            for q0 in (0.1, 0.5, 1.0):
                bound = (kappa * eta * ts + q0**-kappa) ** (-1.0 / kappa)
                qs = iterate_q(q0, CoverParams(eta=eta, kappa=kappa), T=10_000)
                assert np.all(qs <= bound + 4 * np.spacing(bound)), (eta, q0)

    def test_rejects_what_the_recursion_rejects(self):
        with pytest.raises(ValueError, match=r"need q0 in \(0, 1\]"):
            verify_dominance(1.5)
        with pytest.raises(ValueError, match=r"need q0 in \(0, 1\]"):
            verify_dominance(0.0)
        with pytest.raises(ValueError, match="need T >= 1"):
            verify_dominance(0.5, T=0)

    @pytest.mark.parametrize("q0, kappa", [(0.1, 1e308), (1e-308, 2.0)])
    def test_overflowing_start_names_q0_and_kappa(self, q0, kappa):
        # q0^(-kappa) past the float range, where Python's ** raises OverflowError
        message = re.escape(f"q0^(-kappa) overflows a float at q0={q0!r}, kappa={kappa!r}")
        with pytest.raises(ValueError, match=message):
            verify_dominance(q0, CoverParams(kappa=kappa), T=10)
        with pytest.raises(ValueError, match=message):
            q_star(1.0, q0, CoverParams(kappa=kappa))


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
        with pytest.raises(ValueError, match="need epsilon < d0"):
            tau_bound(2.0, 2.0, "critical_far")

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

    def test_uses_given_cover_params(self):
        # k = 1 tanh twin run: eta = 1/48 covers every step, eta = 0.5 does not
        res = make_orthogonal_reservoir(1, 1, 0.5, 3)
        args = (res, IidSign(A, 3), [1.0], [-1.0], 200)
        assert audit_step_inequality(*args).passed
        rep = audit_step_inequality(*args, p=CoverParams(eta=0.5))
        assert not rep.passed and rep.worst_margin < -0.01

    def test_identity_transfer_breaks_cover(self):
        res = Reservoir(W=[[1.0]], w_in=[[1.0]], tf=LINEAR)
        rep = audit_step_inequality(res, Alternating(A), [0.3], [0.1], T=100)
        assert not rep.passed
