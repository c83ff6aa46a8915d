"""Acceptance suite: the headline claims, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Each criterion prints its verdict before asserting, so a
red run still reports every line.
"""

import math
import time

import numpy as np

from critical_esn.analysis import find_critical_b, fit_decay, lyapunov_sweep
from critical_esn.contraction import (
    CoverParams,
    audit_step_inequality,
    q_star,
    tau_bound,
    verify_cover_inequality,
    verify_dominance,
)
from critical_esn.dynamics import (
    Alternating,
    Constant,
    IidSign,
    alternating_orbit,
    convergence_trace,
    make_alternating_neuron,
    perturbation_experiment,
)
from critical_esn.readout import memory_capacity
from critical_esn.reservoir import Reservoir, make_orthogonal_reservoir, scale_to_spectrum
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH
from oracles import iterate_q

A = math.pi / 4


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_lyapunov_zero_crossing():
    """Exponent of the alternating family changes sign in (0.95, 1.05)."""
    t0 = time.monotonic()
    pts = lyapunov_sweep(
        make_alternating_neuron,
        Alternating(A),
        [0.95, 1.0, 1.05],
        reference_orbit=alternating_orbit(A),
    )
    elapsed = time.monotonic() - t0
    lam = {p.b: p.exponent for p in pts}
    ok = lam[0.95] < 0.0 < lam[1.05] and abs(lam[1.0]) <= 2e-3 and elapsed <= 10.0
    _verdict(
        1,
        ok,
        f"lam(0.95)={lam[0.95]:.4g}, lam(1.0)={lam[1.0]:.2e} (|.|<=2e-3), "
        f"lam(1.05)={lam[1.05]:.4g}, runtime {elapsed:.2f}s <= 10s",
    )


def test_criterion_2_power_law_persistence():
    """Alternating drive retains a perturbation as a power-law tail."""
    res = make_alternating_neuron(1.0)
    trace = perturbation_experiment(res, Alternating(A), perturb_at=1, delta_u=0.01, T=10_001)
    fit = fit_decay(trace, t_start=10)
    ok = trace.q[64] > 0.0 and fit.law == "power_law" and fit.r2_loglog >= 0.98
    _verdict(
        2,
        ok,
        f"q[64]={trace.q[64]:.3e} > 0, law={fit.law}, r2_loglog={fit.r2_loglog:.4f} >= 0.98",
    )


def test_criterion_3_fast_forgetting_under_iid_input():
    """I.i.d. drive erases the perturbation within 64+5 steps (<=2 stragglers at 80)."""
    res = make_alternating_neuron(1.0)
    elapsed_steps = []
    for seed in range(20):
        trace = perturbation_experiment(res, IidSign(A, seed), perturb_at=1, delta_u=0.01, T=200)
        hit = trace.floor_hit_at
        elapsed_steps.append(math.inf if hit is None else hit - 1)
    stragglers = [t for t in elapsed_steps if t > 69]
    ok = len(stragglers) <= 2 and all(t <= 80 for t in elapsed_steps)
    _verdict(
        3,
        ok,
        f"20 seeds, floor after {min(elapsed_steps):.0f}..{max(elapsed_steps):.0f} steps, "
        f"{len(stragglers)} beyond 69 (allowed 2), all <= 80",
    )


def test_criterion_4_critical_coupling_reproduction():
    """Tangency solver reproduces b* = 2.344 and orbit amplitude 0.757."""
    t0 = time.monotonic()
    b_star, amp = find_critical_b(TANH, A, (1.5, 3.0))
    elapsed = time.monotonic() - t0
    ok = abs(b_star - 2.344) <= 1e-3 and abs(amp - 0.757) <= 1e-3 and elapsed <= 1.0
    _verdict(
        4,
        ok,
        f"b*={b_star:.6f} (2.344 +/- 1e-3), |x*|={amp:.6f} (0.757 +/- 1e-3), "
        f"runtime {elapsed:.3f}s <= 1s",
    )


def test_criterion_5_cover_inequality_certificate():
    """Cover certificate holds for both bounded transfers, fails for identity."""
    grids = dict(delta_grid=(0.0, 4.0, 1e-2), zeta_grid=(-4.0, 4.0, 1e-2))
    p = CoverParams()  # eta = 1/(48 n^2) with n = 1, gamma = 1/2, kappa = 2
    rep_tanh = verify_cover_inequality(TANH, p, **grids)
    rep_sine = verify_cover_inequality(SINE_SIGMOID, p, **grids)
    rep_lin = verify_cover_inequality(LINEAR, p, **grids)
    ok = (
        rep_tanh.passed
        and rep_tanh.worst_margin >= 0.0
        and rep_sine.passed
        and rep_sine.worst_margin >= 0.0
        and not rep_lin.passed
    )
    _verdict(
        5,
        ok,
        f"tanh margin {rep_tanh.worst_margin:.3e} >= 0, "
        f"sine margin {rep_sine.worst_margin:.3e} >= 0, identity fails "
        f"({rep_lin.worst_margin:.3e})",
    )


def test_criterion_6_dominance_certificate():
    """Closed-form covering sequence dominates the recursion: proved, and checked for 1e5 steps."""
    gaps = {}
    ok = True
    ts = np.arange(100_001)
    for q0 in (0.1, 0.5, 1.0):
        rep = verify_dominance(q0, CoverParams(), T=100_000)
        gaps[q0] = rep.worst_margin
        ok = ok and rep.passed and rep.worst_margin >= -1e-12 and rep.status == "proved"
        ok = ok and bool(np.all(iterate_q(q0, CoverParams(), 100_000) <= q_star(ts, q0, CoverParams())))
    _verdict(6, ok, "min gaps " + ", ".join(f"q0={q}: {g:.2e}" for q, g in gaps.items()))


def test_criterion_7_per_step_contraction_audit():
    """q^2 step inequality holds on 100 seeded boundary-spectrum twin runs."""
    rng = np.random.default_rng(20260810)
    cases = [(k, tf) for k in (1, 4, 16) for tf in (TANH, SINE_SIGMOID)]
    runs_per_case = [17, 17, 17, 17, 16, 16]  # 100 runs total
    worst = math.inf
    n_runs = 0
    ok = True
    for (k, tf), n_case in zip(cases, runs_per_case):
        for j in range(n_case):
            seed = int(rng.integers(0, 2**31))
            base = make_orthogonal_reservoir(k, 1, 0.5, seed)
            res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
            spec = [Alternating(A), IidSign(A, seed), Constant(0.3 * A)][j % 3]
            x0 = rng.uniform(-1.0, 1.0, k)
            y0 = rng.uniform(-1.0, 1.0, k)
            rep = audit_step_inequality(res, spec, x0, y0, T=200)
            worst = min(worst, rep.worst_margin)
            ok = ok and rep.worst_margin >= -1e-12
            n_runs += 1
    _verdict(7, ok and n_runs == 100, f"{n_runs} runs, worst step margin {worst:.2e} >= -1e-12")


def test_criterion_8_subcritical_exponential_envelope():
    """At S = 0.9 the twin distance sits under 0.9^t and under the time bound."""
    ok = True
    details = []
    for seed in range(5):
        base = make_orthogonal_reservoir(6, 1, 0.5, seed)
        res = Reservoir(W=scale_to_spectrum(base.W, 0.9), w_in=base.w_in, tf=TANH)
        rng = np.random.default_rng(100 + seed)
        x0, y0 = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
        trace = convergence_trace(res, IidSign(A, seed), x0, y0, T=500)
        envelope = trace.q[0] * 0.9 ** np.arange(500) * (1.0 + 1e-9)
        eps = 1e-6
        bound = tau_bound(eps, trace.q[0], "subcritical", S=0.9)
        measured = int(np.argmax(trace.q <= eps))
        ok = ok and bool(np.all(trace.q <= envelope)) and measured <= bound
        details.append(f"seed {seed}: tau {measured} <= {bound:.1f}")
    _verdict(8, ok, "envelope respected; " + "; ".join(details))


def test_criterion_9_memory_capacity_ceiling():
    """Measured memory capacity never exceeds the neuron count (+0.5 noise)."""
    t0 = time.monotonic()
    totals = {}
    ok = True
    for k in (4, 8, 16):
        base = make_orthogonal_reservoir(k, 1, 0.5, seed=42)
        res = Reservoir(W=scale_to_spectrum(base.W, 0.99), w_in=base.w_in, tf=TANH)
        mc = memory_capacity(res, 1.0, max_delay=2 * k, T=4000, washout=200, ridge=1e-8, seed=1)
        totals[k] = mc.mc_total
        ok = ok and mc.mc_total <= k + 0.5
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    _verdict(
        9,
        ok,
        ", ".join(f"k={k}: mc={v:.3f} <= {k}.5" for k, v in totals.items())
        + f"; sweep {elapsed:.2f}s <= 60s",
    )
