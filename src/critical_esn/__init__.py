"""Echo state networks operated exactly at the spectral boundary.

Library layout:

* :mod:`critical_esn.transfer`    - transfer functions and their unit-slope points
* :mod:`critical_esn.reservoir`   - weight construction and spectral checks
* :mod:`critical_esn.dynamics`    - inputs, trajectories, twin experiments
* :mod:`critical_esn.analysis`    - Lyapunov exponents, decay laws, critical coupling
* :mod:`critical_esn.contraction` - cover functions, covering sequences, bounds
* :mod:`critical_esn.readout`     - linear readout and memory capacity
* :mod:`critical_esn.cli`         - experiment harness (figure3, figure45, verify, ...)
"""

from .transfer import LINEAR, SINE_SIGMOID, TANH, TransferFunction
from .reservoir import (
    EscVerdict,
    Reservoir,
    SpectralSummary,
    check_esc,
    make_orthogonal_reservoir,
    scale_to_spectrum,
    spectral_summary,
)
from .dynamics import (
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
    perturbation_experiment,
    run,
    run_with_inputs,
)
from .analysis import (
    DecayFit,
    LyapunovResult,
    SweepPoint,
    find_critical_b,
    fit_decay,
    lyapunov_exponent,
    lyapunov_sweep,
)
from .contraction import (
    CoverParams,
    VerificationReport,
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
from .readout import McResult, ReadoutModel, fit_readout, memory_capacity, predict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
