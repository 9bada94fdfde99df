"""coupledwg: entanglement and decoherence dynamics of two coupled waveguide modes.

The package covers four solution routes for a pair of evanescently coupled
optical modes with balanced single-photon loss:

* exact lossless beam-splitter dynamics on a truncated Fock grid
  (:mod:`coupledwg.lossless`), with closed forms for NOON-state entropy and
  logarithmic negativity;
* geometric-weight mixtures of those sectors for thermal inputs
  (:mod:`coupledwg.thermal`);
* an exact product-kernel propagator for the damped coupler plus closed-form
  spectra and a purity formula (:mod:`coupledwg.damped`);
* covariance-matrix curves for Gaussian inputs squeezed along the coupler's
  normal modes (:mod:`coupledwg.gaussian`).

A brute-force RK4 master-equation integrator (:mod:`coupledwg.lindblad`)
validates all of the above, and :mod:`coupledwg.cli` emits canned
curve-family datasets and sweeps as CSV.
"""

from .errors import (
    CapacityError,
    CoupledwgError,
    IntegrationError,
    NumericalError,
    ToleranceExceeded,
    TruncationError,
    ValidationError,
)
from .fock import (
    MeasureValue,
    StateSpec,
    TwoModeDensityMatrix,
    TwoModePureState,
    entropy_bits,
    fock_state,
    log_negativity,
    make_pure_state,
    noon_state,
    partial_transpose,
    pure_log_negativity,
    purity,
    reduced_state,
    state_from_amplitudes,
    von_neumann_entropy,
)
from .lossless import (
    CouplerParams,
    entropy_closed,
    evolve_lossless,
    evolve_lossless_dm,
    lossless_unitary,
    noon_log_negativity,
    pt_spectrum_closed,
)
from .thermal import (
    ThermalOccupation,
    thermal_entropy,
    thermal_weight,
)
from .damped import (
    BogoliubovParams,
    DampedParams,
    DisentangleParams,
    bogoliubov_params,
    damped_entropy,
    damped_pt_spectrum,
    disentangle_params,
    evolve_damped_exact,
    loss_channel_factors,
    mode_rotation,
    purity_closed,
)
from .gaussian import (
    log_negativity_gaussian,
    simon_separable,
    symplectic_eigenvalues,
    thermal_evolved_covariance,
    tmsv_covariance,
    two_mode_squeezed_state,
    vacuum_covariance,
    vacuum_evolved_covariance,
)
from .lindblad import (
    DeviationReport,
    IntegratorConfig,
    Trajectory,
    compare,
    default_dt,
    integrate,
    liouvillian_apply,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovParams",
    "CapacityError",
    "CoupledwgError",
    "CouplerParams",
    "DampedParams",
    "DeviationReport",
    "DisentangleParams",
    "IntegrationError",
    "IntegratorConfig",
    "MeasureValue",
    "NumericalError",
    "StateSpec",
    "ThermalOccupation",
    "ToleranceExceeded",
    "Trajectory",
    "TruncationError",
    "TwoModeDensityMatrix",
    "TwoModePureState",
    "ValidationError",
    "bogoliubov_params",
    "compare",
    "damped_entropy",
    "damped_pt_spectrum",
    "default_dt",
    "disentangle_params",
    "entropy_bits",
    "entropy_closed",
    "evolve_damped_exact",
    "evolve_lossless",
    "evolve_lossless_dm",
    "fock_state",
    "integrate",
    "liouvillian_apply",
    "log_negativity",
    "log_negativity_gaussian",
    "loss_channel_factors",
    "lossless_unitary",
    "make_pure_state",
    "mode_rotation",
    "noon_log_negativity",
    "noon_state",
    "partial_transpose",
    "pt_spectrum_closed",
    "pure_log_negativity",
    "purity",
    "purity_closed",
    "reduced_state",
    "simon_separable",
    "state_from_amplitudes",
    "symplectic_eigenvalues",
    "thermal_entropy",
    "thermal_evolved_covariance",
    "thermal_weight",
    "tmsv_covariance",
    "trace_distance",
    "two_mode_squeezed_state",
    "vacuum_covariance",
    "vacuum_evolved_covariance",
    "von_neumann_entropy",
]
