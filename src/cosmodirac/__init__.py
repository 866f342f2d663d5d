"""Real-time dynamics of self-interacting Dirac fermions on an expanding
1+1D lattice: particle production, fermion condensates, entanglement
entropy and contour, quasi-particle predictions, and discrete-symmetry
diagnostics, all at the level of fermionic Gaussian states.
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    GAMMA0,
    GAMMA1,
    DeSitterProfile,
    DomainError,
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    StaticProfile,
    TabulatedProfile,
    band_velocity,
    dispersion,
    preparation_scale,
    group_velocity,
    hamiltonian_block,
)
from .gaussian import (  # noqa: F401
    CondensatePair,
    ConvergenceError,
    CorrelationState,
    DegenerateGroundStateError,
    StepSizeError,
    Trajectory,
    condensates,
    free_ground_state,
    mean_field_energy,
    propagate,
    real_space_correlation,
    self_consistent_ground_state,
    total_energy,
)
from .production import (  # noqa: F401
    ProductionSpectrum,
    bogoliubov_spectrum,
    mode_pair_entropy,
    spectrum_asymmetry,
)
from .entanglement import (  # noqa: F401
    BlockSpec,
    ContourField,
    InvalidStateError,
    block_entropy,
    cone_front,
    contour_trajectory,
    entanglement_contour,
    entropy_trajectory,
    front_slope,
)
from .quasiparticle import (  # noqa: F401
    NonEquilibratedWindowError,
    QPInput,
    condensate_persistence,
    dressed_reference,
    horizon_width,
    qp_contour,
    qp_entropy,
    qp_input_from_spectrum,
    qp_plateau,
    renormalized_velocity,
)
from .symmetry import (  # noqa: F401
    SymmetryReport,
    contour_cp_check,
    spectrum_symmetry_check,
    symmetry_report,
    time_reversal_condition_residual,
)
from .config import AnalysisSpec, ConfigError, RunConfig, load_config  # noqa: F401
from .pipeline import RunManifest, make_plots, run  # noqa: F401
