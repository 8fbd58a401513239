"""Quantum semi-Markov dynamics and non-Markovianity measures.

Construct renewal (semi-Markov) quantum processes from waiting-time
distributions, build their dynamical maps in closed form, and quantify
their departure from semigroup dynamics:

- ``semimarkov``: waiting-time distributions, the dephasing and non-unital
  qubit families, coherence factors q(t) and canonical rates gamma(t),
  dynamical maps as superoperators and Kraus sets, memory kernels, and a
  classical Monte Carlo renewal simulator.
- ``quantum``: states, superoperator-to-Choi and Choi-to-Kraus conversions,
  CPTP checks, intermediate maps, and generator snapshots.
- ``measures``: the deviation-from-semigroup measure xi from one function,
  ``sss_measure`` (exact rate and Choi-quadrature routes, fixed and
  minimized references), zeta = xi/(1+xi), trace-distance revivals,
  CP-divisibility scans with a boundary bisection, and Holevo information
  curves.
- ``numerics``: Hermitian eigensolves, trace norms, entropies, adaptive
  quadrature with singularity excision, and a Volterra integro-differential
  solver.
- ``emitters`` / ``cli``: CSV/JSON/SVG serialization behind the ``qsm``
  command-line tool.

All randomness is counter-based and seeded explicitly; all evaluation
functions are pure, so output is deterministic.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    GridError,
    InvalidState,
    NoConvergence,
    NonHermitianInput,
    NoSignChange,
    NumericalError,
    QsmError,
    SingularMap,
    Singularity,
    ToleranceNotMet,
    UnsupportedVariant,
)
from .numerics import (
    QuadratureResult,
    Spectrum,
    VolterraSolution,
    adaptive_quad,
    binary_entropy,
    hermitian_eig,
    solve_volterra,
    trace_norm,
    von_neumann_entropy,
)
from .quantum import (
    CPTPReport,
    DephasingGenerator,
    ProjectorGenerator,
    apply_superop,
    check_density_matrix,
    choi_of_generator,
    choi_of_superop,
    intermediate_map,
    is_cptp,
    kraus_from_choi,
    weyl_z,
)
from .semimarkov import (
    ClassicalSimResult,
    DeltaKernel,
    DephasingSemiMarkov,
    ExpConvolutionWTD,
    ExponentialKernel,
    ExponentialWTD,
    NonUnitalSemiMarkov,
    REGIME_DIVISIBLE,
    REGIME_INDIVISIBLE,
    REGIME_SEMIGROUP,
    TanhSechWTD,
    classical_jump_simulate,
    coherence_zeros,
    eta,
    gamma_dephasing,
    gamma_nonunital,
    jump_superop,
    kernel_closed_form,
    map_at,
    q_of_t,
    superop_at,
)
from .measures import (
    BLPResult,
    BoundaryEstimate,
    DivisibilityReport,
    MINUS_STATE,
    MeasureResult,
    PLUS_STATE,
    SSSConfig,
    blp_measure,
    cp_divisibility_scan,
    divisibility_boundary,
    holevo_curve,
    sss_measure,
)
from .emitters import JSON_SCHEMA, ResultTable, to_csv, to_json, to_svg

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QsmError", "ConfigError", "UnsupportedVariant", "NumericalError",
    "NonHermitianInput", "NoConvergence", "InvalidState", "DomainError",
    "ToleranceNotMet", "GridError", "NoSignChange", "DimensionMismatch",
    "SingularMap", "Singularity",
    # numerics
    "Spectrum", "QuadratureResult", "VolterraSolution", "hermitian_eig",
    "trace_norm", "von_neumann_entropy", "binary_entropy", "adaptive_quad",
    "solve_volterra",
    # quantum
    "weyl_z", "check_density_matrix", "apply_superop", "choi_of_superop",
    "kraus_from_choi", "CPTPReport", "is_cptp", "intermediate_map",
    "DephasingGenerator", "ProjectorGenerator", "choi_of_generator",
    # semimarkov
    "ExponentialWTD", "ExpConvolutionWTD", "TanhSechWTD", "DeltaKernel",
    "ExponentialKernel", "kernel_closed_form", "eta", "REGIME_SEMIGROUP",
    "REGIME_DIVISIBLE", "REGIME_INDIVISIBLE", "DephasingSemiMarkov",
    "NonUnitalSemiMarkov", "q_of_t", "gamma_dephasing", "gamma_nonunital",
    "coherence_zeros", "map_at", "superop_at", "jump_superop",
    "ClassicalSimResult", "classical_jump_simulate",
    # measures
    "PLUS_STATE", "MINUS_STATE", "SSSConfig", "MeasureResult",
    "sss_measure", "BLPResult", "blp_measure", "DivisibilityReport",
    "cp_divisibility_scan", "BoundaryEstimate", "divisibility_boundary",
    "holevo_curve",
    # emitters
    "ResultTable", "to_csv", "to_json", "to_svg", "JSON_SCHEMA",
]
