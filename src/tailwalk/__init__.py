"""Coined quantum walks on finite graphs with semi-infinite tails.

Numerical engine for resonances (eigenvalues of the boundary matrix inside
the unit disk), scattering matrices on the tail ports, spectral-mapping
classification of the unperturbed spectrum, and second-order perturbative
asymptotics of resonance motion under the tunable coin family.
"""

__version__ = "0.1.0"

from .tailed_graph import (
    GraphError,
    InternalGraph,
    TailSpec,
    TailedGraph,
    attach_tails,
    build_internal,
    preset_graph,
)
from .coin_evolution import WalkOperator, boundary_coin, grover, tunable_block
from .internal_spectral import (
    ClusterAmbiguity,
    InternalMatrix,
    NotAResonance,
    SpectralData,
    build_E,
    projection_contour_oracle,
    spectral_decompose,
    verify_outgoing,
)
from .scattering import (
    NoConvergence,
    ScatteringRecord,
    SigmaEvaluator,
    stationary_iterate,
    transmission_curve,
    unitarity_defect,
)
from .smt_laplacian import (
    EigenClassification,
    LaplacianT,
    birth_basis,
    birth_multiplicities,
    build_E_split,
    build_operators,
    classify,
    joukowsky,
    joukowsky_preimages,
    lift,
    persistent_basis,
)
from .perturbation import (
    AssumptionReport,
    Branch,
    Coupling,
    Family,
    GroupEscapedContour,
    ReductionLedger,
    ResonantLimitRecord,
    assumption_report,
    fit_loglog_slope,
    projection_expansion,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
    total_projection,
)
