"""Two-parameter (q,s)-concurrence toolkit.

Measures and sign-factor regimes, PPT/realignment detection with
analytic lower bounds, exact isotropic/Werner curves with convex
envelopes, monogamy and polygon diagnostics, and a convex-roof
estimator — all on dense numpy arrays at desk scale.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    DetectedBy,
    bound_auto,
    bound_value_auto,
    bound_value_regime_a,
    bound_value_regime_b,
    bound_value_tight,
    detect,
    in_regime_a_window,
    in_regime_b_window,
    pure_state_norm,
)
from .closed_forms import (
    EnvelopeCurve,
    IsotropicExtremum,
    build_envelope,
    cqs_isotropic,
    cqs_werner,
    find_breakpoint,
    isotropic_curve,
    isotropic_envelope,
    isotropic_extremum_oracle,
    reference_c3t_werner,
    reference_q_concurrence_isotropic,
    werner_curve,
    werner_envelope,
)
from .inequalities import (
    MonogamyReport,
    PolygonReport,
    gen3_concurrences,
    marginal_cqs,
    monogamy_residual,
    monogamy_residual_gen3,
    monogamy_residual_qubits,
    monogamy_window,
    polygon_check,
    polygon_group_check,
    qubit_concurrences,
)
from .linalg import (
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    realign,
    schatten_norm,
    singular_values,
    trace_norm,
)
from .measures import (
    ParamPair,
    Regime,
    bell_normalizer,
    bridge_window,
    classify,
    concurrence_bridge,
    concurrence_pure,
    cqs_mixed_two_qubit,
    cqs_pure,
    normalized_cqs_pure,
    unified_functional,
    wootters_concurrence,
)
from .roof import (
    RoofConfig,
    RoofResult,
    SandwichReport,
    roof_estimate,
    roof_estimate_normalized,
    sandwich_check,
)
from .states import (
    DensityMatrix,
    GenSchmidt3,
    PureState,
    SchmidtSpectrum,
    gen_schmidt3,
    haar_random_pure,
    haar_random_unitary,
    isotropic,
    load_state_json,
    max_entangled,
    random_mixed,
    reduced_state,
    save_state_json,
    schmidt,
    werner,
)
