"""Fusion frames, operator-valued frames, duality, and fusion multipliers.

Numerical library plus verification CLI for weighted subspace decompositions
of finite-dimensional complex Hilbert spaces: frame bounds, excess, the
operator-valued dual family, admissible-sequence duality, and Bessel fusion
multipliers with operator symbols.
"""

from .exceptions import (
    ContractViolationError,
    FusionFrameError,
    NotAFrameError,
    NumericFailureError,
    PreconditionError,
)
from .numerics import DEFAULT_TOL, ToleranceConfig
from .frames import ordinary_multiplier
from .fusion import (
    FusionSequence,
    LocalFrameFamily,
    Subspace,
    build_local_frames,
    excess,
    fusion_synthesis_kw,
    is_riesz_fusion_basis,
    projection,
    random_subspace,
)
from .ovf import (
    DualCandidate,
    OVFrame,
    dual_span_dimension,
    is_frame,
    null_bessel_certificate,
)
from .duality import (
    find_separating_dual,
    fusion_dual_to_ovf,
    gavruta_dual_check,
    generate_fusion_dual,
    index_zero_set,
    is_admissible,
    kpp_dual_check,
)
from .multipliers import (
    Symbol,
    assemble_multiplier,
    invertible_multiplier_consequences,
    local_frame_equivalence,
    riesz_multiplier_verdict,
    schatten_checks,
)

__version__ = "0.1.0"
