"""mfglab: desk-scale laboratory for a coupled forward-backward parabolic
system, its singular-weight inequalities and the inverse source problem."""

from .basis import SeparableField, random_cosine_field
from .coefficients import (
    CoeffRecipe,
    CoeffSet,
    NonlinearCoeffs,
    NonlinearRecipe,
    SourceFactors,
    apply_operator,
    check_ellipticity,
)
from .grid import Face, Grid, GridFn, build_grid, diff, norm, parse_face
from .inverse import (
    InverseData,
    ReconstructionConfig,
    ReconstructionResult,
    direct_formula_oracle,
    make_inverse_data,
    reconstruct,
    stability_sweep,
)
from .models import (
    CaseRecipe,
    ManufacturedCase,
    MmsRejected,
    mms_case_ensemble,
    mms_linear,
    residual,
)
from .statedet import CepsReport, thm1_experiment, thm4_experiment
from .verify import (
    EstimateSidePair,
    VerificationReport,
    estimate_constant,
    evaluate_estimate,
    generate_ensemble,
    lemma3_kind,
)
from .weights import (
    EtaFn,
    WeightBundle,
    WeightParams,
    build_eta,
    check_weight_identities,
    eval_weight_bundle,
)

__version__ = "0.1.0"
