"""Exact symbolic computation for the twisted and untwisted N=2
superconformal algebras: structure constants, super-PBW straightening,
induced Whittaker-type modules, and executable checks of their degree,
simplicity and annihilator properties."""

from .algebra import (
    C,
    Cu,
    G,
    G1,
    G2,
    GeneratorId,
    Gm,
    Gp,
    J,
    L,
    LinearCombo,
    Lu,
    T,
    TWISTED,
    TWISTED_PM,
    UNTWISTED_12,
    UNTWISTED_PM,
    bracket,
    gen,
    jacobi_check,
    parse_combo,
    parse_generator,
    psi,
    substitute_basis,
    verify_automorphism,
)
from .engine import (
    InducedModule,
    ModuleVector,
    TwistedTemplate,
    straighten_negative,
    supp_deg,
)
from .errors import EngineError, ParseError, TruncationError, ValidationError
from .modules import (
    BModuleSpec,
    b_plus_t0_induce,
    check_conditions,
    check_seed,
    generalized_whittaker_spec,
    highorder_whittaker_spec,
    lemma31_check,
    load_spec_config,
    verma_untwisted,
    whittaker_spec,
)
from .orders import (
    ExponentVector,
    ZERO_VECTOR,
    enumerate_vectors,
    eps,
    parse_exponent_vector,
    principal_compare,
    revlex_compare,
)
from .scalars import I, I_SQRT2, ONE, SQRT2, Scalar, ZERO, parse_scalar
from .theorems import (
    DescentObstruction,
    annihilator_Mt,
    closure_check,
    lemma_deg_suite,
    module_axiom_check,
    reduce_step,
    reduce_to_M,
    whittaker_identity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
