"""Exact computations with finite-codimension subalgebras of K[x1..xn]."""

from .errors import (
    DegenerateCondition,
    DimensionMismatch,
    InvalidDirection,
    InvalidFiltration,
    InvariantError,
    NotAProperCondition,
    PolyParseError,
    RedundantCondition,
    SubalgError,
    ZeroLeadingTerm,
)
from .functionals import (
    Condition,
    ConditionKind,
    DerivativeAtom,
    LinearFunctional,
    character_difference,
    check_leibniz,
    express_in_span,
)
from .jets import JetSpace
from .poly import (
    DEGREVLEX,
    Monomial,
    Partials,
    Point,
    Poly,
    TermOrder,
    as_fraction,
    as_point,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
    parse_poly,
    partials_from_indices,
)
from .qn import (
    CheckItem,
    PointSet,
    QnSpec,
    Report,
    leibniz_expand,
    leibniz_expand_directions,
    p_n,
    pi_n,
    point_set,
    power_multisets,
    qn_build,
    qn_spec,
    qprime_membership,
    smallest_containment_level,
    verify_d_of_q,
    verify_main_theorem,
    verify_qprime_eq_q,
)
from .sagbi import (
    CodimReport,
    ConditionFiltration,
    FiltrationLevel,
    SagbiBasis,
    SubductionResult,
    SubductionStep,
    bases_equivalent,
    build_from_conditions,
    codimension_certified,
    codimension_scan,
    is_member,
    kernel_sagbi,
    kernel_sagbi_raw,
    minimalize,
    sagbi_from_generators,
    subduce,
    truncated_algebra_basis,
    variables_basis,
)
from .spectrum import (
    DerivationSpace,
    Spectrum,
    ansatz_bound,
    are_equivalent,
    cotangent_dimension,
    derivation_space,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
