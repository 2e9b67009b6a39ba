"""Finite categories enriched in commutative quantales.

Causal spaces (the extended-nonnegative-reals-with-bottom base),
generalized metric spaces (the Lawvere base), preorders (truth values)
and products thereof, with the module (profunctor) calculus, Cauchy
completeness checking, collage constructions, and causal-set and
flat-spacetime generators.
"""

from types import ModuleType as _ModuleType

from .category import (
    CategoryReport,
    EndohomReport,
    VCategory,
    category_from_json,
    category_to_json,
    classify_endohoms,
    opposite,
    preorder_dot,
    underlying_preorder,
    unit_category,
    validate_category,
)
from .causal import (
    CausalDag,
    CycleError,
    Event2D,
    MixedSignatureRecord,
    causal_space_from_dag,
    dag_from_json,
    dag_from_text,
    interval_2d,
    minkowski_sample,
    mixed_signature_check,
    toposort,
)
from .collage import (
    Collage,
    adjoin_point,
    collage,
    collage_from_json,
    collage_to_json,
    restrict,
)
from .modules import (
    AdjunctionReport,
    CauchyFinding,
    CompletenessReport,
    ModuleReport,
    VModule,
    canonical_right_adjoint,
    cauchy_completeness_report,
    cauchy_witness,
    check_adjunction,
    compose,
    corepresentable,
    default_module_grid,
    enumerate_modules_into,
    find_representing,
    identity_module,
    is_cauchy,
    module_from_json,
    module_to_json,
    representable,
    representing_objects,
    validate_module,
)
from .quantale import (
    BOOL,
    BOT,
    FALSE,
    INF,
    LAWVERE,
    RBOT,
    TRUE,
    CarrierMismatch,
    Kind,
    LawReport,
    LawViolation,
    QuantaleDescriptor,
    QVal,
    Tag,
    boolean,
    bottom,
    carrier_check,
    check_laws,
    descriptor_from_json,
    descriptor_to_json,
    eq,
    finite,
    format_value,
    join,
    join_witness,
    leq,
    meet,
    parse_quantale_name,
    parse_value,
    product,
    qval_sort_key,
    rbot,
    residual,
    tensor,
    top,
    tuple_val,
    unit,
)

__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
__version__ = "0.1.0"
