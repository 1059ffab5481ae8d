"""Divisor class groups, canonical classes, and torsion numbers of normal
affine semigroup rings, in exact integer arithmetic.

Two front doors:

* :func:`divclass.joinmeet.joinmeet_report`: from a finite poset, through
  the cone of its bounded extension (join-meet / Hibi ring mode);
* :func:`divclass.semigroup.cone_report`: from an explicit list of facet
  support forms (general cone mode).

Both return a :class:`divclass.semigroup.ClassGroupReport` and agree on
every ring reachable by both routes.
"""

__version__ = "0.1.0"

from .abelian import (
    AbelianPresentation,
    ClassElement,
    GroupStructure,
    fitting_number,
    quotient_by,
    solve_integer,
    structure,
    torsion_number,
)
from .errors import (
    DivclassError,
    InputError,
    InternalInvariantError,
    LimitExceededError,
)
from .exact_linalg import IntMatrix, SmithDecomposition, smith_normal_form
from .joinmeet import (
    SpanningTree,
    choose_tree,
    joinmeet_report,
    relation_matrix,
    verify_column_relations,
)
from .poset import (
    BoundedPoset,
    Poset,
    build_poset,
    maximal_chains,
    two_chains_poset,
)
from .semigroup import (
    ClassGroupReport,
    ConeDescription,
    cone_report,
    determinantal_invariants,
    normalize_form,
    segre_veronese_cone,
    veronese_cone,
)
from .sweep import run_sweep

__all__ = [
    "AbelianPresentation",
    "BoundedPoset",
    "ClassElement",
    "ClassGroupReport",
    "ConeDescription",
    "DivclassError",
    "GroupStructure",
    "InputError",
    "IntMatrix",
    "InternalInvariantError",
    "LimitExceededError",
    "Poset",
    "SmithDecomposition",
    "SpanningTree",
    "build_poset",
    "choose_tree",
    "cone_report",
    "determinantal_invariants",
    "fitting_number",
    "joinmeet_report",
    "maximal_chains",
    "normalize_form",
    "quotient_by",
    "relation_matrix",
    "run_sweep",
    "segre_veronese_cone",
    "smith_normal_form",
    "solve_integer",
    "structure",
    "torsion_number",
    "two_chains_poset",
    "veronese_cone",
    "verify_column_relations",
]
