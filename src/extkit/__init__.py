"""Extended Hamiltonian construction and verification toolkit.

Builds one-and-a-half extra degrees of freedom on top of a base
Hamiltonian on a Poisson manifold, evaluates the characteristic first
integrals in closed form, and checks every defining identity
numerically on a catalog of worked systems.
"""

__version__ = "0.1.0"

from .catalog import (
    BuiltSystem,
    CatalogEntry,
    CatalogError,
    entry_ids,
    get_entry,
    instantiate,
)
from .extension import (
    ExtendedState,
    Extension,
    ExtensionBuildError,
    ExtensionParams,
    ExtensionSeed,
    build_extension,
    extended_flow,
    power_coeffs,
    profile_at,
    recursion_term,
    recursion_term_closed,
)
from .jets import (
    EvaluationError,
    Jet,
    NonFiniteError,
    ScalarField,
    SingularPointError,
)
from .poisson import (
    HamiltonianSystem,
    PoissonStructure,
    apply_xl,
    apply_xl2,
    base_flow,
    bracket,
    canonical_structure,
    extend_structure,
    jacobi_residual,
)
from .riccati import PoleError, RiccatiParams, riccati_eval, tagged_trig
from .verify import (
    SampleSpec,
    conservation_report,
    fd_bracket_normalized,
    first_order_residual,
    independence_rank,
    integrate,
    pde_residual,
    recursion_closed_sweep,
    sample_points,
)

__all__ = [
    "BuiltSystem",
    "CatalogEntry",
    "CatalogError",
    "EvaluationError",
    "ExtendedState",
    "Extension",
    "ExtensionBuildError",
    "ExtensionParams",
    "ExtensionSeed",
    "HamiltonianSystem",
    "Jet",
    "NonFiniteError",
    "PoissonStructure",
    "PoleError",
    "RiccatiParams",
    "SampleSpec",
    "ScalarField",
    "SingularPointError",
    "apply_xl",
    "apply_xl2",
    "base_flow",
    "bracket",
    "build_extension",
    "canonical_structure",
    "conservation_report",
    "entry_ids",
    "extend_structure",
    "extended_flow",
    "fd_bracket_normalized",
    "first_order_residual",
    "get_entry",
    "independence_rank",
    "instantiate",
    "integrate",
    "jacobi_residual",
    "pde_residual",
    "power_coeffs",
    "profile_at",
    "recursion_closed_sweep",
    "recursion_term",
    "recursion_term_closed",
    "riccati_eval",
    "sample_points",
    "tagged_trig",
]
