"""confweyl: exact Anick resolution and Hochschild cohomology for the
conformal Weyl algebra U(2) over its coefficient algebra."""

from .poly import Poly, split_constant, parse_poly
from .conformal import (
    ConformalElement,
    check_associativity,
    conf_commutator,
    lambda_product,
    locality,
    n_product,
)
from .coeffalg import (
    UNIT,
    AlgebraElement,
    coeff_image,
    derivation,
    normal_form,
    parse_word,
)
from .anick import (
    MatchingError,
    anick_delta_closed,
    anick_delta_morse,
    bar_derivation,
    bar_differential,
    enumerate_chains,
    homotopy_f,
    homotopy_g,
    is_chain,
    matched_edge,
    parse_chain,
    render_chain,
)
from .modules import (
    FiniteModule,
    ModuleElement,
    ModuleValidationError,
    check_locality_compat,
    make_module,
    module_ext,
    module_m,
    module_trivial,
)
from .cohomology import (
    Cochain,
    ScalarCochain,
    Window,
    WindowComplex,
    assemble_matrix,
    cohomology_dim,
    d_map,
    hochschild_delta,
    reduce_cochain,
    reduced_delta,
    verify_theorem_constructions,
)
from .ratmat import RationalMatrix

__version__ = "0.1.0"
