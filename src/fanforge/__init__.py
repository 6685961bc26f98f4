"""fanforge: a workbench for finite fans of ternary-semigroup characters.

Build fans as chains of GF(2) levels, convert to and from raw
multiplication tables, analyse the specialization forest with its strata
and involutions, construct stratum-compatible generating systems, and
decide isomorphism of fans from order data alone.
"""

from .chains import (
    ChainChar,
    FanChain,
    SliceElement,
    ZERO_ELEMENT,
    cardinalities,
    chain_characters,
    chain_to_table,
    table_to_chain,
    validate_chain,
)
from .errors import (
    NotAFanError,
    OrderMismatchError,
    ResourceLimitError,
    StructuralError,
)
from .generators import GeneratingSystem, standard_generating_system, verify_sgs
from .isomorphism import (
    brute_force_isomorphism,
    build_isomorphism,
    check_forest,
    forest_canonical,
    is_ars_morphism,
    normal_form_chain,
    represent,
)
from .levels import (
    basis_of,
    closure,
    dimension,
    extend_basis,
    involution_failures,
    involutions_hold,
    is_dependent,
    verify_involution,
)
from .spectral import FanSpace, Forest
from .ternary import (
    Character,
    TernaryTable,
    Violation,
    enumerate_characters,
    sign3_table,
    specializes,
    triple_product,
    validate_table,
    zero_set_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
