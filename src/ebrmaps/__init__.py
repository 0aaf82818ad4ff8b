"""Edge-biregular maps on surfaces.

A library for maps carrying an alternate-edge-colouring whose
colour-preserving automorphism group acts regularly on corners.  Such a map
is a finite group with four involutory generator slots; this package builds
them from presentations (via coset enumeration) or permutations, writes the
classified families down as Cayley graphs of quotients of affine groups,
computes their topological invariants, and classifies them over small groups.
"""

from .constructions import (
    RegularMap,
    construction1,
    construction2,
    construction3,
    construction4,
    underlying_regular,
)
from .ebr_core import (
    SLOT_NAMES,
    BoundaryMapError,
    EdgeBiregularMap,
    EdgeCount,
    InvalidMapError,
    MapInvariants,
    are_isomorphic,
)
from .enumeration import (
    CandidateBudgetExceeded,
    ClassReport,
    MapClass,
    classify_report,
    dihedral_table_row,
    enumerate_ebr,
)
from .families import (
    catalog_group,
    catalog_names,
    dihedral_map,
    dihedral_rows,
    klein,
    regular_catalog,
    sphere_family,
    torus_rect,
    torus_rhombic,
)
from .flag_maps import (
    FlagMap,
    ebr_to_flagmap,
    is_alternate_edge_colourable,
    load_flagmap,
    regular_to_flagmap,
    rotation_system_to_flagmap,
    save_flagmap,
)
from .perm_group import (
    FiniteGroup,
    GroupTooLargeError,
    Permutation,
    closure,
    extend_generator_map,
    is_dihedral,
)
from .presentation import (
    CosetLimitExceeded,
    GroupPresentation,
    PresentationSyntaxError,
    coset_enumerate,
    dihedral_presentation,
    ebr_type_presentation,
    parse_presentation,
    square_grid_group,
    triangle_group,
)

__version__ = "0.1.0"
