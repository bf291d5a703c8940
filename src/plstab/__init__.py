"""Exact rational verification of coordinate-plane stabbing bounds for PL maps."""

from .generic import (GenericityCertificate, GenericityError, GenericPool,
                      certify)
from .ratmath import (format_rational, lp_feasible, mat_rank, parse_integer,
                      parse_rational, solve_affine)
from .sections import (PlanarSection, component_clusters, compute_components,
                       eps_disjoint, preimage_polytopes, section_of_image)
from .simplicial import (PLMap, SimplicialComplex, certify_map, format_complex,
                         format_map, image_point, parse_complex, parse_map,
                         roberts_perturb)
from .transversal import (BoundResult, ConcretePlane, NonStabCase, PlaneFamily,
                          StabDecision, StabWitness, max_disjoint_stabbed,
                          nonstab_case, plane_through, stab_bound,
                          stab_decide_univariate, stab_exists_linear,
                          stab_regime, stab_search_general,
                          verify_stab_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
