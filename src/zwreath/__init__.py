"""Wreath products of free abelian groups, exactly.

Exact arithmetic in Z^n wr Z^m and its right-iterated relatives, Laurent
polynomial augmentation-ideal machinery, group-equation syntax/semantics, the
definability gadgets built from them, and a compiler turning integer
polynomial equations into group-equation systems with constructive witnesses,
solution extraction, and an independent membership oracle.
"""

from .equations import (CheckReport, Commutator, Concat, Constant, Literal,
                        Power, System, check_system, concat, equation,
                        evaluate, flatten, inverse_word, parse_assignment,
                        parse_system, power, serialize_assignment,
                        serialize_system, system_of)
from .errors import Error, ParseError, PreconditionError, SpecMismatchError
from .gadgets import (delta_blocks, gadget_cyclic, gadget_delta_power,
                      gadget_in_A, gadget_in_N, witness_cyclic,
                      witness_delta_power)
from .interp import (IteratedReduction, IteratedSpec, NestedElement,
                     compile_iterated, lift_system, project_assignment,
                     spec_for_ranks)
from .laurent import (INFINITY, LaurentPoly, aug_valuation, delta_decompose,
                      delta_generator_product, delta_membership, geom_series,
                      parse_poly)
from .reduction import (IntPolynomial, Reduction, compile, extract_solution,
                        oracle_ef, parse_intpoly, witness)
from .wreath import (GroupSpec, LcsBasisElement, WreathElement,
                     in_A, in_N, in_delta_power,
                     left_normed_commutator, lcs_basis, lcs_rank,
                     module_action, parse_element)

__version__ = "0.1.0"
