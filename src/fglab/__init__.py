"""fglab: a computational free-group toolkit.

Words and commutators, Stallings subgroup automata with
Reidemeister-Schreier rewriting, truncated Magnus expansion for
lower-central-series weights, and an engine that certifies, for every
kernel of F(x, y) -> Z_d, explicit words of F_m outside the kernel's
commutator subgroup.
"""

from .words import (Alphabet, ParseError, Word, bracket_nodes, bracket_word,
                    commutator, exponent_sums, generator, identity, inverse,
                    multiply, omega, omega_bracket, parse_word)
from .stallings import (INFINITE, InfiniteIndexError, NotInSubgroupError,
                        SchreierBasis, SubgroupGraph, Transversal, build_graph,
                        contains, evaluate, from_json, in_derived_subgroup,
                        index, is_normal, kernel_graph, rewrite,
                        schreier_basis, schreier_transversal)
from .magnus import (IDENTITY, AtLeast, NoncommSeries, bracket_expand,
                     coefficient, in_lcs, lcs_weight, magnus_expand, series_mul,
                     series_one, series_weight, structural_weight,
                     weight_to_json)
from .engine import (EigenPair, KernelSpec, VerificationError,
                     WitnessCertificate, canonical_basis, char_poly_check,
                     conjugation_table, eigen_check, iterate,
                     nonvanishing_check, p_vector, path_counts,
                     transition_matrix, verify_recurrence, witness)

__version__ = "0.1.0"
