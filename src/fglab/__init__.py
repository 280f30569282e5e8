"""fglab: a computational free-group toolkit.

Words and commutators, Stallings subgroup automata with
Reidemeister-Schreier rewriting, truncated Magnus expansion for
lower-central-series weights, and an engine that certifies, for every
kernel of F(x, y) -> Z_d, explicit words of F_m outside the kernel's
commutator subgroup.
"""

from importlib import import_module as _import_module

# each layer's public names, read from the layer on each access (PEP 562); a
# layer is imported on first use, so a command loads only the layers it runs
_HOME = {name: layer for layer, names in {
    "words": "Alphabet ParseError Word bracket_word commutator "
             "exponent_sums generator identity inverse multiply omega "
             "omega_bracket parse_word",
    "stallings": "INFINITE NotInSubgroupError SchreierBasis SubgroupGraph "
                 "Transversal bracket_exponents build_graph contains evaluate "
                 "from_json in_derived_subgroup index is_normal kernel_graph "
                 "rewrite schreier_basis schreier_transversal",
    "magnus": "IDENTITY AtLeast NoncommSeries bracket_expand in_lcs "
              "lcs_weight magnus_expand series_mul series_one series_weight "
              "structural_weight weight_to_json",
    "engine": "EigenPair KernelSpec VerificationError WitnessCertificate "
              "char_poly_check conjugation_table eigen_check fox_walk iterate "
              "nonvanishing_check p_vector "
              "transition_matrix verify_recurrence witness",
}.items() for name in names.split()}
__all__ = ["words", "stallings", "magnus", "engine", *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        layer = _import_module("." + _HOME.get(name, name), __name__)
        return getattr(layer, name) if name in _HOME else layer
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
