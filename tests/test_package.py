"""The package's public names: each is its layer's own object, imported lazily."""

import os
import subprocess
import sys

import pytest

import fglab
from fglab import engine, magnus, stallings, words

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# the names ``fglab`` exports, by the layer that defines them
PUBLIC = {
    words: "Alphabet ParseError Word bracket_word commutator "
           "exponent_sums generator identity inverse multiply omega "
           "omega_bracket parse_word",
    stallings: "INFINITE NotInSubgroupError SchreierBasis SubgroupGraph "
               "Transversal bracket_exponents build_graph contains evaluate "
               "from_json "
               "in_derived_subgroup index is_normal kernel_graph rewrite "
               "schreier_basis schreier_transversal",
    magnus: "IDENTITY AtLeast NoncommSeries bracket_expand coefficient in_lcs "
            "lcs_weight magnus_expand series_mul series_one series_weight "
            "structural_weight weight_to_json",
    engine: "EigenPair KernelSpec VerificationError WitnessCertificate "
            "canonical_basis char_poly_check conjugation_table eigen_check "
            "iterate nonvanishing_check p_vector path_counts "
            "transition_matrix verify_recurrence witness",
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]
LAYERS = ["words", "stallings", "magnus", "engine"]


@pytest.mark.parametrize("module, name", NAMES,
                         ids=["%s.%s" % (m.__name__, n) for m, n in NAMES])
def test_public_name_is_its_layers_object(module, name):
    assert getattr(fglab, name) is getattr(module, name)


def test_dir_and_star_import_list_every_public_name():
    public = {name for _, name in NAMES} | set(LAYERS)
    assert public <= set(dir(fglab))
    namespace = {}
    exec("from fglab import *", namespace)
    assert public == {k for k in namespace if not k.startswith("__")}
    assert namespace["omega"] is words.omega
    assert namespace["engine"] is engine


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fglab.no_such_name


def test_bare_import_loads_no_layer_until_one_is_read():
    code = ("import sys, fglab\n"
            "print(*sorted(m for m in sys.modules if m.startswith('fglab')))\n"
            "fglab.KernelSpec, fglab.stallings\n"
            "print(*sorted(m for m in sys.modules if m.startswith('fglab')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.splitlines() == [
        "fglab", "fglab fglab.engine fglab.stallings fglab.words"]
