"""Property tests: the bracket and flat Magnus routes and the Fox walk's
coefficient read-out against plain oracles."""

import itertools
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab import engine, magnus
from fglab.cli import main
from fglab.engine import fox_walk
from fglab.magnus import (IDENTITY, AtLeast, NoncommSeries, bracket_expand,
                          lcs_weight, magnus_expand, series_mul, series_one,
                          series_weight, structural_weight)
from fglab.words import (XY, Alphabet, Word, bracket_word, commutator,
                         generator, multiply, omega, omega_bracket)

RANKS = {rank: Alphabet("xyz"[:rank]) for rank in (1, 2, 3)}


def codes(rank):
    return st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])


@st.composite
def brackets(draw):
    """A tree: a node list whose every node but the root is used once."""
    rank = draw(st.integers(1, 3))
    nodes = draw(st.lists(codes(rank), min_size=1, max_size=8))
    free = list(range(len(nodes)))
    while len(free) > 1:
        j, k = (free.pop(draw(st.integers(0, len(free) - 1))) for _ in range(2))
        free.append(len(nodes))
        nodes.append((j, k))
    return rank, tuple(nodes)


def pairs_of_earlier_nodes(draw, nodes, most):
    """Append up to ``most`` pairs of earlier nodes, so nodes may be shared."""
    for _ in range(draw(st.integers(0, most))):
        nodes.append(tuple(draw(st.integers(0, len(nodes) - 1)) for _ in range(2)))
    return tuple(nodes)


@st.composite
def shared_brackets(draw):
    """A node list whose pairs name any earlier nodes."""
    rank = draw(st.integers(1, 3))
    leaves = draw(st.lists(codes(rank), min_size=1, max_size=4))
    return rank, pairs_of_earlier_nodes(draw, leaves, 4)


@st.composite
def sub_brackets(draw):
    """A shared bracket over some of the letters of an alphabet of rank 1 to 6."""
    rank = draw(st.sampled_from([1, 2, 3, 5, 6]))
    gens = draw(st.lists(st.integers(1, rank), min_size=1, max_size=3, unique=True))
    leaves = st.sampled_from([s * g for g in gens for s in (1, -1)])
    nodes = draw(st.lists(leaves, min_size=1, max_size=4))
    return Alphabet("xyzuvw"[:rank]), pairs_of_earlier_nodes(draw, nodes, 3)


@st.composite
def words(draw, max_size=20):
    rank = draw(st.integers(1, 3))
    return Word(RANKS[rank], draw(st.lists(codes(rank), max_size=max_size)))


def spelled(nodes, alphabet):
    """The oracle: the word a node list spells, one commutator per pair."""
    values = []
    for entry in nodes:
        if isinstance(entry, tuple):
            values.append(commutator(values[entry[0]], values[entry[1]]))
        else:
            values.append(Word(alphabet, (entry,)))
    return values[-1]


def letter_series(code, cap):
    var = abs(code) - 1
    if code > 0:
        return NoncommSeries(cap, {(): 1, (var,): 1})
    return NoncommSeries(cap, {(var,) * k: (-1) ** k for k in range(cap + 1)})


def folded_expand(w, cap):
    """The oracle: the product of the letter series, one series_mul each."""
    return reduce(series_mul, (letter_series(c, cap) for c in w.letters),
                  series_one(cap))


@settings(max_examples=300, deadline=None)
@given(brackets(), st.integers(1, 8))
def test_bracket_route_equals_flat_route(rank_bracket, cap):
    rank, bracket = rank_bracket
    word = bracket_word(bracket, RANKS[rank])
    assert word == spelled(bracket, RANKS[rank])
    assert bracket_expand(bracket, cap) == magnus_expand(word, cap)


@settings(max_examples=300, deadline=None)
@given(shared_brackets(), st.integers(1, 8))
def test_bracket_route_equals_flat_route_on_shared_brackets(rank_bracket, cap):
    rank, bracket = rank_bracket
    word = bracket_word(bracket, RANKS[rank])
    assert word == spelled(bracket, RANKS[rank])
    assert bracket_expand(bracket, cap) == magnus_expand(word, cap)


@pytest.mark.parametrize("route", [
    lambda nodes: bracket_word(nodes, RANKS[2]), structural_weight,
    lambda nodes: bracket_expand(nodes, 4)],
    ids=["bracket_word", "structural_weight", "bracket_expand"])
@pytest.mark.parametrize("nodes, message", [
    ((1, 2, (0, 3), -1), "node 2 names node 3"),   # forward
    ((1, (0, 1)), "node 1 names node 1"),          # itself
    ((1, 2, (0, -1)), "node 2 names node -1"),     # negative: not the last
    ((), "at least one node"),
    # leaves: the empty letter, a float, a bool and a list are no codes
    ((0, 1, (0, 1)), "node 0 is 0, not a nonzero int or a pair"),
    ((0,), "node 0 is 0, not a nonzero int or a pair"),
    ((1.5, 2, (0, 1)), "node 0 is 1.5, not a nonzero int or a pair"),
    ((True, 2, (0, 1)), "node 0 is True, not a nonzero int or a pair"),
    ((1, 2, [0, 1]), r"node 2 is \[0, 1\], not a nonzero int or a pair"),
], ids=["forward", "itself", "negative", "empty", "zero-leaf", "zero-root",
        "float-leaf", "bool-leaf", "list-pair"])
def test_pairs_name_only_earlier_nodes(route, nodes, message):
    with pytest.raises(ValueError, match=message):
        route(nodes)


def assert_routes_agree(bracket, alphabet, cap):
    word = bracket_word(bracket, alphabet)
    routes = bracket_expand(bracket, cap), magnus_expand(word, cap)
    assert routes[0] == routes[1]
    for series in routes:
        for monomial in series.terms:
            assert type(monomial) is tuple
            assert all(type(g) is int for g in monomial)


@settings(max_examples=300, deadline=None)
@given(sub_brackets(), st.integers(1, 6))
def test_routes_agree_whatever_the_key_base(alphabet_bracket, cap):
    # the bracket routes key monomials in the base of the bracket's largest
    # letter, the flat route in the base of the word's rank
    alphabet, bracket = alphabet_bracket
    assert_routes_agree(bracket, alphabet, cap)


X, Y, Z = 1, 2, 3
RANK_6 = Alphabet("xyzuvw")


# a one-leaf bracket's id is its letter code
@pytest.mark.parametrize("alphabet, bracket, base", [
    # [[y, z^-1], [y^-1, z]]: y and z only, x's digit 0 unused
    (RANKS[3], (Y, -Z, (0, 1), -Y, Z, (3, 4), (2, 5)), 3),
    # [[x, y^-1], [[x, y], x^-1]]: x and y only, base 2 < rank 3
    (RANKS[3], (X, -Y, (0, 1), Y, (0, 3), -X, (4, 5), (2, 6)), 2),
    (RANKS[3], (-X,), 1),                  # x only: base 1, every digit 0
    (RANKS[1], (-X,), 1),
    (RANKS[1], (X, -X, (0, 1)), 1),
    (RANK_6, (6, -5, (0, 1), -6, X, 4, (4, 5), (3, 6), (2, 7)), 6),
    (RANK_6, (Z, -5, (0, 1), (2, 0)), 5),
], ids=lambda value: str(value[0]) if value == (-X,) else None)
@pytest.mark.parametrize("cap", [1, 4, 7])
def test_routes_agree_on_sub_alphabets(alphabet, bracket, base, cap):
    assert magnus._key_base(bracket) == base
    assert_routes_agree(bracket, alphabet, cap)


@settings(max_examples=300, deadline=None)
@given(shared_brackets(), st.integers(1, 8))
def test_structural_weight_bounds_magnus_weight(rank_bracket, cap):
    rank, bracket = rank_bracket
    word = bracket_word(bracket, RANKS[rank])
    weight = series_weight(magnus_expand(word, cap))
    # AtLeast(cap + 1) leaves the weight open above the cap
    if not isinstance(weight, AtLeast):
        assert structural_weight(bracket) <= weight


@settings(max_examples=300, deadline=None)
@given(words(max_size=12), st.integers(1, 12))
def test_stepped_caps_equal_one_expansion(word, cap):
    one_expansion = series_weight(magnus_expand(word, cap)) if word else IDENTITY
    assert lcs_weight(word, cap) == one_expansion


def test_node_list_routes_need_no_recursion():
    bracket = omega_bracket(5000)
    assert structural_weight(bracket) == 5002
    assert series_weight(bracket_expand(bracket, 3)) == AtLeast(4)


def test_bracket_route_keeps_only_live_nodes():
    # the fold holds the series of live nodes only, about 0.5 MB here;
    # the series of every node would take several MB
    tracemalloc.start()
    try:
        bracket_expand(omega_bracket(60), 63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def issue_with(monkeypatch, change):
    """Make ``engine.witness`` build its certificate changed by ``change``."""
    build = engine.WitnessCertificate
    monkeypatch.setattr(engine, "WitnessCertificate",
                        lambda **fields: change(build(**fields)))


def test_witness_fails_on_a_changed_letter(capsys, monkeypatch):
    def flip_first_y(cert):
        letters = list(cert.witness.letters)
        letters[1] = -letters[1]
        return cert._replace(witness=Word(cert.witness.alphabet, letters))
    issue_with(monkeypatch, flip_first_y)
    assert main(["witness", "--d", "3", "--m", "5"]) == 1
    assert "F_m re-check failed: the coefficient of y x^4 is -3, not -1" in \
        capsys.readouterr().err


def test_witness_fails_when_the_coefficient_skips_inverse_letters(
        capsys, monkeypatch):
    monkeypatch.setattr(engine, "fox_walk", lambda w: fox_walk(
        Word(w.alphabet, [c for c in w.letters if c > 0])))
    assert main(["witness", "--d", "3", "--m", "5"]) == 1
    assert "F_m re-check failed: the coefficient of y x^4 is" in \
        capsys.readouterr().err


@pytest.mark.parametrize("bracket", [omega_bracket(2),
                                     (X, -Y, (0, 1), (2, 0), (3, 0))])
def test_witness_fails_when_the_bracket_does_not_spell_the_letters(
        capsys, monkeypatch, bracket):
    issue_with(monkeypatch, lambda cert: cert._replace(bracket=bracket))
    assert main(["witness", "--d", "3", "--m", "5"]) == 1
    assert "re-check failed: the bracket does not spell the printed word" in \
        capsys.readouterr().err


def test_witness_fails_on_a_structural_weight_off_by_one(capsys, monkeypatch):
    weight = magnus.structural_weight
    monkeypatch.setattr(magnus, "structural_weight", lambda b: weight(b) - 1)
    assert main(["witness", "--d", "3", "--m", "5"]) == 1
    assert "F_m re-check failed: structural weight 4 < 5" in \
        capsys.readouterr().err


def test_witness_fails_when_the_issuer_slack_is_too_small(capsys, monkeypatch):
    # the issuer truncates at cap - structural_weight; too small a slack
    # leaves it an AtLeast, which the coefficient's bound from above,
    # weight <= m, contradicts
    weight = magnus.structural_weight
    monkeypatch.setattr(magnus, "structural_weight", lambda b: weight(b) + 2)
    assert main(["witness", "--d", "3", "--m", "5"]) == 1
    assert "F_m re-check failed: the weight is 5, the certificate prints " \
        "AtLeast(7)" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(words(), st.integers(1, 8))
def test_level_kernel_equals_series_fold(word, cap):
    assert magnus_expand(word, cap) == folded_expand(word, cap)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_expansion_is_a_homomorphism(data, cap):
    u = data.draw(words())
    v = data.draw(words().filter(lambda w: w.alphabet == u.alphabet))
    assert magnus_expand(multiply(u, v), cap) == series_mul(
        magnus_expand(u, cap), magnus_expand(v, cap))


def test_omega_bracket_spells_omega():
    x, y = generator(XY, "x"), generator(XY, "y")
    left_normed = commutator(x, y)
    for n in range(13):
        assert bracket_word(omega_bracket(n), XY) == omega(n) == left_normed
        left_normed = commutator(left_normed, x)


@pytest.mark.parametrize("n", range(6))
def test_shallow_cap_gives_at_least_on_both_routes(n):
    cap = n + 1
    assert lcs_weight(omega(n), cap) == AtLeast(cap + 1)
    assert series_weight(bracket_expand(omega_bracket(n), cap)) == AtLeast(cap + 1)


def test_bracket_route_reaches_deep_terms():
    for n in (20, 40):
        assert series_weight(bracket_expand(omega_bracket(n), n + 3)) == n + 2


def monomials(rank, cap):
    """Every monomial over rank variables, of degree 0 to cap."""
    return [mono for k in range(cap + 1)
            for mono in itertools.product(range(rank), repeat=k)]


def coefficient(w, monomial):
    """The oracle: the coefficient of one monomial in the Magnus expansion.

    The monomial is a tuple of 0-based variable indices, as in the keys of
    ``NoncommSeries``.  For g_1 ... g_k, the map sending generator g to
    I + sum E_(i-1, i), over the positions i with g_i = g, factors through
    the expansion, and entry (0, k) of the image of w is the coefficient:
    an augmented higher Fox derivative (Chen, Fox and Lyndon, Ann. of Math.
    68, 1958).  One walk over the letters keeps row 0 only: letter g adds
    row[i-1] into row[i] at its positions walking i downward, and g^-1
    subtracts walking i upward.
    """
    up = {}
    for i, g in enumerate(monomial, 1):
        up.setdefault(g + 1, []).append(i)
    steps = {-c: places for c, places in up.items()}
    steps.update((c, places[::-1]) for c, places in up.items())
    row = [1] + [0] * len(monomial)
    for c in w.letters:
        if c > 0:
            for i in steps.get(c, ()):
                row[i] += row[i - 1]
        else:
            for i in steps.get(c, ()):
                row[i] -= row[i - 1]
    return row[-1]


def read_y_x(w, k):
    """The read-out ``engine._recheck`` makes: sum_p D_y[p] C(T - p, k)."""
    total, _, d_y = fox_walk(w)
    return sum(n * engine._binomial(total - p, k) for p, n in d_y.items())


@settings(max_examples=200, deadline=None)
@given(words(max_size=16), st.integers(1, 5))
def test_coefficient_equals_the_expansion(word, cap):
    terms = magnus_expand(word, cap).terms
    for mono in monomials(len(word.alphabet), cap):
        assert coefficient(word, mono) == terms.get(mono, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coefficient_of_a_product_sums_over_the_splits(data):
    u = data.draw(words())
    v = data.draw(words().filter(lambda w: w.alphabet == u.alphabet))
    mono = tuple(data.draw(st.lists(st.integers(0, len(u.alphabet) - 1),
                                    max_size=6)))
    assert coefficient(multiply(u, v), mono) == sum(
        coefficient(u, mono[:i]) * coefficient(v, mono[i:])
        for i in range(len(mono) + 1))


@pytest.mark.parametrize("m", range(2, 17))
def test_omega_has_coefficient_minus_one_on_y_x_to_the_m_minus_1(m):
    x, y = XY.index("x"), XY.index("y")
    assert coefficient(omega(m - 2), (y,) + (x,) * (m - 1)) == -1
    assert read_y_x(omega(m - 2), m - 1) == -1


@pytest.mark.parametrize("alphabet", [XY, Alphabet(("y", "x"))], ids=str)
@settings(max_examples=300, deadline=None)
@given(letters=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24),
       k=st.integers(0, 6))
def test_fox_walk_reads_the_coefficient_of_y_x_to_the_k(alphabet, letters, k):
    w = Word(alphabet, letters)
    x, y = alphabet.index("x"), alphabet.index("y")
    assert read_y_x(w, k) == coefficient(w, (y,) + (x,) * k)


@pytest.mark.parametrize("e", range(-8, 9))
def test_binomial_is_the_expansion_of_a_power_of_x(e):
    # C(e, k) is the coefficient of X^k in M(x^e) = (1 + X)^e
    terms = magnus_expand(Word(XY, [1 if e > 0 else -1] * abs(e)), 8).terms
    for k in range(9):
        assert engine._binomial(e, k) == terms.get((0,) * k, 0)
