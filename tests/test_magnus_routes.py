"""Property tests: the bracket and flat Magnus routes against plain oracles."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab import engine
from fglab.magnus import (AtLeast, NoncommSeries, bracket_expand, lcs_weight,
                          magnus_expand, series_mul, series_one, series_weight)
from fglab.words import (XY, Alphabet, Word, bracket_word, commutator,
                         generator, multiply, omega, omega_bracket)

RANKS = {rank: Alphabet("xyz"[:rank]) for rank in (1, 2, 3)}


def codes(rank):
    return st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])


@st.composite
def brackets(draw):
    rank = draw(st.integers(1, 3))
    bracket = draw(st.recursive(codes(rank), lambda inner: st.tuples(inner, inner),
                                max_leaves=8))
    return rank, bracket


@st.composite
def words(draw):
    rank = draw(st.integers(1, 3))
    return Word(RANKS[rank], draw(st.lists(codes(rank), max_size=20)))


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
    assert bracket_expand(bracket, cap) == magnus_expand(word, cap)


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


def test_witness_rejects_cap_below_m():
    with pytest.raises(ValueError):
        engine.witness(3, 5, cap=4)


@pytest.mark.parametrize("n", range(6))
def test_shallow_cap_gives_at_least_on_both_routes(n):
    cap = n + 1
    assert lcs_weight(omega(n), cap) == AtLeast(cap + 1)
    assert series_weight(bracket_expand(omega_bracket(n), cap)) == AtLeast(cap + 1)


def test_bracket_route_reaches_deep_terms():
    for n in (20, 40):
        assert series_weight(bracket_expand(omega_bracket(n), n + 3)) == n + 2
