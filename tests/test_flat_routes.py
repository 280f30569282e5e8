"""Property tests: the bulk word and rewrite routes against per-letter oracles.

Each oracle below is the plain per-letter code the fast route replaced:
a token loop with a stack reduce for parsing, ``groupby`` for formatting,
``free_reduce`` of the whole concatenation for products, and a tree-edge
walk for Schreier rewriting.
"""

import re
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab import stallings
from fglab.words import (Alphabet, ParseError, Word, commutator, inverse,
                         multiply, omega, parse_word)

RANKS = {rank: Alphabet(("x", "y", "z_2")[:rank]) for rank in (1, 2, 3)}
TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?\Z")


# -- oracles -----------------------------------------------------------------

def stack_reduce(letters):
    stack = []
    for c in letters:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def oracle_parse(text, alphabet):
    letters = []
    for token in text.split():
        m = TOKEN_RE.match(token)
        if not m:
            raise ParseError("malformed token: %r" % (token,))
        name, exp = m.groups()
        code = alphabet.index(name) + 1
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise ParseError("zero exponent in token: %r" % (token,))
        if k < 0:
            code, k = -code, -k
        letters.extend([code] * k)
    return stack_reduce(letters)


def oracle_str(letters, alphabet):
    parts = []
    for code, run in groupby(letters):
        k = len(list(run))
        if code < 0:
            k = -k
        name = alphabet[abs(code) - 1]
        parts.append(name if k == 1 else "%s^%d" % (name, k))
    return " ".join(parts)


def oracle_rewrite(graph, transversal, basis, w):
    # a tree edge u -g-> v extends a representative by one letter:
    # reps[v] == reps[u] g or reps[u] == reps[v] g^-1
    reps = [transversal.rep(v).letters for v in range(graph.n_vertices)]
    letter = {edge: i for i, edge in enumerate(basis.edges)}
    v = 0
    emitted = []
    for c in w.letters:
        gen, sign = abs(c) - 1, (1 if c > 0 else -1)
        nxt = graph.steps[c][v]
        if nxt is None:
            raise stallings.NotInSubgroupError("leaves the automaton")
        u, t = (v, nxt) if sign > 0 else (nxt, v)
        if reps[t] != reps[u] + (gen + 1,) and reps[u] != reps[t] + (-gen - 1,):
            emitted.append(sign * (letter[(u, gen)] + 1))
        v = nxt
    if v != 0:
        raise stallings.NotInSubgroupError("does not return to base")
    return stack_reduce(emitted)


# -- strategies --------------------------------------------------------------

def codes(rank):
    return st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])


@st.composite
def raw_letters(draw, rank=None, max_runs=12):
    """Letter lists, not reduced, mostly short runs and some up to 40 long."""
    rank = rank or draw(st.integers(1, 3))
    lengths = st.one_of(st.integers(1, 3), st.integers(4, 40))
    runs = draw(st.lists(st.tuples(codes(rank), lengths), max_size=max_runs))
    return rank, [c for c, k in runs for _ in range(k)]


@st.composite
def words(draw, rank=None):
    rank, letters = draw(raw_letters(rank))
    return Word(RANKS[rank], letters)


@st.composite
def token_texts(draw):
    """Token text over the rank's names, with exponents, not reduced."""
    rank = draw(st.integers(1, 3))
    names = RANKS[rank].names
    tokens = draw(st.lists(st.tuples(st.sampled_from(names),
                                     st.sampled_from([None, 1, 2, 3, -1, -2, -4])),
                           max_size=15))
    text = " ".join(n if k is None else "%s^%d" % (n, k) for n, k in tokens)
    spaces = draw(st.sampled_from([" ", "  ", "\t", "\n "]))
    return RANKS[rank], text.replace(" ", spaces)


# -- words -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(token_texts())
def test_parse_matches_token_loop(alphabet_text):
    alphabet, text = alphabet_text
    assert parse_word(text, alphabet).letters == oracle_parse(text, alphabet)


@settings(max_examples=200, deadline=None)
@given(words())
def test_str_matches_groupby(word):
    assert str(word) == oracle_str(word.letters, word.alphabet)
    assert parse_word(str(word), word.alphabet) == word


@st.composite
def long_run_words(draw):
    """Long reduced words: a run-free walk, then up to 60 of its letters
    stretched into runs, so that ``str`` takes its letter-by-letter route
    (no run or fewer than one per 16 letters) or its ``groupby`` route."""
    rank = draw(st.integers(2, 3))
    rng = draw(st.randoms(use_true_random=False))
    choices = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    base = [rng.choice(choices)]
    for _ in range(draw(st.integers(200, 600))):
        base.append(rng.choice([c for c in choices if abs(c) != abs(base[-1])]))
    for _ in range(draw(st.integers(0, 60))):
        i = draw(st.integers(0, len(base) - 1))
        base[i:i + 1] = [base[i]] * draw(st.integers(2, 8))
    return Word(RANKS[rank], base)


@settings(max_examples=200, deadline=None)
@given(long_run_words())
def test_str_of_long_words_matches_groupby(word):
    assert str(word) == oracle_str(word.letters, word.alphabet)


def test_str_of_omega_and_long_runs():
    for n in range(12):
        w = omega(n)
        assert str(w) == oracle_str(w.letters, w.alphabet)
    for k in (1, 2, 5000):
        w = Word(RANKS[2], [2] + [-1] * k + [2])
        assert str(w) == ("y x^-%d y" % k if k > 1 else "y x^-1 y")
    # run-free words: each inverse code names its own generator
    assert (str(Word(RANKS[3], [1, 2, 3, -1, -2, -3, 1]))
            == "x y z_2 x^-1 y^-1 z_2^-1 x")
    assert str(Word(RANKS[1], [-1])) == "x^-1"
    # runs at both ends of a long run-free stretch
    w = Word(RANKS[2], [1, 1, 1] + [2, 1] * 40 + [-2, -2])
    assert str(w) == "x^3 " + "y x " * 40 + "y^-2"
    assert str(Word(RANKS[1], [])) == ""


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(words(r), words(r))))
def test_products_match_full_reduction(pair):
    u, v = pair
    assert multiply(u, v).letters == stack_reduce(u.letters + v.letters)
    assert inverse(u).letters == tuple(-c for c in reversed(u.letters))
    assert commutator(u, v).letters == stack_reduce(
        u.letters + v.letters + inverse(u).letters + inverse(v).letters)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(words))
def test_deep_cancellation(word):
    # u * (u^-1 v) cancels all of u at one seam
    tail = Word(word.alphabet, (1, 1))
    assert multiply(word, multiply(inverse(word), tail)) == tail
    assert multiply(word, inverse(word)).letters == ()


def test_word_rejects_out_of_range_codes():
    for letters in ([3], [1, 0, 2], [-3, 1], [1, 2, -5]):
        with pytest.raises(ValueError, match="letter code out of range"):
            Word(RANKS[2], letters)
    with pytest.raises(ValueError, match=r"out of range: 0\Z"):
        Word(RANKS[2], [1, 0, 4])
    # codes that cancel away never reach the check, as before
    assert Word(RANKS[2], [5, -5]).letters == ()


@pytest.mark.parametrize("letters, bad", [
    ((1.5,), "1.5"), ((1, 2.0), "2.0"), ((True,), "True"), ((2, -1, "x"), "'x'")])
def test_word_rejects_codes_that_are_not_ints(letters, bad):
    with pytest.raises(ValueError, match=r"letter code not an int: %s\Z" % bad):
        Word(RANKS[2], letters)


@pytest.mark.parametrize("text,message", [
    ("x z", "unknown generator: 'z'"),
    ("x y^0 z", "zero exponent in token: 'y^0'"),
    ("x x^-00", "zero exponent in token: 'x^-00'"),
    ("y x^ y^0", "malformed token: 'x^'"),
    ("x^1.5 z", "malformed token: 'x^1.5'"),
    # exponents are ASCII digits, not any Unicode decimal int() would read
    ("x^\u0663", "malformed token: 'x^\u0663'"),
    ("x^\uff13", "malformed token: 'x^\uff13'"),
])
def test_parse_errors_keep_their_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_word(text, RANKS[2])
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        oracle_parse(text, RANKS[2])
    assert str(err.value) == message


# -- rewrite -----------------------------------------------------------------

@st.composite
def kernel_words(draw):
    """(d, f, word): a random word of the kernel of F -> Z_d, x -> 1."""
    rank = draw(st.integers(2, 3))
    d = draw(st.integers(2, 9))
    f = dict(zip(RANKS[rank].names, [1] + draw(st.lists(
        st.integers(0, d - 1), min_size=rank - 1, max_size=rank - 1))))
    letters = draw(raw_letters(rank))[1]
    residue = sum((1 if c > 0 else -1) * f[RANKS[rank][abs(c) - 1]]
                  for c in letters) % d
    return d, f, Word(RANKS[rank], letters + [-1] * residue)


@settings(max_examples=300, deadline=None)
@given(kernel_words())
def test_rewrite_matches_tree_edge_walk(case):
    d, f, w = case
    graph = stallings.kernel_graph(f, d, w.alphabet)
    transversal = stallings.schreier_transversal(graph, preferred="x")
    basis = stallings.schreier_basis(graph, transversal)
    got = stallings.rewrite(graph, transversal, basis, w)
    assert got.letters == oracle_rewrite(graph, transversal, basis, w)
    # a basis built by hand rewrites the same
    b = stallings.SchreierBasis(basis.alphabet, basis.transversal, basis.edges)
    assert stallings.rewrite(graph, transversal, b, w) == got
    outside = multiply(w, Word(w.alphabet, [1]))
    with pytest.raises(stallings.NotInSubgroupError):
        stallings.rewrite(graph, transversal, basis, outside)
    with pytest.raises(stallings.NotInSubgroupError):
        oracle_rewrite(graph, transversal, basis, outside)
