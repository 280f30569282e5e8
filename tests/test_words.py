import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.words import (MAX_WORD_LETTERS, XY, Alphabet, ParseError, Word,
                         commutator, exponent_sums, free_reduce, generator,
                         identity, inverse, multiply, omega, parse_word,
                         parse_words)


def random_word(rng, alphabet, max_len):
    n = rng.randrange(max_len + 1)
    letters = [rng.choice([1, -1]) * rng.randrange(1, len(alphabet) + 1)
               for _ in range(n)]
    return Word(alphabet, letters)


class TestAlphabet:
    def test_order_is_stable(self):
        a = Alphabet(["x", "y", "z_2"])
        assert a.index("x") == 0 and a.index("z_2") == 2
        assert list(a) == ["x", "y", "z_2"]

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError):
            Alphabet(["x", "x"])
        with pytest.raises(ValueError):
            Alphabet(["2x"])
        with pytest.raises(ValueError):
            Alphabet([""])

    @pytest.mark.parametrize("names, message", [
        (["x", "y", "x", "2z", "y"], "duplicate generator name: 'x'"),
        (["x", "y", "2z", "x", "y"], "bad generator name: '2z'"),
    ])
    def test_first_bad_name_in_order_is_named(self, names, message):
        # the checks run in bulk, but the error names the first offending
        # entry, as a loop over the names finds it
        with pytest.raises(ValueError) as err:
            Alphabet(names)
        assert str(err.value) == message


class TestParse:
    def test_no_reduction(self):
        w = parse_word("x y^-1", XY)
        assert len(w) == 2
        assert str(w) == "x y^-1"

    def test_cancellation(self):
        assert parse_word("x x^-1", XY) == identity(XY)

    def test_omega0_literal(self):
        assert parse_word("x y x^-1 y^-1", XY) == omega(0)

    def test_exponent_sugar(self):
        assert parse_word("x^-2", XY).letters == (-1, -1)
        assert str(parse_word("x^2 x^-3", XY)) == "x^-1"

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_word("z", XY)
        with pytest.raises(ParseError):
            parse_word("x^0", XY)
        with pytest.raises(ParseError):
            parse_word("x^", XY)
        with pytest.raises(ParseError):
            parse_word("x^1.5", XY)

    def test_letter_bound_counts_every_occurrence(self):
        # each token alone is small; the text spells one letter too many
        piece = MAX_WORD_LETTERS // 64
        with pytest.raises(ParseError, match="more than the %d allowed"
                           % MAX_WORD_LETTERS):
            parse_word(" ".join(["x^%d" % piece] * 64 + ["y^-1"]), XY)
        with pytest.raises(ParseError, match="1000000001 letters"):
            parse_word("y x^1000000000", XY)
        # the longest token times the token count passes the bound; the
        # letters themselves do not
        assert len(parse_word(" ".join(["x^100000"] + ["y"] * 1000), XY)) \
            == 101000

    @pytest.mark.parametrize("digits", [19, 4299, 5000])
    def test_long_exponent_is_refused_by_its_length(self, digits):
        # never read by int(), which refuses 4300 digits or more; the
        # message gives the length, not a count as long as the exponent
        for sign in ("", "-"):
            with pytest.raises(ParseError) as caught:
                parse_word("y x^%s%s" % (sign, "9" * digits), XY)
            assert str(caught.value) == (
                "token x^... has a %d-digit exponent, more than the %d "
                "letters allowed" % (digits, MAX_WORD_LETTERS))

    def test_leading_zeros_do_not_count(self):
        assert parse_word("x^0000000000001", XY) == parse_word("x", XY)
        assert parse_word("y^-%s3" % ("0" * 5000), XY) == parse_word("y^-3", XY)
        with pytest.raises(ParseError, match="more than the 67108864 allowed"):
            parse_word("x^%s999999999999999999" % ("0" * 5000), XY)
        with pytest.raises(ParseError, match="zero exponent"):
            parse_word("x^-%s" % ("0" * 5000), XY)

    def test_round_trip_canonical_form(self):
        rng = random.Random(7)
        for _ in range(500):
            w = random_word(rng, XY, 30)
            assert parse_word(str(w), XY) == w


token_texts = st.lists(
    st.tuples(st.sampled_from(["x", "y"]),
              st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
              st.sampled_from([" ", "  ", "\t", "\n "])),
    max_size=12).map(lambda tokens: "".join(
        (name if k is None else "%s^%d" % (name, k)) + gap
        for name, k, gap in tokens))


class TestParseWords:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(token_texts, max_size=6))
    def test_equals_parse_word_text_by_text(self, texts):
        assert parse_words(texts, XY) == [parse_word(t, XY) for t in texts]

    def test_empty_list_and_empty_text(self):
        assert parse_words([], XY) == []
        assert parse_words(["", " "], XY) == [identity(XY)] * 2

    def test_first_bad_token_of_the_first_bad_text(self):
        with pytest.raises(ParseError, match="malformed token: 'x\\^'"):
            parse_words(["x y", "y x^ z", "z x^1.5"], XY)
        with pytest.raises(ParseError, match="zero exponent in token: 'y\\^0'"):
            parse_words(["x", "y^0 x^", "x^"], XY)

    def test_letter_bound_counts_all_texts(self):
        # each text passes the bound; together they spell one letter too many
        half = MAX_WORD_LETTERS // 2
        with pytest.raises(ParseError, match="the words have %d letters, more "
                           "than the %d allowed" % (MAX_WORD_LETTERS + 1,
                                                    MAX_WORD_LETTERS)):
            parse_words(["x^%d" % half, "y^%d x^-1" % half], XY)
        texts = ["x^60000000", "y^60000000", "x y^60000000 x"]
        with pytest.raises(ParseError, match="180000002 letters"):
            parse_words(texts, XY)


class TestGroupOps:
    def test_multiply_single_cancellation(self):
        u = parse_word("x y", XY)
        v = parse_word("y^-1 x", XY)
        assert str(multiply(u, v)) == "x^2"

    def test_identity_neutral(self):
        u = parse_word("x y x", XY)
        assert multiply(u, identity(XY)) == u
        assert multiply(identity(XY), u) == u

    def test_full_cancellation(self):
        u = parse_word("x y x^-1", XY)
        assert multiply(u, inverse(u)) == identity(XY)

    def test_alphabet_mismatch(self):
        other = Alphabet(["a", "b"])
        with pytest.raises(ValueError):
            multiply(parse_word("x", XY), parse_word("a", other))

    def test_generator_negative_power(self):
        assert str(generator(XY, "y", -2)) == "y^-2"
        assert generator(XY, "x", -3) == inverse(generator(XY, "x", 3))

    def test_inverse_examples(self):
        assert str(inverse(parse_word("x y", XY))) == "y^-1 x^-1"
        assert inverse(identity(XY)) == identity(XY)
        assert str(inverse(omega(0))) == "y x y^-1 x^-1"

    def test_commutator_definition(self):
        x, y = generator(XY, "x"), generator(XY, "y")
        assert str(commutator(x, y)) == "x y x^-1 y^-1"
        assert commutator(x, x) == identity(XY)
        assert commutator(x, identity(XY)) == identity(XY)

    def test_group_laws_random(self):
        rng = random.Random(11)
        for _ in range(300):
            u, v, w = (random_word(rng, XY, 16) for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
            assert multiply(u, inverse(u)) == identity(XY)


class TestReduction:
    def test_idempotent_on_reduced_words(self):
        rng = random.Random(3)
        for _ in range(10_000):
            w = random_word(rng, XY, 64)
            assert free_reduce(w.letters) == w.letters

    def test_no_adjacent_inverse_pairs(self):
        rng = random.Random(5)
        for _ in range(2000):
            w = random_word(rng, XY, 64)
            assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


class TestOmega:
    def test_base_case(self):
        assert str(omega(0)) == "x y x^-1 y^-1"

    def test_recursion(self):
        x = generator(XY, "x")
        for n in range(21):
            assert omega(n + 1) == commutator(omega(n), x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            omega(-1)

    def test_letter_bound(self):
        # len(omega_n) = 2^(n+2) + 2 for n >= 1: omega_23 fits, omega_24 not
        assert len(omega(5)) == 2 ** 7 + 2
        assert 2 ** 25 + 2 <= MAX_WORD_LETTERS < 2 ** 26 + 2
        for n in (24, 30, 10 ** 9):
            with pytest.raises(ValueError, match="omega_%d has" % n):
                omega(n)


class TestExponentSums:
    def test_examples(self):
        assert exponent_sums(parse_word("x y^-1", XY)) == (1, -1)
        assert exponent_sums(omega(0)) == (0, 0)
        assert exponent_sums(parse_word("x^3", XY)) == (3, 0)

    def test_omega_abelianizes_to_zero(self):
        for n in range(21):
            assert exponent_sums(omega(n)) == (0, 0)

    def test_homomorphism(self):
        rng = random.Random(13)
        for _ in range(300):
            u, v = random_word(rng, XY, 20), random_word(rng, XY, 20)
            su, sv = exponent_sums(u), exponent_sums(v)
            assert exponent_sums(multiply(u, v)) == tuple(
                a + b for a, b in zip(su, sv))
            assert exponent_sums(commutator(u, v)) == (0, 0)
