import random

import pytest

from fglab.magnus import (IDENTITY, AtLeast, NoncommSeries, bracket_expand,
                          in_lcs, lcs_weight, magnus_expand, series_mul,
                          series_one)
from fglab.words import (XY, exponent_sums, identity, inverse, multiply, omega,
                         omega_bracket)

from test_words import random_word

X, Y = 0, 1


def s(cap, terms):
    return NoncommSeries(cap, terms)


class TestSeriesMul:
    def test_geometric_inverse_truncates(self):
        left = s(2, {(): 1, (X,): 1})
        right = s(2, {(): 1, (X,): -1, (X, X): 1})
        assert series_mul(left, right) == series_one(2)

    def test_one_is_neutral(self):
        t = s(3, {(X,): 2, (Y, X): -5})
        assert series_mul(t, series_one(3)) == t
        assert series_mul(series_one(3), t) == t

    def test_two_variables(self):
        got = series_mul(s(2, {(): 1, (X,): 1}), s(2, {(): 1, (Y,): 1}))
        assert got == s(2, {(): 1, (X,): 1, (Y,): 1, (X, Y): 1})

    def test_cap_mismatch(self):
        with pytest.raises(ValueError):
            series_mul(series_one(2), series_one(3))


class TestExpand:
    def test_single_generator(self):
        from fglab.words import generator
        assert magnus_expand(generator(XY, "x"), 3) == s(3, {(): 1, (X,): 1})

    def test_commutator_lowest_term(self):
        assert magnus_expand(omega(0), 2) == s(
            2, {(): 1, (X, Y): 1, (Y, X): -1})

    def test_identity_word(self):
        assert magnus_expand(identity(XY), 4) == series_one(4)

    @pytest.mark.parametrize("build", [
        lambda: NoncommSeries(0), lambda: magnus_expand(omega(0), 0),
        lambda: bracket_expand(omega_bracket(0), 0)],
        ids=["series", "magnus_expand", "bracket_expand"])
    def test_cap_below_one_rejected(self, build):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            build()

    def test_inverse_letter_series(self):
        from fglab.words import parse_word
        got = magnus_expand(parse_word("x^-1", XY), 3)
        assert got == s(3, {(): 1, (X,): -1, (X, X): 1, (X, X, X): -1})

    def test_constant_term_always_one(self):
        rng = random.Random(23)
        for _ in range(100):
            w = random_word(rng, XY, 15)
            assert magnus_expand(w, 4).terms.get((), 0) == 1

    def test_multiplicative(self):
        rng = random.Random(29)
        for _ in range(1000):
            u, v = random_word(rng, XY, 10), random_word(rng, XY, 10)
            assert magnus_expand(multiply(u, v), 6) == series_mul(
                magnus_expand(u, 6), magnus_expand(v, 6))

    def test_inverse_law(self):
        rng = random.Random(31)
        for _ in range(300):
            w = random_word(rng, XY, 12)
            assert series_mul(magnus_expand(w, 6),
                              magnus_expand(inverse(w), 6)) == series_one(6)


class TestWeight:
    def test_generator_weight_one(self):
        from fglab.words import generator
        assert lcs_weight(generator(XY, "x"), 4) == 1

    def test_commutator_weight_two(self):
        assert lcs_weight(omega(0), 4) == 2

    def test_identity(self):
        assert lcs_weight(identity(XY), 4) is IDENTITY

    def test_omega_weights(self):
        for n in range(6):
            assert lcs_weight(omega(n), n + 3) == n + 2

    def test_deep_word_reports_at_least(self):
        assert lcs_weight(omega(3), 3) == AtLeast(4)

    def test_abelian_consistency(self):
        rng = random.Random(37)
        for _ in range(300):
            w = random_word(rng, XY, 20)
            if not w:
                continue
            weight = lcs_weight(w, 4)
            deep = weight is IDENTITY or (
                weight.bound if isinstance(weight, AtLeast) else weight) >= 2
            assert deep == (exponent_sums(w) == (0, 0))

    def test_commutator_superadditive(self):
        from fglab.words import commutator
        rng = random.Random(41)
        for _ in range(200):
            u, v = random_word(rng, XY, 8), random_word(rng, XY, 8)
            wu, wv = lcs_weight(u, 6), lcs_weight(v, 6)
            if not (isinstance(wu, int) and isinstance(wv, int)):
                continue
            if wu + wv > 6:
                continue
            wc = lcs_weight(commutator(u, v), 6)
            if isinstance(wc, AtLeast):
                wc = wc.bound
            if wc is not IDENTITY:
                assert wc >= wu + wv


class TestInLcs:
    def test_examples(self):
        from fglab.words import generator
        assert in_lcs(omega(3), 5, 8)
        assert not in_lcs(generator(XY, "x"), 2, 4)
        assert in_lcs(identity(XY), 99, 99)

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            in_lcs(omega(0), 5, 4)

    def test_term_below_one_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            in_lcs(omega(0), 0, 4)
