"""Acceptance battery: one test per exit criterion, each printing a
pass/fail line with its runtime (visible with ``pytest -s`` or on failure).

Every expected number here is either a published value of the argument
being mechanized or was frozen from an independent oracle (path counting,
repeated matrix multiplication, closed forms).
"""

import random
import time
from contextlib import contextmanager

from fglab import engine, magnus, stallings
from fglab.engine import KernelSpec
from fglab.words import XY, commutator, omega, parse_word

from test_stallings import index3_graph, kernel_machinery, random_kernel_element


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    print("PASS criterion %d: %s (%.2fs)" % (number, label, elapsed))
    assert elapsed < budget_s, "criterion %d exceeded %gs" % (number, budget_s)


def test_criterion_1_omega0_p_vector():
    with criterion(1, "p_vector(omega_0) = (-1, 1, 0, ...) for d in {2,3,5,7,12}", 1):
        for d in (2, 3, 5, 7, 12):
            assert engine.p_vector(KernelSpec(d), omega(0)) == \
                (-1, 1) + (0,) * (d - 2)


def test_criterion_2_rewriting_and_conjugation():
    with criterion(2, "omega_0 = b2 b1^-1 at d=3; conjugation cycle for d <= 7", 1):
        g, t, b = kernel_machinery(3)
        assert str(stallings.rewrite(g, t, b, omega(0))) == "b2 b1^-1"
        for d in range(2, 8):
            table = engine.conjugation_table(KernelSpec(d))
            assert str(table["a"]) == "a"
            for k in range(1, d):
                assert str(table["b%d" % k]) == "b%d" % (k + 1)
            assert str(table["b%d" % d]) == "a b1 a^-1"


def test_criterion_3_three_route_agreement():
    with criterion(3, "rewriting = matrix power = path counting, d in {2,3,5}, n <= 8", 10):
        for d in (2, 3, 5):
            spec = KernelSpec(d)
            g, t, b = kernel_machinery(d)
            for n in range(9):
                w = omega(n)
                via_rewriting = engine.p_vector(spec, w)
                via_matrix = engine.iterate(d, n)
                # oracle: signed y-loop traversal counts per residue
                counts = [0] * d
                residue = 0
                for c in w.letters:
                    if abs(c) == 2:
                        counts[residue] += 1 if c > 0 else -1
                    else:
                        residue = (residue + (1 if c > 0 else -1)) % d
                assert via_rewriting == via_matrix == tuple(counts)


def test_criterion_4_spectral_identities():
    with criterion(4, "char poly = (1-lambda)^d - 1 and exact eigenpairs, d <= 12", 10):
        for d in range(2, 13):
            assert engine.char_poly_check(d)
            pairs = engine.eigen_check(d)
            assert len(pairs) == d and all(p.ok for p in pairs)


def test_criterion_5_nonvanishing():
    with criterion(5, "A^n v_0 != 0 for all n, and by iteration for n <= 100, d <= 12; "
                      "d=2 entries are +-2^n", 30):
        for d in range(2, 13):
            assert engine.nonvanishing_check(d)
            # oracle: repeated exact multiplication
            a, v = engine.transition_matrix(d), engine.start_vector(d)
            for n in range(1, 101):
                v = engine._mat_vec(a, v)
                assert any(v)
        for n in range(101):
            assert engine.iterate(2, n) == (-(2 ** n), 2 ** n)


def test_criterion_6_witness_soundness():
    with criterion(6, "certificates for 2 <= d <= 7, 2 <= m <= 8, re-checked", 60):
        for m in range(2, 9):
            word = omega(m - 2)
            assert magnus.in_lcs(word, m, m + 1)
            for d in range(2, 8):
                cert = engine.witness(d, m)
                assert cert.witness == word and cert.cap == m + 1
                g, t, b = kernel_machinery(d)
                assert not stallings.in_derived_subgroup(g, t, b, word)


def test_criterion_7_stallings_fixtures():
    with criterion(7, "paper subgroup: index 3, non-normal; kernels: index d, normal", 1):
        g = index3_graph()
        assert stallings.index(g) == 3
        assert not stallings.is_normal(g)
        for d in range(2, 13):
            k = stallings.kernel_graph({"x": 1, "y": 0}, d, XY)
            assert stallings.index(k) == d
            assert stallings.is_normal(k)


def test_criterion_8_round_trip():
    with criterion(8, "evaluate(rewrite(w)) = w for 10^3 random elements per kernel", 30):
        rng = random.Random(2026)
        for d in (2, 3, 5):
            g, t, b = kernel_machinery(d)
            for _ in range(1000):
                w = random_kernel_element(rng, d)
                assert stallings.evaluate(
                    b, stallings.rewrite(g, t, b, w)) == w


def test_criterion_9_magnus_properties():
    with criterion(9, "Magnus multiplicativity/inverse at cap 6; omega weights", 60):
        from test_words import random_word
        rng = random.Random(2027)
        for _ in range(1000):
            u, v = random_word(rng, XY, 10), random_word(rng, XY, 10)
            eu, ev = magnus.magnus_expand(u, 6), magnus.magnus_expand(v, 6)
            assert magnus.magnus_expand(u * v, 6) == magnus.series_mul(eu, ev)
            from fglab.words import inverse
            assert magnus.series_mul(
                eu, magnus.magnus_expand(inverse(u), 6)) == magnus.series_one(6)
        for n in range(6):
            assert magnus.lcs_weight(omega(n), n + 3) == n + 2


def test_criterion_10_negative_control():
    with criterion(10, "products of <= 5 commutators of kernel elements land in G_2", 30):
        rng = random.Random(2028)
        for d in (2, 3, 5):
            g, t, b = kernel_machinery(d)
            ident = parse_word("", XY)
            for _ in range(100):
                w = ident
                for _ in range(rng.randrange(1, 6)):
                    u = random_kernel_element(rng, d, 16)
                    v = random_kernel_element(rng, d, 16)
                    w = w * commutator(u, v)
                assert stallings.in_derived_subgroup(g, t, b, w)
