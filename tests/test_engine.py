import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglab import engine, magnus, stallings, words
from fglab.cli import MAX_VERIFY_D, main
from fglab.engine import (KernelSpec, VerificationError, canonical_basis,
                          char_poly_check, conjugation_table, eigen_check,
                          iterate, nonvanishing_check, p_vector, path_counts,
                          transition_matrix, verify_recurrence, witness)
from fglab.words import (XY, Alphabet, Word, bracket_word, commutator,
                         generator, inverse, omega, omega_bracket, parse_word)


class TestCanonicalBasis:
    def test_d3(self):
        b = canonical_basis(KernelSpec(3))
        assert [str(b.word(i)) for i in range(4)] == ["x^3", "y", "x y x^-1",
                                                     "x^2 y x^-2"]

    def test_d2(self):
        b = canonical_basis(KernelSpec(2))
        assert [str(b.word(i)) for i in range(3)] == ["x^2", "y", "x y x^-1"]

    def test_d5(self):
        b = canonical_basis(KernelSpec(5))
        assert len(b.edges) == 6
        assert str(b.word(0)) == "x^5"

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(1)


class TestConjugationTable:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_cycle_structure(self, d):
        table = conjugation_table(KernelSpec(d))
        assert str(table["a"]) == "a"
        for k in range(1, d):
            assert str(table["b%d" % k]) == "b%d" % (k + 1)
        assert str(table["b%d" % d]) == "a b1 a^-1"

    def test_wrong_rewriting_fails(self, monkeypatch):
        rewrite = stallings.rewrite
        monkeypatch.setattr(stallings, "rewrite",
                            lambda *args: inverse(rewrite(*args)))
        with pytest.raises(VerificationError,
                           match="conjugation of a gave a\\^-1, expected a"):
            conjugation_table(KernelSpec(3))


class TestPVector:
    def test_omega0_d3(self):
        assert p_vector(KernelSpec(3), omega(0)) == (-1, 1, 0)

    def test_omega1(self):
        assert p_vector(KernelSpec(3), omega(1)) == (-1, 2, -1)
        assert p_vector(KernelSpec(2), omega(1)) == (-2, 2)

    def test_omega0_padded_with_zeros(self):
        for d in (2, 3, 5, 7, 12):
            assert p_vector(KernelSpec(d), omega(0)) == (-1, 1) + (0,) * (d - 2)

    def test_rejects_non_kernel_words(self):
        with pytest.raises(stallings.NotInSubgroupError):
            p_vector(KernelSpec(3), parse_word("x", XY))

    def test_a_exponent_vanishes_on_witnesses(self):
        for n in range(7):
            a_sum, _ = engine.basis_exponents(KernelSpec(3), omega(n))
            assert a_sum == 0


class TestTransitionMatrix:
    def test_d2(self):
        assert transition_matrix(2) == ((1, -1), (-1, 1))

    def test_d3(self):
        assert transition_matrix(3) == ((1, 0, -1), (-1, 1, 0), (0, -1, 1))

    def test_zero_row_and_column_sums(self):
        for d in range(2, 21):
            m = transition_matrix(d)
            assert all(sum(row) == 0 for row in m)
            assert all(sum(col) == 0 for col in zip(*m))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix(1)


class TestIterate:
    def test_n0_is_start_vector(self):
        assert iterate(3, 0) == (-1, 1, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            iterate(3, -1)

    def test_d2_closed_form(self):
        for n in range(61):
            assert iterate(2, n) == (-(2 ** n), 2 ** n)

    def test_two_hand_multiplications(self):
        assert iterate(3, 2) == (0, 3, -3)

    def test_matches_repeated_multiplication(self):
        for d in (3, 5, 7):
            m = transition_matrix(d)
            v0 = v = engine.start_vector(d)
            for n in range(30):
                assert iterate(d, n) == v
                # A = I - S for the cyclic shift (S v)_i = v_(i-1), so
                # A^n = sum_k (-1)^k C(n, k) S^k
                assert iterate(d, n) == tuple(
                    sum((-1) ** k * comb(n, k) * v0[(i - k) % d]
                        for k in range(n + 1))
                    for i in range(d))
                v = engine._mat_vec(m, v)


def perturb_matrix(monkeypatch):
    """Make engine.transition_matrix(5) return A with A[2][0] off by one."""
    a = [list(row) for row in transition_matrix(5)]
    a[2][0] += 1
    monkeypatch.setattr(engine, "transition_matrix",
                        lambda d: tuple(map(tuple, a)))


class TestRecurrence:
    @pytest.mark.parametrize("d,n_max", [(3, 6), (2, 8), (5, 5)])
    def test_rewriting_matches_matrix_power(self, d, n_max):
        report = verify_recurrence(KernelSpec(d), n_max)
        assert report["ok"] and report["checked"] == n_max + 1

    def test_single_step_recurrence(self):
        for d in (2, 3, 4):
            spec = KernelSpec(d)
            m = transition_matrix(d)
            for n in range(5):
                assert p_vector(spec, omega(n + 1)) == engine._mat_vec(
                    m, p_vector(spec, omega(n)))

    def test_perturbed_matrix_fails(self, monkeypatch):
        perturb_matrix(monkeypatch)
        with pytest.raises(VerificationError, match="d=5 n=1: rewriting"):
            verify_recurrence(KernelSpec(5), 3)

    def test_nonzero_a_exponent_fails(self, monkeypatch):
        # plant a = 1 in every node's sums, P left as rewriting gives it
        exponents = stallings.bracket_exponents
        monkeypatch.setattr(stallings, "bracket_exponents", lambda *args: [
            (end, (1,) + sums[1:]) for end, sums in exponents(*args)])
        with pytest.raises(VerificationError,
                           match="d=3 n=0: nonzero a-exponent 1"):
            verify_recurrence(KernelSpec(3), 2)

    def test_loose_end_fails(self, monkeypatch):
        exponents = stallings.bracket_exponents
        monkeypatch.setattr(stallings, "bracket_exponents", lambda *args: [
            (1, sums) for _, sums in exponents(*args)])
        with pytest.raises(VerificationError, match=re.escape(
                "d=3 n=0: rewriting gave (-1, 1, 0) at vertex 1, matrix gave "
                "(-1, 1, 0)")):
            verify_recurrence(KernelSpec(3), 2)

    @pytest.mark.parametrize("d", [2, 3, 7, 24])
    def test_spells_and_rewrites_no_flat_word(self, d, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_recurrence built or rewrote a flat word")
        for module, name in ((words, "commutator"), (engine, "commutator"),
                             (stallings, "rewrite"), (engine, "basis_exponents")):
            # engine no longer imports commutator: set it all the same, so
            # that an import of it back into engine is caught
            monkeypatch.setattr(module, name, refuse, raising=False)
        assert verify_recurrence(KernelSpec(d), 8)["ok"]

    def test_commutator_chain_spells_omega(self):
        # omega_(n+1) = [omega_n, x]: omega_bracket's pair (n + 2, 0), which
        # verify_recurrence rewrites as a node, not as letters
        x, word = generator(XY, "x"), omega(0)
        for n in range(12):
            assert word == omega(n)
            word = commutator(word, x)

    @pytest.mark.parametrize("n_max", [0, 24, 10 ** 6])
    def test_n_max_out_of_range_rejected(self, n_max):
        # omega_24 would have 2^26 + 2 letters; nothing is rewritten
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            verify_recurrence(KernelSpec(3), n_max)


def fraction_det(m):
    """Oracle: Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            if a[i][k]:
                ratio = a[i][k] / a[k][k]
                a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return det


@st.composite
def dense_matrices(draw):
    size = draw(st.integers(0, 7))
    # small entries make zero pivots and singular matrices common
    rows = [draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
            for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])   # a repeated row: singular
    return rows


@st.composite
def banded_matrices(draw):
    """The shape of A - lambda I: a diagonal, a subdiagonal and a corner."""
    size = draw(st.integers(1, 12))
    entry = st.integers(-3, 3)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = draw(entry)
        rows[i][i - 1] += draw(entry)   # row 0 gets the corner (0, size - 1)
    return rows


@st.composite
def sparse_matrices(draw):
    """Up to 3 nonzeros a row, with rows repeated or zeroed.

    Each row has a nonzero in a column of a drawn permutation, so most
    matrices are regular and run to the last column; small entries make the
    elimination fill in and cancel, which the column index must follow.
    """
    size = draw(st.integers(1, 25))
    columns = draw(st.permutations(range(size)))
    rows = []
    for i in range(size):
        row = [0] * size
        for j in draw(st.lists(st.integers(0, size - 1), max_size=2)):
            row[j] = draw(st.integers(-2, 2))
        row[columns[i]] = draw(st.sampled_from([-2, -1, 1, 2]))
        rows.append(row)
    for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        rows[i] = list(rows[draw(st.integers(0, size - 1))]) if draw(
            st.booleans()) else [0] * size
    return rows


square_matrices = st.one_of(dense_matrices(), banded_matrices())


def det(m):
    """The engine's determinant of a list of rows."""
    return engine._sparse_det(engine._rows(m))


def permutation_sign(p):
    """Oracle: (-1) to the number of inversions."""
    return (-1) ** sum(a > b for a, b in combinations(p, 2))


class TestDeterminant:
    @given(square_matrices)
    def test_matches_rational_elimination(self, m):
        assert det(m) == fraction_det(m)

    def test_zero_leading_pivot(self):
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    @pytest.mark.parametrize("size", range(1, 6))
    def test_permutation_matrices(self, size):
        # every pivot is 1, so the sign comes from the pivot order alone
        for p in permutations(range(size)):
            m = [[int(j == p[i]) for j in range(size)] for i in range(size)]
            assert det(m) == permutation_sign(p)

    @settings(deadline=None)
    @given(sparse_matrices())
    def test_sparse_matches_rational_elimination(self, m):
        assert det(m) == fraction_det(m)


def interpolate(values):
    """Oracle: coefficients, lowest first, of the polynomial of degree
    < len(values) that takes values[k] at k, by Lagrange's formula."""
    n, coefficients = len(values), [Fraction(0)] * len(values)
    for i, y in enumerate(values):
        basis, scale = [1], 1
        for j in range(n):
            if j != i:   # basis *= (lambda - j)
                basis = [a - j * b for a, b in zip([0] + basis, basis + [0])]
                scale *= i - j
        for k, c in enumerate(basis):
            coefficients[k] += Fraction(y * c, scale)
    return coefficients


def balanced_digits(value, base):
    """Digits r_k with |r_k| <= base / 2 and value = sum r_k base^k."""
    digits = []
    while value:
        r = value % base
        r -= base if 2 * r > base else 0
        digits.append(r)
        value = (value - r) // base
    return digits


def shifted(m, lam):
    """M - lambda I, as a list of rows."""
    return [[x - lam * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(m)]


class TestCharPoly:
    @pytest.mark.parametrize("d", [*range(2, 25), 60, MAX_VERIFY_D])
    def test_matches_closed_form(self, d):
        assert char_poly_check(d)

    def test_perturbed_matrix_fails(self, monkeypatch):
        perturb_matrix(monkeypatch)
        assert not char_poly_check(5)

    def test_agreement_inside_the_old_range_fails(self, monkeypatch):
        # C is the companion matrix of lambda^5 - 6 lambda^4 + 16 lambda^3
        # - 21 lambda^2 + 11 lambda, so det(C - lambda I) = (1 - lambda)^5 - 1
        # + lambda (lambda - 1) (lambda - 2) (lambda - 3): the d + 1 = 6 points
        # 0..5 would catch it, but any point in 0..3 would not
        c = ((0, 0, 0, 0, 0), (1, 0, 0, 0, -11), (0, 1, 0, 0, 21),
             (0, 0, 1, 0, -16), (0, 0, 0, 1, 6))
        monkeypatch.setattr(engine, "transition_matrix", lambda d: c)
        for lam in range(6):
            agrees = fraction_det(shifted(c, lam)) == (1 - lam) ** 5 - 1
            assert agrees == (lam <= 3)
        assert not char_poly_check(5)

    @settings(deadline=None)
    @given(st.one_of(square_matrices, sparse_matrices()))
    @example([[0, -1], [0, 5]])
    def test_digits_at_the_point_are_the_coefficients(self, m):
        # Kronecker substitution: the balanced base-B digits of
        # det(M - B I) are the coefficients of det(M - lambda I)
        point = engine._past_coefficients(engine._rows(m))
        assert point >= 3   # below 3, balanced digits never end
        coefficients = interpolate(
            [fraction_det(shifted(m, lam)) for lam in range(len(m) + 1)])
        assert balanced_digits(det(shifted(m, point)), point) == coefficients


def ring_monomial(d, e):
    """t^e in Z[t]/(t^d - 1), as its d dense coefficients."""
    out = [0] * d
    out[e % d] = 1
    return out


def ring_mul(d, p, q):
    """The product of two dense elements of Z[t]/(t^d - 1)."""
    out = [0] * d
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            out[(a + b) % d] += pa * qb
    return out


def is_eigenpair(d, value, vector):
    """Oracle: A vector = value vector in Z[t]/(t^d - 1), densely, entry by entry."""
    for row, x in zip(transition_matrix(d), vector):
        left = [sum(a * y[c] for a, y in zip(row, vector)) for c in range(d)]
        if left != ring_mul(d, value, x):
            return False
    return True


def eigenpair(d, j, sign=-1):
    """1 - t^j and the vector with entries t^(sign k j), k = 0..d-1."""
    one, t_j = ring_monomial(d, 0), ring_monomial(d, j)
    return ([o - t for o, t in zip(one, t_j)],
            [ring_monomial(d, sign * k * j) for k in range(d)])


class TestEigen:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_all_pairs_verify(self, d):
        pairs = eigen_check(d)
        assert len(pairs) == d and all(p.ok for p in pairs)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_dense_oracle_confirms_every_pair(self, d):
        # the pair eigen_check's j stands for, as EigenPair documents it
        assert [p.j for p in eigen_check(d)] == list(range(1, d + 1))
        for j in range(1, d + 1):
            assert is_eigenpair(d, *eigenpair(d, j))

    def test_dense_oracle_rejects_the_conjugate_vector(self):
        # x_j[k] = t^(kj) is an eigenvector for 1 - t^-j, not for 1 - t^j
        assert not is_eigenpair(5, *eigenpair(5, 1, sign=1))

    def test_last_eigenvalue_is_zero(self):
        # j = d: the value 1 - t^d is 0 and x_d is all ones, so A 1 = 0
        for d in (3, 5, 8):
            assert eigen_check(d)[-1].j == d
            assert is_eigenpair(d, [0] * d, [ring_monomial(d, 0)] * d)

    def test_memory_stays_linear(self):
        # a sparse residue dict per j and offset shape: the peak stays far
        # below d^2 entries, and the result keeps only (j, ok) per pair
        tracemalloc.start()
        try:
            eigen_check(100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
        tracemalloc.start()
        try:
            pairs = eigen_check(MAX_VERIFY_D)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pairs) == MAX_VERIFY_D and kept < 64 * 1024

    def test_perturbed_matrix_fails(self, monkeypatch):
        # the extra entry adds t^0 to row 2 of A x_j, for every j
        perturb_matrix(monkeypatch)
        with pytest.raises(VerificationError,
                           match=r"d=5, j=\[1, 2, 3, 4, 5\]"):
            eigen_check(5)


def bounded_nonvanishing(d, n_max):
    """Oracle: A^n v_0 != 0 for 1 <= n <= n_max by repeated multiplication."""
    a = transition_matrix(d)
    v = engine.start_vector(d)
    for _ in range(n_max):
        v = engine._mat_vec(a, v)
        if not any(v):
            return False
    return True


class TestNonvanishing:
    def test_desk_scale(self):
        for d in (2, 3, 6):
            assert nonvanishing_check(d)
            assert bounded_nonvanishing(d, 100)

    def test_zero_sum_conservation(self):
        for d in (2, 3, 5, 12):
            for n in (0, 1, 7, 25):
                assert sum(iterate(d, n)) == 0

    @pytest.mark.parametrize("v0", [(1, 0, 0, 0), (0, 0, 0, 0)])
    def test_bad_start_vector_fails(self, monkeypatch, v0):
        monkeypatch.setattr(engine, "start_vector", lambda d: v0)
        assert not nonvanishing_check(4)

    def test_two_dimensional_kernel_fails(self, monkeypatch):
        # two blocks of the d = 2 matrix: rows and columns still sum to 0,
        # but (1, 1, 0, 0) and (0, 0, 1, 1) both lie in the kernel
        blocks = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
        monkeypatch.setattr(engine, "transition_matrix", lambda d: blocks)
        assert not nonvanishing_check(4)


class TestPathCounts:
    @pytest.mark.parametrize("d", (2, 3, 5, 8))
    def test_matches_rewriting(self, d):
        for n in range(8):
            assert path_counts(d, omega(n)) == \
                engine.basis_exponents(KernelSpec(d), omega(n))

    def test_a_steps(self):
        for text, want in [("x^3 y x^-3", (0, (1, 0, 0))),
                           ("x^3 y", (1, (1, 0, 0))),
                           ("x^-3 y", (-1, (1, 0, 0))),
                           ("x^-1 y x", (0, (0, 0, 1)))]:
            word = parse_word(text, XY)
            assert path_counts(3, word) == want
            assert engine.basis_exponents(KernelSpec(3), word) == want

    def test_rejects_non_kernel_words(self):
        with pytest.raises(VerificationError):
            path_counts(3, parse_word("x y", XY))

    @pytest.mark.parametrize("text", ["z", "z x z^-1 x^-1"])
    def test_rejects_other_alphabets(self, text):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            path_counts(3, parse_word(text, Alphabet(("x", "y", "z"))))

    def test_counts_over_y_x(self):
        yx = Alphabet(("y", "x"))
        for text in ("x^3 y x^-3", "x^-1 y x", "y x y^-1 x^-1", "x^-3 y"):
            assert path_counts(3, parse_word(text, yx)) == \
                path_counts(3, parse_word(text, XY))
        assert path_counts(3, parse_word("x^-1 y x", yx)) == (0, (0, 0, 1))


def flip_second_letter(w):
    return Word(w.alphabet, w.letters[:1] + (-w.letters[1],) + w.letters[2:])


class TestWitness:
    def test_d3_m2(self):
        cert = witness(3, 2)
        assert cert.witness == omega(0)
        assert cert.p_vec == (-1, 1, 0)
        assert cert.weight == 2

    def test_d2_m4(self):
        cert = witness(2, 4)
        assert cert.p_vec == (-4, 4) and cert.weight == 4

    def test_d5_m3(self):
        cert = witness(5, 3)
        assert cert.witness == omega(1)
        assert cert.p_vec == (-1, 2, -1, 0, 0) and cert.weight == 3

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            witness(3, 1)

    def test_m_whose_word_is_too_long_rejected(self):
        # omega_24 would have 2^26 + 2 letters
        with pytest.raises(ValueError, match="omega_24"):
            witness(3, 26)

    def test_json_schema(self):
        payload = witness(3, 2).to_dict()
        assert set(payload) == {"d", "m", "witness", "p_vector", "a_sum",
                                "lcs_weight", "basis", "transversal",
                                "verdicts"}
        assert payload["witness"] == "x y x^-1 y^-1"
        assert payload["lcs_weight"] == {"cap": 3, "value": 2}
        assert payload["verdicts"] == {"in_Fm": True, "in_G2": False}
        assert payload["basis"][0] == "x^3"
        assert payload["transversal"] == ["", "x", "x^2"]

    def test_json_keeps_the_bound_of_an_inexact_weight(self):
        cert = witness(3, 4)._replace(weight=magnus.AtLeast(6))
        assert cert.to_dict()["lcs_weight"] == {"cap": 5,
                                                "value": {"at_least": 6}}

    def test_bracket_spells_the_witness(self):
        cert = witness(3, 5)
        assert bracket_word(cert.bracket, XY) == cert.witness == omega(3)

    # each tamper changes one field of the d = 3, m = 5 certificate that
    # engine.witness builds, and the re-check that reads it fails
    @pytest.mark.parametrize("change, message", [
        (lambda c: c._replace(witness=flip_second_letter(c.witness)),
         "F_m re-check failed: the coefficient of y x^4 is -3, not -1"),
        (lambda c: c._replace(bracket=omega_bracket(2)),
         "re-check failed: the bracket does not spell the printed word"),
        (lambda c: c._replace(weight=4),
         "F_m re-check failed: the weight is 5, the certificate prints 4"),
        (lambda c: c._replace(weight=magnus.AtLeast(7)),
         "F_m re-check failed: the weight is 5, the certificate prints "
         "AtLeast(7)"),
        (lambda c: c._replace(p_vec=tuple(-p for p in c.p_vec)),
         "G_2 re-check failed"),
        (lambda c: c._replace(a_sum=c.a_sum + 1), "G_2 re-check failed"),
        (lambda c: c._replace(d=4), "G_2 re-check failed"),
    ], ids=["witness", "bracket", "weight", "inexact-weight", "p_vec", "a_sum",
            "d"])
    def test_tampered_certificate_fails(self, capsys, monkeypatch, change,
                                        message):
        build = engine.WitnessCertificate
        monkeypatch.setattr(engine, "WitnessCertificate",
                            lambda **fields: change(build(**fields)))
        with pytest.raises(VerificationError,
                           match="^independent %s$" % re.escape(message)):
            witness(3, 5)
        assert main(["witness", "--d", "3", "--m", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failed: independent %s\n" % message

    def test_vanished_p_vector_fails(self, monkeypatch):
        # counts that agree with a zero P-vector still fail: the witness
        # must lie outside [G, G]
        build = engine.WitnessCertificate
        monkeypatch.setattr(engine, "WitnessCertificate", lambda **fields: (
            build(**fields)._replace(a_sum=0, p_vec=(0, 0, 0))))
        monkeypatch.setattr(engine, "path_counts", lambda d, w: (0, (0,) * d))
        with pytest.raises(VerificationError, match="G_2 re-check failed"):
            witness(3, 5)

    def test_sound_against_independent_modules(self):
        cert = witness(4, 3)
        g = stallings.kernel_graph({"x": 1, "y": 0}, 4, XY)
        t = stallings.schreier_transversal(g, preferred="x")
        b = stallings.schreier_basis(g, t)
        assert not stallings.in_derived_subgroup(g, t, b, cert.witness)
        assert magnus.in_lcs(cert.witness, 3, 4)
