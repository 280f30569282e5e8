"""End-to-end verification engine for the canonical rank-2 kernel.

For the kernel G of f: F(x, y) -> Z_d with f(x) = 1, f(y) = 0 (any
modulus d >= 2), this module drives the whole argument that no lower
central term of F lands inside [G, G]:

* the canonical Schreier basis (a, b_1, ..., b_d) and its conjugation
  relations under x,
* exponent-sum vectors of the witness words through actual rewriting,
* the d x d integer transition matrix, its exact powers, characteristic
  polynomial and eigenpairs (verified in the exact ring Q[t]/(t^d - 1)),
* a floating-point spectral decomposition of the start vector,
* witness certificates: explicit words in F_m \\ [G, G].

Exact integer iteration is the primary check; the spectral certificate is
a numerical cross-check of the eigen decomposition the argument rests on.
"""

import cmath
import json
from dataclasses import dataclass
from functools import lru_cache

from . import magnus, stallings
from .words import (XY, Word, bracket_word, exponent_sums, generator, inverse,
                    multiply, omega, omega_bracket)


class VerificationError(RuntimeError):
    """A cross-check between two computation routes failed."""


@dataclass(frozen=True)
class KernelSpec:
    """The kernel of x -> 1, y -> 0 in Z_d over the alphabet {x, y}."""
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def f(self):
        return {"x": 1, "y": 0}


@lru_cache(maxsize=None)
def _machinery(d):
    """Graph, preferred-x transversal, and canonical basis for modulus d."""
    graph = stallings.kernel_graph({"x": 1, "y": 0}, d, XY)
    transversal = stallings.schreier_transversal(graph, preferred="x")
    basis = stallings.schreier_basis(graph, transversal)
    return graph, transversal, basis


def canonical_basis(spec):
    """The basis (a, b_1, ..., b_d) = (x^d, y, x y x^-1, ...)."""
    return _machinery(spec.d)[2]


def conjugation_table(spec):
    """How conjugation by x acts on the basis, computed by rewriting.

    Rewrites x * s * x^-1 for each basis word s and checks the result
    against the expected cycle: a fixed, b_k -> b_(k+1), and the last
    b_d -> a b_1 a^-1.
    """
    d = spec.d
    graph, transversal, basis = _machinery(d)
    x = generator(XY, "x")
    table = {}
    for name, word in zip(basis.alphabet, basis.words):
        conj = multiply(multiply(x, word), inverse(x))
        table[name] = stallings.rewrite(graph, transversal, basis, conj)

    expected = {"a": "a", "b%d" % d: "a b1 a^-1"}
    for k in range(1, d):
        expected["b%d" % k] = "b%d" % (k + 1)
    for name, want in expected.items():
        if str(table[name]) != want:
            raise VerificationError(
                "conjugation of %s gave %s, expected %s" % (name, table[name], want))
    return table


def basis_exponents(spec, w):
    """(a-sum, (P_1, ..., P_d)): basis exponent sums of a kernel element."""
    graph, transversal, basis = _machinery(spec.d)
    sums = exponent_sums(stallings.rewrite(graph, transversal, basis, w))
    return sums[0], tuple(sums[1:])


def p_vector(spec, w):
    """The vector (P_1, ..., P_d) of b-exponent sums of w."""
    return basis_exponents(spec, w)[1]


def transition_matrix(d):
    """1 on the diagonal, -1 on the subdiagonal, -1 in the top-right corner."""
    if d < 2:
        raise ValueError("modulus must be >= 2")
    rows = []
    for i in range(d):
        row = [0] * d
        row[i] = 1
        row[(i - 1) % d] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def start_vector(d):
    """The b-exponent vector of the first witness word: (-1, 1, 0, ..., 0)."""
    return (-1, 1) + (0,) * (d - 2)


def _mat_vec(m, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in m)


def _mat_mul(m, n):
    cols = list(zip(*n))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in m)


def _mat_pow(m, n):
    d = len(m)
    result = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    square = m
    while n:
        if n & 1:
            result = _mat_mul(result, square)
        square = _mat_mul(square, square)
        n >>= 1
    return result


def iterate(d, n):
    """Exact A^n v_0 via binary matrix exponentiation (arbitrary precision)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _mat_vec(_mat_pow(transition_matrix(d), n), start_vector(d))


def verify_recurrence(spec, n_max):
    """Check P-vectors from rewriting against matrix powers for n <= n_max.

    The left side rewrites the actual witness word through the Schreier
    graph; the right side is pure linear algebra.  Also checks that the
    a-exponent of every witness word vanishes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(n_max + 1):
        a_sum, rewritten = basis_exponents(spec, omega(n))
        matrix_side = iterate(spec.d, n)
        if rewritten != matrix_side:
            raise VerificationError(
                "d=%d n=%d: rewriting gave %r, matrix gave %r"
                % (spec.d, n, rewritten, matrix_side))
        if a_sum != 0:
            raise VerificationError(
                "d=%d n=%d: nonzero a-exponent %d" % (spec.d, n, a_sum))
    return {"d": spec.d, "n_max": n_max, "checked": n_max + 1, "ok": True}


# -- characteristic polynomial (dense integer polynomials in lambda) --------

def _poly_add(p, q):
    n = max(len(p), len(q))
    return tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _poly_scale(p, c):
    return tuple(c * a for a in p)


def _trim(p):
    i = len(p)
    while i > 1 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def char_poly(d):
    """det(A - lambda I) as coefficients (constant term first).

    Laplace expansion along the leftmost remaining column, memoized on the
    set of remaining rows; the matrix is sparse so this is cheap for the
    d <= 12 range the spectral checks cover.
    """
    a = transition_matrix(d)
    lam = (0, 1)
    entries = [[(_poly_add((a[i][j],), _poly_scale(lam, -1)) if i == j
                 else (a[i][j],))
                for j in range(d)] for i in range(d)]

    memo = {}

    def det(rows):
        if not rows:
            return (1,)
        if rows in memo:
            return memo[rows]
        col = d - len(rows)
        total = (0,)
        for pos, i in enumerate(rows):
            e = entries[i][col]
            if e == (0,):
                continue
            sub = det(rows[:pos] + rows[pos + 1:])
            term = _poly_mul(e, sub)
            if pos % 2:
                term = _poly_scale(term, -1)
            total = _poly_add(total, term)
        memo[rows] = total
        return total

    return _trim(det(tuple(range(d))))


def char_poly_check(d):
    """Symbolic identity det(A - lambda I) = (1 - lambda)^d - 1."""
    expected = (1,)
    for _ in range(d):
        expected = _poly_mul(expected, (1, -1))
    expected = _trim(_poly_add(expected, (-1,)))
    return char_poly(d) == expected


# -- eigenpairs, exact in Q[t]/(t^d - 1) -------------------------------------

def cyc_mul(a, b, d):
    """Product in Q[t]/(t^d - 1); elements are length-d coefficient tuples."""
    out = [0] * d
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % d] += ai * bj
    return tuple(out)


def _cyc_monomial(k, d):
    out = [0] * d
    out[k % d] = 1
    return tuple(out)


def _cyc_scale(a, c, d):
    return tuple(c * x for x in a)


@dataclass(frozen=True)
class EigenPair:
    """Verified eigenpair of A over Q[t]/(t^d - 1), with t for zeta."""
    j: int
    eigenvalue: tuple
    eigenvector: tuple
    ok: bool


def eigen_check(d):
    """Verify A x_j = (1 - t^j) x_j componentwise, exactly, for j = 1..d.

    x_j has components t^(-kj) down the column (so the first entry is 1).
    Raises if any identity fails; the theorem's spectral step rests on it.
    """
    a = transition_matrix(d)
    zero = (0,) * d
    one = _cyc_monomial(0, d)
    pairs = []
    for j in range(1, d + 1):
        eigenvalue = tuple(o - m for o, m in zip(one, _cyc_monomial(j, d)))
        vector = tuple(_cyc_monomial(-k * j, d) for k in range(d))
        ok = True
        for i in range(d):
            lhs = zero
            for k in range(d):
                if a[i][k]:
                    lhs = tuple(x + y for x, y in
                                zip(lhs, _cyc_scale(vector[k], a[i][k], d)))
            rhs = cyc_mul(eigenvalue, vector[i], d)
            if lhs != rhs:
                ok = False
        pairs.append(EigenPair(j=j, eigenvalue=eigenvalue,
                               eigenvector=vector, ok=ok))
    if not all(p.ok for p in pairs):
        bad = [p.j for p in pairs if not p.ok]
        raise VerificationError("eigen identities failed for d=%d, j=%r" % (d, bad))
    return pairs


def spectral_certificate(d, n_max, alpha_tol=1e-9, recon_tol=1e-6):
    """Decompose v_0 over the eigenvectors numerically and reconstruct.

    alpha_j = (1/d) sum_k v_0[k] zeta^(kj) by the discrete-Fourier
    orthogonality of the eigenvectors.  Asserts some alpha_j with j != d is
    nonzero (the nonvanishing hinge) and that sum_j alpha_j lambda_j^n x_j
    reproduces the exact iterate within recon_tol for n <= n_max.
    Summation order is fixed (j ascending) for bit-reproducibility.
    """
    zeta = cmath.exp(2j * cmath.pi / d)
    v0 = start_vector(d)
    alphas = []
    for j in range(1, d + 1):
        acc = 0j
        for k in range(d):
            acc += v0[k] * zeta ** (k * j)
        alphas.append(acc / d)

    max_off = max(abs(alphas[j - 1]) for j in range(1, d))
    if max_off <= alpha_tol:
        raise VerificationError("all alpha_j with j != d vanish for d=%d" % d)

    lambdas = [1 - zeta ** j for j in range(1, d + 1)]
    max_err = 0.0
    for n in range(n_max + 1):
        exact = iterate(d, n)
        for k in range(d):
            acc = 0j
            for j in range(1, d + 1):
                acc += alphas[j - 1] * lambdas[j - 1] ** n * zeta ** (-k * j)
            max_err = max(max_err, abs(acc - exact[k]))
    if max_err > recon_tol:
        raise VerificationError(
            "spectral reconstruction off by %g for d=%d" % (max_err, d))
    return {"d": d, "n_max": n_max,
            "alphas": [[z.real, z.imag] for z in alphas],
            "max_alpha_off": max_off, "max_error": max_err, "ok": True}


def nonvanishing_check(d, n_max):
    """A^n v_0 != 0 for every 1 <= n <= n_max, in exact integers."""
    a = transition_matrix(d)
    v = start_vector(d)
    for n in range(1, n_max + 1):
        v = _mat_vec(a, v)
        if not any(v):
            return False
    return True


@dataclass(frozen=True)
class WitnessCertificate:
    """An explicit word in F_m outside [G, G], with its evidence."""
    d: int
    m: int
    witness: Word
    bracket: object  # the commutator bracket that spells the witness
    p_vec: tuple
    a_sum: int
    cap: int
    weight: object  # int, magnus.AtLeast, or magnus.IDENTITY
    basis_words: tuple
    transversal_reps: tuple

    def to_dict(self):
        return {
            "d": self.d,
            "m": self.m,
            "witness": str(self.witness),
            "p_vector": list(self.p_vec),
            "a_sum": self.a_sum,
            "lcs_weight": {"cap": self.cap,
                           "value": magnus.weight_to_json(self.weight)},
            "basis": [str(w) for w in self.basis_words],
            "transversal": [str(w) for w in self.transversal_reps],
            "verdicts": {"in_Fm": True, "in_G2": False},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def witness(d, m, cap=None):
    """Certificate that F_m is not inside [G, G]: the word omega_(m-2).

    Verifies, before issuing, that the word's Magnus weight is at least m
    (exactly m whenever the cap permits) and that its P-vector is nonzero.
    The weight comes from one expansion of the bracket ``omega_bracket(m-2)``
    by the weight filtration; the witness is the word that bracket spells.
    The default cap m + 1 pins the weight exactly; a cap below m raises
    ValueError, since it cannot certify membership in F_m.
    """
    if m < 2:
        raise ValueError("m must be >= 2 (G_1 = G is not constrained)")
    spec = KernelSpec(d)
    if cap is None:
        cap = m + 1
    bracket = omega_bracket(m - 2)
    weight = magnus.series_weight(magnus.bracket_expand(bracket, cap))
    if not magnus.weight_reaches(weight, m, cap):
        raise VerificationError(
            "omega_%d failed the F_%d membership certificate" % (m - 2, m))
    word = bracket_word(bracket, XY)
    a_sum, vec = basis_exponents(spec, word)
    if not any(vec):
        raise VerificationError("P-vector of omega_%d vanished for d=%d" % (m - 2, d))
    _, transversal, basis = _machinery(d)
    return WitnessCertificate(d=d, m=m, witness=word, bracket=bracket,
                              p_vec=vec, a_sum=a_sum, cap=cap, weight=weight,
                              basis_words=basis.words,
                              transversal_reps=transversal.reps)
