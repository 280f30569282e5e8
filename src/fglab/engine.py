"""End-to-end verification engine for the canonical rank-2 kernel.

For the kernel G of f: F(x, y) -> Z_d with f(x) = 1, f(y) = 0 (any
modulus d >= 2), this module drives the whole argument that no lower
central term of F lands inside [G, G]:

* the canonical Schreier basis (a, b_1, ..., b_d) and its conjugation
  relations under x,
* exponent sums of the witness words by Schreier rewriting (of their node
  lists, in the recurrence) and by one Fox-derivative walk over the letters,
* A, multiplication by 1 - t on the b-part Z[t]/(t^d - 1), t conjugation
  by x, as two-entry rows or one shift (``transition_matrix`` is the dense
  oracle): the chain v_(n+1) = A v_n, its characteristic polynomial (one
  determinant past the coefficient bound) and eigenpairs (exact, over Q),
* a proof that A^n v_0 != 0 for every n, from the kernel of A,
* witness certificates: explicit words in F_m \\ [G, G].

All arithmetic is exact: Python integers and the cyclotomic ring above.
"""

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import compress
from math import comb, prod
from operator import sub

from . import stallings, words
from .words import (XY, exponent_sums, format_runs, generator, inverse,
                    multiply, omega, omega_bracket)


class VerificationError(RuntimeError):
    """A cross-check between two computation routes failed."""


class KernelSpec(namedtuple("KernelSpec", "d")):
    """The kernel of x -> 1, y -> 0 in Z_d over the alphabet {x, y}."""
    __slots__ = ()

    def __new__(cls, d):
        if d < 2:
            raise ValueError("modulus must be >= 2")
        return super().__new__(cls, d)


@lru_cache(maxsize=None)
def _machinery(d):
    """Graph, preferred-x transversal, and canonical basis for modulus d."""
    graph = stallings.kernel_graph({"x": 1, "y": 0}, d, XY)
    transversal = stallings.schreier_transversal(graph, preferred="x")
    basis = stallings.schreier_basis(graph, transversal)
    return graph, transversal, basis


def conjugation_table(spec):
    """Conjugation by x on the basis, by rewriting x s x^-1 for each basis
    word s, checked against the cycle a -> a, b_k -> b_(k+1), b_d -> a b_1 a^-1."""
    d = spec.d
    graph, transversal, basis = _machinery(d)
    x = generator(XY, "x")
    table = {}
    for i, name in enumerate(basis.alphabet):
        conj = multiply(multiply(x, basis.word(i)), inverse(x))
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
    return tuple(tuple((i == j) - (j == (i - 1) % d) for j in range(d))
                 for i in range(d))


def _a_rows(d):
    """A's rows as {column: value}: row i of 1 - t is 1 at i, -1 at i - 1."""
    return [{i: 1, (i - 1) % d: -1} for i in range(d)]


def _a_step(v):
    """A v = v - t v in one pass: (t v)_i = v_(i-1), a cyclic shift."""
    return tuple(map(sub, v, v[-1:] + v[:-1]))


def start_vector(d):
    """The b-exponent vector of the first witness word: (-1, 1, 0, ..., 0)."""
    if d < 2:
        raise ValueError("modulus must be >= 2")
    return (-1, 1) + (0,) * (d - 2)


def _rows(m):
    """The rows of a matrix as {column: value} dicts of their nonzero entries."""
    return [dict(compress(enumerate(row), row)) for row in m]


def _mat_vec(m, v):
    return tuple([sum([x * v[k] for k, x in row.items()]) for row in _rows(m)])


def iterate(d, n):
    """Exact A^n v_0, by n steps of v <- A v (arbitrary precision)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    v = start_vector(d)
    for _ in range(n):
        v = _a_step(v)
    return v


def verify_recurrence(spec, n_max):
    """Check P-vectors from rewriting against the chain A^n v_0 for n <= n_max.

    The left side reads every omega_n, node n + 2 of ``omega_bracket(n_max)``,
    off one ``stallings.bracket_exponents`` call, spelling no word; the right
    steps v <- v - t v, one shift per n.  Each omega_n must be a loop, a-sum 0.
    """
    if n_max < 1 or 2 ** min(n_max + 2, 64) + 2 > words.MAX_WORD_LETTERS:
        raise ValueError("n_max must be >= 1, and at most 23 so that every omega_n "
                         "checked can still be spelled and checked flat")
    graph, _, basis = _machinery(spec.d)
    matrix_side = start_vector(spec.d)
    nodes = stallings.bracket_exponents(graph, basis, omega_bracket(n_max))
    for n, (end, (a_sum, *rewritten)) in enumerate(nodes[2:]):
        if (end, *rewritten) != (0, *matrix_side):
            raise VerificationError(
                "d=%d n=%d: rewriting gave %r at vertex %d, matrix gave %r"
                % (spec.d, n, tuple(rewritten), end, matrix_side))
        if a_sum != 0:
            raise VerificationError(
                "d=%d n=%d: nonzero a-exponent %d" % (spec.d, n, a_sum))
        matrix_side = _a_step(matrix_side)
    return {"d": spec.d, "n_max": n_max, "checked": n_max + 1, "ok": True}


# -- characteristic polynomial, by one exact determinant ---------------------

def _sparse_det(rows):
    """Exact determinant of a square matrix of {column: value} rows.

    A column index of the live rows follows each fill-in and cancellation.
    Column k pivots on its sparsest row, then the smallest |entry| (all but
    the last pivot of A - lambda I are then +-1); row r with entry e there
    becomes p r - e q for pivot row q and pivot p, a scale divided out last.
    The sign counts swaps of places (at[place] = row, pos[row] = place).
    """
    rows = [dict(compress(row.items(), row.values())) for row in rows]
    cols = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    det, scale, at, pos = 1, 1, list(range(len(rows))), list(range(len(rows)))
    for k, live in enumerate(cols):
        if not live:
            return 0
        i = min(live, key=lambda i: (len(rows[i]), abs(rows[i][k])))
        if pos[i] != k:
            at[pos[i]], pos[at[k]] = at[k], pos[i]
            at[k], pos[i], det = i, k, -det
        for j in rows[i]:
            cols[j].discard(i)
        pivot = rows[i].pop(k)
        det, scale = det * pivot, scale * pivot ** len(live)
        for r in live:
            row, e = rows[r], rows[r].pop(k)
            for j in row:
                row[j] *= pivot
            for j, q in rows[i].items():
                row[j] = row.get(j, 0) - e * q
                cols[j].add(r)
                if not row[j]:   # cancelled
                    del row[j]
                    cols[j].discard(r)
    return det // scale


def _past_coefficients(rows):
    """B = 2^(d+1) (H + 1) + 1 with H = prod_i max(1, sum_j |M_ij|), M d x d."""
    h = prod(max(1, sum(map(abs, row.values()))) for row in rows)
    return 2 ** (len(rows) + 1) * (h + 1) + 1


def char_poly_check(d):
    """det(A - lambda I) = (1 - lambda)^d - 1, as polynomials in lambda.

    One determinant, at lambda = B = ``_past_coefficients(A)``, proves it
    (Kronecker substitution).  Coefficient k of det(A - lambda I) is +- the
    sum of the C(d, k) principal minors of size d - k, each at most H by
    Hadamard's inequality (||row||_2 <= ||row||_1); that of (1 - lambda)^d - 1
    is at most C(d, k) <= 2^d.  So the difference R has |r_k| <= 2^d (H + 1)
    < B / 2, and R(B) = 0 forces R = 0: its top term would outweigh the rest.
    """
    a = _a_rows(d)
    b = _past_coefficients(a)
    return _sparse_det([{**row, i: row.get(i, 0) - b}
                        for i, row in enumerate(a)]) == (1 - b) ** d - 1


# -- eigenpairs, exact in Q[t]/(t^d - 1) -------------------------------------

class EigenPair(namedtuple("EigenPair", "j ok")):
    """Eigenpair j of A over Q[t]/(t^d - 1), t for zeta, and whether it holds:
    the eigenvalue 1 - t^j with the eigenvector x_j[k] = t^(-kj), k = 0..d-1."""
    __slots__ = ()


def eigen_check(d):
    """Verify A x_j = (1 - t^j) x_j exactly in Q[t]/(t^d - 1), for j = 1..d.

    Over the unit x_j[i] = t^(-ij), row i reads sum_k A[i][k] t^((i - k) j)
    - 1 + t^j = 0: one sparse residue sum per j for each distinct row of
    offsets (i - k) mod d.  Raises if any identity fails.  A cross-check:
    ``nonvanishing_check`` proves A^n v_0 != 0 from ker A alone.
    """
    shapes = {frozenset(((i - k) % d, x) for k, x in row.items())
              for i, row in enumerate(_a_rows(d))}
    pairs = []
    for j in range(1, d + 1):
        ok = True
        for shape in shapes:
            residue = {}
            for offset, x in (*shape, (0, -1), (1, 1)):
                residue[offset * j % d] = residue.get(offset * j % d, 0) + x
            ok = ok and not any(residue.values())
        pairs.append(EigenPair(j=j, ok=ok))
    if not all(p.ok for p in pairs):
        bad = [p.j for p in pairs if not p.ok]
        raise VerificationError("eigen identities failed for d=%d, j=%r" % (d, bad))
    return pairs


def nonvanishing_check(d):
    """A^n v_0 != 0 for every n >= 0, proved in exact integers.

    The columns of A sum to 0, so A maps the zero-sum vectors Z into Z.
    The rows sum to 0, so A 1 = 0, and a nonzero (d-1)-minor makes the
    rank d - 1: the all-ones vector 1 spans ker A.  Since 1 has sum d != 0,
    ker A meets Z only in 0, so A is injective on Z.  v_0 is a nonzero
    vector of Z, hence by induction so is every A^n v_0.
    """
    a, v, columns = _a_rows(d), start_vector(d), Counter()
    for row in a:
        columns.update(row)
    return (not any(columns.values())
            and not any(sum(row.values()) for row in a)
            and _sparse_det([{j: x for j, x in row.items() if j < d - 1}
                             for row in a[:-1]]) != 0
            and sum(v) == 0 and any(v))


def fox_walk(w):
    """(T, D_x, D_y) of a word over {x, y}, from one walk over its letters.

    T is the x-exponent sum; D_g maps each prefix x-exponent p to the signed
    count of g^+-1 letters read at p, x^-1 at p - 1: the Fox derivative dw/dg
    under x -> t, y -> 1 (Fox, Ann. of Math. 57, 1953).  Raises ValueError
    unless w's alphabet is {x, y}.

    The Magnus coefficient of Y X^k is sum_p D_y[p] C(T - p, k): Y comes from
    one y^+-1 letter, with sign +-1, each letter before it gives 1, and with
    Y = 0 those after it give (1 + X)^(T - p).  It is -1 on omega_(m-2) for
    k = m - 1 (Chen, Fox and Lyndon, Ann. of Math. 68, 1958), by induction:
    M([x, y]) - 1 has lowest part XY - YX.  If M(w) - 1 has lowest part P of
    degree k, with -1 on Y X^(k-1), M([w, x]) - 1 = (M(w)X - XM(w)) M(w)^-1
    (1 + X)^-1 has lowest part PX - XP, and only PX gives Y X^k.
    """
    if set(w.alphabet) != {"x", "y"}:
        raise ValueError("alphabet mismatch: fox_walk walks words over {x, y}")
    x = w.alphabet.index("x") + 1
    p, d_x, d_y = 0, {}, {}
    for c in w.letters:
        if c == x:
            d_x[p] = d_x.get(p, 0) + 1
            p += 1
        elif c == -x:
            p -= 1
            d_x[p] = d_x.get(p, 0) - 1
        else:
            d_y[p] = d_y.get(p, 0) + (1 if c > 0 else -1)
    return p, d_x, d_y


def _binomial(e, k):
    """C(e, k), the coefficient of X^k in (1 + X)^e, for any integer e."""
    return comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)


def _residues(d, walk):
    """(a-sum, (P_1, ..., P_d)) of a kernel word from its ``fox_walk``: P_(r+1)
    sums D_y at p = r mod d, the a-sum D_x at p = -1 mod d (x steps across
    d - 1 -> 0), with no graph.  Raises VerificationError unless T = 0 mod d."""
    total, d_x, d_y = walk
    if total % d:
        raise VerificationError("the word's walk ends at residue %d, not 0"
                                % (total % d))
    counts = [0] * d
    for p, n in d_y.items():
        counts[p % d] += n
    return sum(n for p, n in d_x.items() if p % d == d - 1), tuple(counts)


class WitnessCertificate(namedtuple(
        "WitnessCertificate", "d m witness bracket p_vec a_sum cap weight basis")):
    """An explicit word in F_m outside [G, G], with its evidence.

    ``bracket`` is the node list (``words.bracket_word``) that spells
    ``witness``, and ``weight`` an int, a ``magnus.AtLeast`` or ``magnus.IDENTITY``.
    """
    __slots__ = ()

    def to_dict(self):
        """JSON data; each basis word and representative is printed from runs."""
        from . import magnus
        b, alphabet = self.basis, self.witness.alphabet
        t = b.transversal
        return {
            "d": self.d,
            "m": self.m,
            "witness": str(self.witness),
            "p_vector": list(self.p_vec),
            "a_sum": self.a_sum,
            "lcs_weight": {"cap": self.cap,
                           "value": magnus.weight_to_json(self.weight)},
            "basis": [format_runs(alphabet, b.runs(i))
                      for i in range(len(b.alphabet))],
            "transversal": [format_runs(alphabet, t.rep_runs(v))
                            for v in range(t.graph.n_vertices)],
            "verdicts": {"in_Fm": True, "in_G2": False},
        }


def witness(d, m):
    """Certificate that F_m is not inside [G, G]: the word omega_(m-2).

    The weight is issued by one expansion of ``omega_bracket(m-2)`` by the
    weight filtration at cap m + 1, and the P-vector by Schreier rewriting
    of the word it spells, ``omega(m-2)``; ``_recheck`` then reads the
    certificate by independent routes.  A d above ``stallings.MAX_KERNEL_D``
    raises ValueError before any graph is built, and so does an m >= 26,
    whose word exceeds ``words.MAX_WORD_LETTERS``, before any expansion.
    """
    from . import magnus
    if m < 2:
        raise ValueError("m must be >= 2 (G_1 = G is not constrained)")
    spec = KernelSpec(d)
    if d > stallings.MAX_KERNEL_D:
        raise ValueError("d must be at most %d, got %d"
                         % (stallings.MAX_KERNEL_D, d))
    word = omega(m - 2)
    cap = m + 1
    bracket = omega_bracket(m - 2)
    weight = magnus.series_weight(magnus.bracket_expand(bracket, cap))
    a_sum, vec = basis_exponents(spec, word)
    cert = WitnessCertificate(d=d, m=m, witness=word, bracket=bracket,
                              p_vec=vec, a_sum=a_sum, cap=cap, weight=weight,
                              basis=_machinery(d)[2])
    _recheck(cert)
    return cert


def _recheck(cert):
    """Raise VerificationError unless a witness certificate re-checks.

    One ``fox_walk`` gives weight <= m, from its coefficient -1 on y x^(m-1),
    and G_2, from residues that equal the a-sum and a nonzero P-vector.
    Weight >= m: the bracket spells the letters, its structural weight >= m,
    as [F_i, F_j] lies in F_(i+j).  The printed weight must be m.
    """
    from . import magnus
    alphabet, m = cert.witness.alphabet, cert.m
    walk = fox_walk(cert.witness)
    total, _, d_y = walk
    found = sum(n * _binomial(total - p, m - 1) for p, n in d_y.items())
    if found != -1:
        raise VerificationError(
            "independent F_m re-check failed: the coefficient of y x^%d is %d, "
            "not -1" % (m - 1, found))
    if words.bracket_word(cert.bracket, alphabet) != cert.witness:
        raise VerificationError(
            "independent re-check failed: the bracket does not spell the "
            "printed word")
    structural = magnus.structural_weight(cert.bracket)
    if structural < m:
        raise VerificationError(
            "independent F_m re-check failed: structural weight %d < %d"
            % (structural, m))
    if cert.weight != m:
        raise VerificationError(
            "independent F_m re-check failed: the weight is %d, the "
            "certificate prints %r" % (m, cert.weight))
    counted = _residues(cert.d, walk)
    if counted != (cert.a_sum, cert.p_vec) or not any(cert.p_vec):
        raise VerificationError("independent G_2 re-check failed")
