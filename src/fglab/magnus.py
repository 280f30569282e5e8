"""Truncated Magnus expansion over noncommuting variables.

Each generator g maps to 1 + X_g in the ring of integer power series in
noncommuting variables X_g, truncated above a degree cap; inverse letters
map to the closed-form alternating series 1 - X_g + X_g^2 - ...  The
lowest degree appearing in the expansion of w minus 1 is the
lower-central-series weight of w: w lies in the m-th term iff the weight
is at least m (or w is the identity).

Series are sparse: a dict from monomials (tuples of variable indices) to
nonzero integers.  All arithmetic is exact.  Inside, the routes keep one
dict per degree, keyed by integer codes: the degree-k monomial
(g_1, ..., g_k) is the base-B number g_1 ... g_k, with B the word's rank
for ``magnus_expand`` and the largest |leaf code| for ``bracket_expand``.
A product then appends monomials by a multiply and an add, and the keys
become tuples again only when a route returns.  Two routes compute the
same expansion:

* ``magnus_expand`` walks the letters of a word, one pass over the terms
  per letter.  ``lcs_weight`` and ``in_lcs`` use it.
* ``bracket_expand`` folds a commutator bracket's node list by the weight
  filtration, cutting each node at its weight plus the slack
  cap - wt(bracket).  It costs what the bracket and the cap cost, not the
  length of the word the bracket spells, which doubles with each level of
  nesting.  It issues the F_m verdict of a witness certificate.

``coefficient`` reads one coefficient off the letters with no series at
all, and ``structural_weight`` bounds the weight of a bracket from below
with no expansion; together they re-check that verdict.
"""

from collections import namedtuple
from operator import add

from .words import _fold_nodes

#: Largest weight cap ``fglab weight`` accepts, from ``--cap`` or
#: FGLAB_MAGNUS_CAP.  The series of one inverse letter alone holds about
#: cap^2 / 2 codes; ``witness`` uses cap m + 1, at most 21.
MAX_CAP = 64


class _Identity:
    """Singleton weight of the identity word (in every series term)."""

    def __repr__(self):
        return "IDENTITY"


IDENTITY = _Identity()


class AtLeast(namedtuple("AtLeast", "bound")):
    """Weight known only to exceed the truncation cap."""
    __slots__ = ()

    def __repr__(self):
        return "AtLeast(%d)" % self.bound


class NoncommSeries:
    """Degree-truncated integer series in noncommuting variables."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap, terms=None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.terms = {m: c for m, c in (terms or {}).items() if c and len(m) <= cap}

    def __eq__(self, other):
        return (isinstance(other, NoncommSeries)
                and self.cap == other.cap and self.terms == other.terms)

    def __repr__(self):
        return "NoncommSeries(cap=%d, %d terms)" % (self.cap, len(self.terms))


def series_one(cap):
    return NoncommSeries(cap, {(): 1})


def series_mul(s, t):
    """Noncommutative product, discarding terms above the cap."""
    if s.cap != t.cap:
        raise ValueError("cap mismatch")
    cap = s.cap
    terms = {}
    for m1, c1 in s.terms.items():
        room = cap - len(m1)
        for m2, c2 in t.terms.items():
            if len(m2) > room:
                continue
            m = m1 + m2
            terms[m] = terms.get(m, 0) + c1 * c2
    return NoncommSeries(cap, terms)


# Every route below works on "levels": a list whose entry k is the dict of
# the degree-k terms, for k = 0..cap.  Grouping by degree lets a product
# stop at the cap without testing each monomial, and fixes the number of
# digits of each key: appending m2 of degree j to m1 gives m1 * B^j + m2.

def _zero(cap):
    return [{} for _ in range(cap + 1)]


def _one(cap):
    levels = _zero(cap)
    levels[0] = {0: 1}
    return levels


def _series(levels, cap, base):
    """The series of a level list, its keys decoded back to monomials."""
    terms = {}
    for k, level in enumerate(levels):
        powers = [base ** t for t in range(k - 1, -1, -1)]
        for key, coef in level.items():
            terms[tuple([key // p % base for p in powers])] = coef
    return NoncommSeries(cap, terms)


def _key_base(nodes):
    """The key base of a bracket: its largest |leaf code|."""
    return max(abs(c) for c in nodes if not isinstance(c, tuple))


def _letter_step(levels, c, base):
    """Multiply a level list in place, on the right, by the series of letter c.

    Multiplying by 1 + X_g adds the degree-(k-1) terms, extended by g, into
    degree k, walking the degrees downward; dividing by 1 + X_g solves
    T[p g] = S[p g] - T[p] walking upward.  Either way a letter costs one
    pass over the terms.
    """
    g = abs(c) - 1
    sign = 1 if c > 0 else -1
    cap = len(levels) - 1
    for k in (range(cap, 0, -1) if c > 0 else range(1, cap + 1)):
        level = levels[k]
        for p, coef in levels[k - 1].items():
            q = p * base + g
            coef = level.get(q, 0) + sign * coef
            if coef:
                level[q] = coef
            else:
                del level[q]


def magnus_expand(w, cap):
    """Expansion of a word: product of the letter series, truncated.

    The constant term is always 1 (the letter series are units).  Each
    letter updates the series in place by ``_letter_step``; keys are in the
    base of the word's rank.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    base = len(w.alphabet)
    levels = _one(cap)
    for c in w.letters:
        _letter_step(levels, c, base)
    return _series(levels, cap, base)


def _mul_into(out, s, t, base, sign=1, start=0):
    """Add sign * s * t to the level list out, up to its top degree.

    Only the levels of s and t from ``start`` on take part.  Returns out.
    """
    cap = len(out) - 1
    for i in range(start, min(len(s) - 1, cap - start) + 1):
        left = s[i].items()
        if not left:
            continue
        for j in range(start, min(len(t) - 1, cap - i) + 1):
            right = t[j].items()
            if not right:
                continue
            level, shift = out[i + j], base ** j
            for m1, c1 in left:
                m1 *= shift
                c1 *= sign
                for m2, c2 in right:
                    m = m1 + m2
                    c = level.get(m, 0) + c1 * c2
                    if c:
                        level[m] = c
                    else:
                        del level[m]
    return out


def bracket_expand(bracket, cap):
    """Expansion of a commutator bracket (see ``words.bracket_word``), truncated.

    Equal to ``magnus_expand`` of the word the bracket spells, but computed
    on the bracket by the weight filtration (Magnus, Karrass and Solitar,
    *Combinatorial Group Theory*, ch. 5).  With ``structural_weight`` wt,
    M(b) - 1 has no term below degree wt(b), and with U = M(u), V = M(v),

        M([u, v]) - 1 = (UV - VU) U^-1 V^-1,

    so if M([u, v]) is needed up to degree T, U is needed only up to
    T - wt(v), V up to T - wt(u) and both inverses up to T - wt(u) - wt(v).
    The sibling weights on the path from the root to a node b sum to
    wt(root) - wt(b), so with the slack s = cap - wt(root) b is needed up
    to wt(b) + s and its inverse up to s, whichever parent asks: one value
    per node, from one fold over the node list.  The inverse has
    M([v, u]) - 1 = -(UV - VU) V^-1 U^-1, reusing the difference; it is 1
    when wt(b) > s.

    A leaf is ``_letter_step`` applied to 1, up to degree 1 + s for the
    letter and s for its inverse.  Keys are in the base of ``_key_base``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    slack = cap - structural_weight(bracket)
    if slack < 0:
        return series_one(cap)
    base = _key_base(bracket)

    def leaf(c):
        letter, inverse = _one(1 + slack), _one(slack)
        _letter_step(letter, c, base)
        _letter_step(inverse, -c, base)
        return 1, letter, inverse

    def join(a, b):
        (wu, big_u, u_inv), (wv, big_v, v_inv) = a, b
        wt = wu + wv
        # UV - VU = (U - 1)(V - 1) - (V - 1)(U - 1)
        uv_vu = _mul_into(_zero(wt + slack), big_u, big_v, base, 1, 1)
        _mul_into(uv_vu, big_v, big_u, base, -1, 1)
        levels = _mul_into(_one(wt + slack), uv_vu,
                           _mul_into(_zero(slack), u_inv, v_inv, base), base)
        if wt > slack:
            return wt, levels, _one(slack)
        return wt, levels, _mul_into(
            _one(slack), uv_vu, _mul_into(_zero(slack), v_inv, u_inv, base),
            base, -1)

    return _series(_fold_nodes(bracket, leaf, join)[1], cap, base)


def coefficient(w, monomial):
    """The coefficient of one monomial in the Magnus expansion of a word.

    The monomial is a tuple of 0-based variable indices, as in the keys of
    ``NoncommSeries``.  For g_1 ... g_k, the map sending generator g to
    I + sum E_(i-1, i), over the positions i with g_i = g, factors through
    the expansion, and entry (0, k) of the image of w is the coefficient:
    an augmented higher Fox derivative (Chen, Fox and Lyndon, Ann. of Math.
    68, 1958).  One walk over the letters keeps row 0 only: letter g adds
    row[i-1] into row[i] at its positions walking i downward, and g^-1
    subtracts walking i upward.  A letter costs O(k), and no series, level
    list or bracket is involved.

    ``engine.witness`` re-checks the weight of omega_(m-2) from above by its
    coefficient -1 on y x^(m-1).  By induction: M([x, y]) - 1 has lowest
    part XY - YX, with -1 on YX.  If M(w) - 1 has lowest part P of degree
    k, with -1 on Y X^(k-1), then M([w, x]) - 1 = (M(w)X - XM(w)) M(w)^-1
    (1 + X)^-1 has lowest part PX - XP, and only PX can give Y X^k, as
    every term of XP starts with X.
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


def structural_weight(bracket):
    """Weight of a bracket: 1 for a letter, wt(u) + wt(v) for [u, v].

    Since [F_i, F_j] lies in F_(i+j) (Magnus, Karrass and Solitar,
    *Combinatorial Group Theory*, ch. 5), the word a bracket spells lies
    in F_m for every m up to this weight.  No series and no cap are
    involved, so it proves membership where a truncation could not.
    """
    return _fold_nodes(bracket, lambda c: 1, add)


def series_weight(series):
    """Lowest degree of series - 1, or AtLeast(cap + 1) if none is below the cap."""
    degree = min((len(m) for m in series.terms if m), default=None)
    return AtLeast(series.cap + 1) if degree is None else degree


def weight_to_json(weight):
    """JSON value of a weight: an int, "identity", or {"at_least": bound}."""
    if weight is IDENTITY:
        return "identity"
    if isinstance(weight, AtLeast):
        return {"at_least": weight.bound}
    return weight


def lcs_weight(w, cap):
    """Lower-central-series weight of w, truncated at cap.

    Returns IDENTITY for the empty word, the exact weight when it is at
    most cap, and AtLeast(cap + 1) when the truncated expansion cannot
    tell -- the latter is an honest answer, not an error.

    The expansion runs at caps 1, 2, 3, ... up to cap and stops at the
    first that shows a term of positive degree.  Truncation is a ring map,
    so the terms up to a smaller cap are those of the full expansion, and
    the answer equals that of one expansion at cap.  The steps go up by one
    because a word's expansion costs about twice as much per step in the
    cap, so a doubled cap could cost far more than all smaller caps.
    """
    if not w:
        return IDENTITY
    for step in range(1, cap):
        weight = series_weight(magnus_expand(w, step))
        if not isinstance(weight, AtLeast):
            return weight
    return series_weight(magnus_expand(w, cap))


def in_lcs(w, m, cap):
    """Whether w lies in the m-th lower central series term, certified at cap.

    Raises ValueError when cap < m: such a truncation cannot certify.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if cap < m:
        raise ValueError("cap %d cannot certify membership in term %d" % (cap, m))
    weight = lcs_weight(w, cap)
    return weight is IDENTITY or (
        weight.bound if isinstance(weight, AtLeast) else weight) >= m
