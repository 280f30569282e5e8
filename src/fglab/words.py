"""Freely reduced words over a finite generator alphabet.

A word is stored as a tuple of nonzero signed integers: ``+(i+1)`` stands
for generator number ``i`` of the alphabet, ``-(i+1)`` for its inverse.
Every constructor reduces eagerly, so a ``Word`` is always freely reduced
and the empty tuple is the identity.  All values here are immutable and
every operation is a pure function.
"""

import re
from itertools import groupby

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


class ParseError(ValueError):
    """Raised for malformed word text."""


class Alphabet:
    """Ordered list of distinct generator names; indexing is stable."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError("bad generator name: %r" % (name,))
            if name in seen:
                raise ValueError("duplicate generator name: %r" % (name,))
            seen.add(name)
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ParseError("unknown generator: %r" % (name,)) from None

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, i):
        return self.names[i]

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Alphabet(%r)" % (list(self.names),)


def free_reduce(letters):
    """Cancel adjacent inverse pairs; returns a reduced tuple."""
    stack = []
    for c in letters:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


class Word:
    """A freely reduced word over an :class:`Alphabet`."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=(), reduced=False):
        self.alphabet = alphabet
        self.letters = tuple(letters) if reduced else free_reduce(letters)
        for c in self.letters:
            if c == 0 or abs(c) > len(alphabet):
                raise ValueError("letter code out of range: %r" % (c,))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word)
                and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return inverse(self)

    def __str__(self):
        # canonical form: maximal runs as name^k, k=1 omitted
        parts = []
        for code, run in groupby(self.letters):
            k = len(list(run))
            if code < 0:
                k = -k
            name = self.alphabet[abs(code) - 1]
            parts.append(name if k == 1 else "%s^%d" % (name, k))
        return " ".join(parts)

    def __repr__(self):
        return "Word(%r)" % (str(self),)


def identity(alphabet):
    return Word(alphabet, (), reduced=True)


def generator(alphabet, name, power=1):
    """The word ``name^power``."""
    code = alphabet.index(name) + 1
    if power < 0:
        code, power = -code, -power
    return Word(alphabet, (code,) * power, reduced=True)


def parse_word(text, alphabet):
    """Parse whitespace-separated ``name`` / ``name^k`` tokens.

    Exponents are sugar: ``x^-2`` expands to two inverse letters before
    reduction, so parsing always yields the free reduction of the literal
    word.  Empty text is the identity.
    """
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
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
    return Word(alphabet, letters)


def _check_alphabets(u, v):
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch: %r vs %r" % (u.alphabet, v.alphabet))


def multiply(u, v):
    """Freely reduced concatenation u*v."""
    _check_alphabets(u, v)
    return Word(u.alphabet, u.letters + v.letters)


def inverse(w):
    """Reverse the word and flip every sign."""
    return Word(w.alphabet, tuple(-c for c in reversed(w.letters)), reduced=True)


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    _check_alphabets(u, v)
    return Word(u.alphabet,
                u.letters + v.letters
                + inverse(u).letters + inverse(v).letters)


def exponent_sums(w):
    """Signed occurrence count of each generator, in alphabet order."""
    sums = [0] * len(w.alphabet)
    for c in w.letters:
        sums[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(sums)


#: The rank-2 alphabet the witness words live over.
XY = Alphabet(("x", "y"))


def bracket_word(bracket, alphabet):
    """The freely reduced word a commutator bracket spells.

    A bracket is a signed letter code (as in ``Word.letters``) or a pair
    ``(u, v)`` of brackets standing for ``[u, v]``.
    """
    if isinstance(bracket, tuple):
        u, v = bracket
        return commutator(bracket_word(u, alphabet), bracket_word(v, alphabet))
    return Word(alphabet, (bracket,), reduced=True)


def omega_bracket(n):
    """omega_n as a bracket over ``XY``: ((..((x, y), x), ..), x), n trailing x's."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x, y = XY.index("x") + 1, XY.index("y") + 1
    bracket = (x, y)
    for _ in range(n):
        bracket = (bracket, x)
    return bracket


def omega(n):
    """The left-normed commutator [x, y, x, ..., x] with n trailing x's."""
    return bracket_word(omega_bracket(n), XY)
