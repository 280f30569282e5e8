"""Freely reduced words over a finite generator alphabet.

A word is stored as a tuple of nonzero signed integers: ``+(i+1)`` stands
for generator number ``i`` of the alphabet, ``-(i+1)`` for its inverse.
Every constructor reduces eagerly, so a ``Word`` is always freely reduced
and the empty tuple is the identity.  All values here are immutable and
every operation is a pure function.

Letters are checked once, where they come from outside: ``Word(...)``
validates its codes and ``parse_word`` its tokens.  Products of words that
are already valid (``multiply``, ``inverse``, ``commutator`` and everything
built from them) trust their inputs: they cancel only at the seams and skip
both reduction and re-validation.  The per-letter work runs in bulk passes
(``map``, ``zip``, ``str.join``, ``itertools``) so that C code does it.
"""

import re
from itertools import chain, compress, count, groupby, islice
from operator import eq, itemgetter, ne, neg

# names and exponents are ASCII: \d would also read other decimal digits
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"(%s)(?:\^(-?[0-9]+))?\Z" % _NAME_RE.pattern)

#: Most letters where words enter: in all the texts one ``parse_words`` call
#: reads, before reduction, and in ``omega``.  omega_23 has 2^25 + 2.
MAX_WORD_LETTERS = 2 ** 26


class ParseError(ValueError):
    """Raised for malformed word text."""


class Alphabet:
    """Ordered list of distinct generator names; indexing is stable."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        self._index = dict(zip(names, range(len(names))))
        # bulk checks first; the loop runs only to name the first bad name
        if len(self._index) < len(names) or not all(map(_NAME_RE.fullmatch, names)):
            seen = set()
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise ValueError("bad generator name: %r" % (name,))
                if name in seen:
                    raise ValueError("duplicate generator name: %r" % (name,))
                seen.add(name)
        self.names = names

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
    letters = tuple(letters)
    # a scan that copies nothing; most inputs are already reduced
    if not any(map(eq, letters, map(neg, islice(letters, 1, None)))):
        return letters
    stack = []
    for c in letters:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _run_token(alphabet, code, k):
    """The token of a run of k letters ``code``: name^k, k=1 omitted."""
    name = alphabet[abs(code) - 1]
    if code < 0:
        k = -k
    return name if k == 1 else "%s^%d" % (name, k)


def format_runs(alphabet, runs):
    """The text of the word that maximal runs (code, k) spell, as ``str``
    gives it, in one step per run."""
    return " ".join([_run_token(alphabet, c, k) for c, k in runs])


class _RunTokens(dict):
    """A run of equal letters, as a tuple -> its token, formatted on first use."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet):
        super().__init__()
        self.alphabet = alphabet

    def __missing__(self, run):
        token = self[run] = _run_token(self.alphabet, run[0], len(run))
        return token


def _product(u, v):
    """The reduced product of two reduced letter tuples, cancelled at the seam."""
    k = next(compress(count(), map(ne, reversed(u), map(neg, v))),
             min(len(u), len(v)))
    return u[:len(u) - k] + v[k:]


def _inverse(letters):
    return tuple(map(neg, reversed(letters)))


class Word:
    """A freely reduced word over an :class:`Alphabet`."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=()):
        letters = tuple(letters)
        # types first, in one C-level pass: 1.5, True or "x" is no code
        if not {int}.issuperset(map(type, letters)):
            bad = next(c for c in letters if type(c) is not int)
            raise ValueError("letter code not an int: %r" % (bad,))
        letters = free_reduce(letters)
        n = len(alphabet)
        if letters and (0 in letters or max(letters) > n or min(letters) < -n):
            bad = next(c for c in letters if c == 0 or abs(c) > n)
            raise ValueError("letter code out of range: %r" % (bad,))
        self.alphabet = alphabet
        self.letters = letters

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
        letters = self.letters
        # repeats[i] is 1 where letter i + 1 repeats letter i, so each run
        # of two or more letters starts a block of ones
        repeats = bytes(map(eq, letters, islice(letters, 1, None)))
        runs = repeats.count(b"\0\1") + repeats.startswith(b"\1")
        if runs > len(letters) // 16:
            # more than one such run per 16 letters: formatting run by run
            # through groupby is the cheaper route; only distinct runs are
            # formatted
            return " ".join(map(_RunTokens(self.alphabet).__getitem__,
                                map(tuple, map(itemgetter(1), groupby(letters)))))
        # few runs: the letters between them map one by one to their tokens,
        # where the inverse codes index the tokens from the end
        names = self.alphabet.names
        # a list: its __getitem__ is a faster call than a tuple's
        tokens = ["", *names, *("%s^-1" % n for n in reversed(names))]
        rest, pieces, done = iter(letters), [], 0
        start = repeats.find(1)
        while start >= 0:
            stop = repeats.find(0, start) + 1
            if not stop:
                stop = len(letters)
            # letters[done:start] one by one, then the run letters[start:stop]
            # as the token its last letter maps to
            code = letters[start]
            run = {code: _run_token(self.alphabet, code, stop - start)}
            pieces += (map(tokens.__getitem__, islice(rest, start - done)),
                       map(run.__getitem__,
                           islice(rest, stop - start - 1, stop - start)))
            done = stop
            start = repeats.find(1, stop)
        pieces.append(map(tokens.__getitem__, rest))
        del repeats  # not held while the text is built
        return " ".join(chain.from_iterable(pieces))

    def __repr__(self):
        return "Word(%r)" % (str(self),)


def _word(alphabet, letters):
    """A Word from a reduced tuple of valid codes, with no reduction or check."""
    w = object.__new__(Word)
    w.alphabet = alphabet
    w.letters = letters
    return w


def identity(alphabet):
    return _word(alphabet, ())


def generator(alphabet, name, power=1):
    """The word ``name^power``."""
    code = alphabet.index(name) + 1
    if power < 0:
        code, power = -code, -power
    return _word(alphabet, (code,) * power)


def parse_word(text, alphabet):
    """The word of one text, as :func:`parse_words` reads it."""
    return parse_words([text], alphabet)[0]


def parse_words(texts, alphabet):
    """Parse texts of whitespace-separated ``name`` / ``name^k`` tokens.

    ``x^-2`` expands to two inverse letters before reduction, so each text
    yields the free reduction of its literal word; empty text is the
    identity.  Each distinct token is read once, so the error raised is for
    the first bad token of the first bad text.  More than
    :data:`MAX_WORD_LETTERS` letters in all raise ParseError, counted from
    the exponents before any letter is spelled; an exponent of more than 18
    digits, its sign and leading zeros aside, by its length alone.
    """
    # one string object per distinct token, however often it repeats
    lengths, codes = {}, {}
    token_lists = [list(map(lengths.setdefault, tokens, tokens))
                   for tokens in map(str.split, texts)]
    for token in lengths:
        m = _TOKEN_RE.match(token)
        if not m:
            raise ParseError("malformed token: %r" % (token,))
        name, exp = m.group(1), m.group(2) or "1"
        code = alphabet.index(name) + 1
        # an exponent of over 18 digits is far over the bound: int() never reads it
        digits = exp.lstrip("-").lstrip("0")
        if len(digits) > 18:
            raise ParseError("token %s^... has a %d-digit exponent, more than the %d "
                             "letters allowed" % (name, len(digits), MAX_WORD_LETTERS))
        if not digits:
            raise ParseError("zero exponent in token: %r" % (token,))
        lengths[token], codes[token] = int(digits), -code if exp[0] == "-" else code
    # the letters are counted token by token only when the longest token
    # could pass the bound
    longest = max(lengths.values(), default=1)
    if sum(map(len, token_lists)) * longest > MAX_WORD_LETTERS:
        total = sum(map(lengths.__getitem__, chain.from_iterable(token_lists)))
        if total > MAX_WORD_LETTERS:
            raise ParseError("%s %d letters, more than the %d allowed" % (
                "word has" if len(token_lists) == 1 else "the words have",
                total, MAX_WORD_LETTERS))
    spelled = {token: (codes[token],) * k for token, k in lengths.items()}
    return [_word(alphabet, free_reduce(
                chain.from_iterable(map(spelled.__getitem__, tokens))))
            for tokens in token_lists]


def _check_alphabets(u, v):
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch: %r vs %r" % (u.alphabet, v.alphabet))


def multiply(u, v):
    """Freely reduced concatenation u*v."""
    _check_alphabets(u, v)
    return _word(u.alphabet, _product(u.letters, v.letters))


def inverse(w):
    """Reverse the word and flip every sign."""
    return _word(w.alphabet, _inverse(w.letters))


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    _check_alphabets(u, v)
    a, b = u.letters, v.letters
    return _word(u.alphabet,
                 _product(_product(_product(a, b), _inverse(a)), _inverse(b)))


def exponent_sums(w):
    """Signed occurrence count of each generator, in alphabet order."""
    sums = [0] * len(w.alphabet)
    for c in w.letters:
        sums[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(sums)


#: The rank-2 alphabet the witness words live over.
XY = Alphabet(("x", "y"))


def _fold_nodes(nodes, leaf, join):
    """Evaluate a bracket bottom-up over its node list (see ``bracket_word``).

    ``leaf(code)`` gives the value of a leaf and ``join(a, b)`` that of
    ``[u, v]`` from the values of u and v.  Each node is evaluated once, its
    value dropped after its last use.  An empty list, a leaf not a nonzero
    ``int``, or a pair naming a node not before its own raises ValueError.
    Private because it runs its callers' work: timing by public function
    charges that work to the caller.
    """
    if not nodes:
        raise ValueError("a bracket has at least one node")
    uses = [0] * len(nodes)
    for at, entry in enumerate(nodes):
        if isinstance(entry, tuple) and len(entry) == 2:
            for i in entry:
                if type(i) is not int or not 0 <= i < at:
                    raise ValueError("node %d names node %r, not before it" % (at, i))
                uses[i] += 1
        elif type(entry) is not int or not entry:   # nor a bool
            raise ValueError("node %d is %r, not a nonzero int or a pair" % (at, entry))
    values = []
    for entry in nodes:
        if isinstance(entry, tuple):
            j, k = entry
            values.append(join(values[j], values[k]))
            for i in entry:
                uses[i] -= 1
                if not uses[i]:
                    values[i] = None
        else:
            values.append(leaf(entry))
    return values[-1]


def bracket_word(bracket, alphabet):
    """The freely reduced word a commutator bracket spells.

    A bracket is a node list (a straight-line program): entry i is a signed
    letter code, as in ``Word.letters``, or a pair ``(j, k)`` with j, k < i for
    ``[node j, node k]``; the root comes last, and pairs may share a node."""
    return _fold_nodes(bracket, lambda c: Word(alphabet, (c,)), commutator)


def omega_bracket(n):
    """omega_n as a bracket over ``XY``: x, y, [x, y], then one [node, x] per
    trailing x, so ``(x, y, (0, 1), (2, 0), ..., (n + 1, 0))``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x, y = XY.index("x") + 1, XY.index("y") + 1
    return (x, y, (0, 1), *((i, 0) for i in range(2, n + 2)))


def omega(n):
    """The left-normed commutator [x, y, x, ..., x] with n trailing x's.

    Its 2^(n+2) + 2 letters (4 for n = 0) may not exceed
    :data:`MAX_WORD_LETTERS`, so n <= 23.
    """
    if 2 ** min(n + 2, 64) + 2 > MAX_WORD_LETTERS:
        raise ValueError("omega_%d has 2^%d + 2 letters, more than the %d allowed"
                         % (n, n + 2, MAX_WORD_LETTERS))
    return bracket_word(omega_bracket(n), XY)
