"""Stallings subgroup automata for finitely generated subgroups of a free group.

A subgroup given by generator words becomes a folded, pruned core graph
whose base-to-base loop language is exactly the subgroup.  On top of that:
membership, index, normality, Schreier transversals, Reidemeister-Schreier
free bases, and rewriting of subgroup elements into the free basis.

Graphs are immutable after construction; every query is pure.
"""

import math
from collections import namedtuple
from itertools import chain, repeat, starmap

from .words import (Alphabet, Word, _fold_nodes, _word, exponent_sums, inverse,
                    parse_words)

#: Distinguished return value of :func:`index` for infinite-index subgroups.
INFINITE = math.inf

#: Largest modulus ``d`` a kernel file or ``fglab witness`` may ask for.  It
#: bounds the kernel graph, 2k + 1 rows of d vertices, and so the memory of
#: every query: a transversal keeps four ints per vertex, a basis its edges.
MAX_KERNEL_D = 100_000


class NotInSubgroupError(ValueError):
    """Raised when a word is required to lie in the subgroup but does not."""


class SubgroupGraph:
    """Folded core graph with base vertex 0.

    ``steps[c][v]`` is the vertex the c-edge at v leads to, or None, for a
    signed letter code c as in ``Word.letters``: the generator-g edge
    leaving v for c = g + 1, the one entering v for c = -(g + 1).  Negative
    codes index from the end.  The empty letter 0 leads every vertex to
    itself, so ``steps[0]`` is ``(0, 1, ..., n - 1)``.

    ``==`` compares based graphs up to renumbering: two graphs are equal when
    some bijection of their vertices fixes the base and carries every edge
    of one onto an edge of the other with the same label.  For core graphs
    this holds exactly when they give the same subgroup.  The same walk
    decides normality: :func:`is_normal` compares the graph with itself
    based at each generator's end.
    """

    __slots__ = ("alphabet", "steps")

    def __init__(self, alphabet, steps):
        self.alphabet = alphabet
        self.steps = tuple(map(tuple, steps))

    @property
    def n_vertices(self):
        return len(self.steps[0])

    def trace(self, w):
        """Endpoint of the path labeled w from base, or None if it breaks."""
        v, steps = 0, self.steps
        for c in w.letters:
            v = steps[c][v]
            if v is None:
                return None
        return v

    def edges(self):
        """All edges as (source, gen, target), in vertex/generator order."""
        rows = self.steps[1:len(self.alphabet) + 1]
        return [(u, g, row[u])
                for u in range(self.n_vertices)
                for g, row in enumerate(rows) if row[u] is not None]

    def __eq__(self, other):
        return (isinstance(other, SubgroupGraph)
                and self.alphabet == other.alphabet
                and self.n_vertices == other.n_vertices
                and self._walk(other, 0))

    def _walk(self, other, base):
        """Whether a bijection onto ``other``, a graph of as many vertices,
        carries 0 to ``base`` and every edge onto an edge with the same
        label.  At most one c-edge leaves a vertex, so a walk of both graphs
        in lockstep finds the bijection or shows there is none."""
        mine, theirs = self.steps[1:], other.steps[1:]
        image, queue = [base] + [None] * (self.n_vertices - 1), [0]
        for v in queue:                      # grows while it is read
            w = image[v]
            for row, other_row in zip(mine, theirs):
                s, t = row[v], other_row[w]
                if s is None or t is None:
                    if s is not t:
                        return False
                elif image[s] is None:
                    image[s] = t
                    queue.append(s)
                elif image[s] != t:
                    return False
        return len(queue) == len(set(image)) == self.n_vertices

    def __repr__(self):
        return "SubgroupGraph(%d vertices, %d edges over %r)" % (
            self.n_vertices, len(self.edges()), list(self.alphabet))


def build_graph(generators, alphabet):
    """Stallings construction: wedge generator loops and fold.

    Vertices are numbered in the order the fold creates them, the base 0.
    A merge keeps the smaller of two vertices, and the last vertices then
    take the numbers the merged ones leave free, so the numbers run from 0
    to n - 1.  The numbering thus depends on the generators' order, but the
    based graph does not: any permutation of the list gives an equal graph
    (see ``SubgroupGraph``).  Empty/identity generators are dropped; an
    empty list gives the trivial subgroup's one-vertex graph.

    The fold fills the columns ``steps[c]`` of ``SubgroupGraph`` and keeps
    them exact: every edge is stored at both of its ends, and no entry
    names a merged vertex.  Each generator is read from the base along
    existing edges, forwards from its start and backwards from its end;
    only the letters in between add new vertices.  ``join`` adds an edge,
    or queues two vertices to merge where an end already has an edge of
    its label; one union-find stack merges them.  ``move`` carries every
    edge of a vertex to another, for a merge and for the renumbering.
    Folding already yields the core: each generator is reduced, so every
    vertex but the base lies inside a non-backtracking closed path and has
    degree at least 2.
    """
    steps = [[None] for _ in range(2 * len(alphabet) + 1)]
    parent, pending, merged = [0], [], []

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def join(u, c, v):
        # at most one c-edge leaves u and one -c edge leaves v; where one is
        # there, the new edge folds onto it once the far ends merge
        s, r = steps[c][u], steps[-c][v]
        if s is None and r is None:
            steps[c][u], steps[-c][v] = v, u
        elif s != v:
            pending.extend(pair for pair in ((s, v), (r, u)) if pair[0] is not None)

    def move(b, a):
        # steps[-c] is the column of the inverse code for every c in range
        for c in range(1, len(steps)):
            t = steps[c][b]
            if t is not None:
                steps[c][b] = steps[-c][t] = None
                join(a, c, a if t == b else t)

    for w in generators:
        if w.alphabet != alphabet:
            raise ValueError("generator %r not over %r" % (w, alphabet))
        letters = w.letters
        u = i = 0
        for c in letters:
            t = steps[c][u]
            if t is None:
                break
            u, i = t, i + 1
        v, j = 0, len(letters)
        while j > i:
            t = steps[-letters[j - 1]][v]
            if t is None:
                break
            v, j = t, j - 1
        if i == j:
            # the whole generator reads as the paths 0 -> u and v -> 0
            pending.append((u, v))
        else:
            first, fresh = len(parent), j - 1 - i
            parent += range(first, first + fresh)
            for c in range(1, len(steps)):
                steps[c] += [None] * fresh
            # the table shares parent's int objects for the new vertices; u
            # has no c-edge, since it is fresh and w is reduced, or it ended
            # the forward read
            for c, x in zip(letters[i:j - 1], parent[first:]):
                steps[c][u], steps[-c][x] = x, u
                u = x
            join(u, letters[j - 1], v)
        while pending:
            a, b = map(find, pending.pop())
            if a != b:
                if a > b:
                    a, b = b, a
                # the smaller vertex stays the root, so the base stays 0
                parent[b] = a
                merged.append(b)
                move(b, a)

    # n vertices survive; those numbered n or more move into the numbers the
    # merged vertices leave free below n
    n = len(parent) - len(merged)
    holes = [b for b in merged if b < n]
    for h, v in zip(holes, [v for v in range(n, len(parent)) if parent[v] == v]):
        move(v, h)
        parent[h] = h
    del parent[n:]
    steps[0] = parent
    # each list goes as soon as its tuple is made
    for c in range(1, len(steps)):
        del steps[c][n:]
        steps[c] = tuple(steps[c])
    return SubgroupGraph(alphabet, steps)


def contains(graph, w):
    """True iff the path labeled w from base exists and returns to base."""
    if w.alphabet != graph.alphabet:
        raise ValueError("alphabet mismatch")
    return graph.trace(w) == 0


def index(graph):
    """Subgroup index: vertex count if the automaton covers the rose, else INFINITE."""
    if any(None in row for row in graph.steps[1:]):
        return INFINITE
    return graph.n_vertices


def is_normal(graph):
    """Whether the subgroup H is normal, in O(k^2 n) for k generators.

    H is normal iff H = g^-1 H g for every generator g.  Where the g-edge
    at the base exists, the loops at its end g(0) spell g^-1 H g, so that
    holds iff the graph based at g(0) equals the graph based at 0, which one
    lockstep walk decides.  Where it is missing and H != 1, the graph of
    g^-1 H g is this one with a new base b and the g-edge 0 -> b: one vertex
    more, so H is not normal.  The graph of H = 1 is one vertex, no edge.
    """
    ends = [row[0] for row in graph.steps[1:len(graph.alphabet) + 1]]
    if None in ends:
        return graph.n_vertices == 1 and set(ends) == {None}
    return all(graph._walk(graph, v) for v in ends)


def kernel_graph(f, d, alphabet):
    """Schreier graph of Ker(F -> Z_d): vertices are residues, base is 0.

    f maps each generator name, and nothing else, to a residue; the edge
    (r, g) ends at r + f(g).
    The graph is folded and complete by construction, so the index is d
    and the subgroup is normal.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    missing = [name for name in alphabet if name not in f]
    if missing:
        raise ValueError("map undefined on %r" % (missing,))
    unknown = [name for name in f if name not in alphabet]
    if unknown:
        raise ValueError("map defined off the alphabet on %r" % (unknown,))
    g = math.gcd(d, *(f[name] for name in alphabet))
    if g != 1:
        raise ValueError("map does not generate Z_%d (gcd %d)" % (d, g))
    # rotations of one tuple share its int objects
    residues = tuple(range(d))
    steps = [residues] + [None] * (2 * len(alphabet))
    for g, name in enumerate(alphabet):
        shift = f[name] % d
        steps[g + 1] = residues[shift:] + residues[:shift]
        steps[-g - 1] = residues[d - shift:] + residues[:d - shift]
    return SubgroupGraph(alphabet, steps)


def _spelled(alphabet, runs):
    """The Word of reduced runs (code, k), k letters ``code`` each."""
    return _word(alphabet, tuple(chain.from_iterable(starmap(repeat, runs))))


class Transversal(namedtuple("Transversal", "graph tree order start k preferred",
                             defaults=(None,))):
    """BFS spanning tree of a core graph; at finite index, a coset transversal.

    tree[v] is the signed code of the tree edge entering v, 0 at the base:
    the c-edge v -> w is a tree edge iff tree[w] == c or tree[v] == -c.
    order lists vertices in BFS discovery order, each after its tree parent.
    start[v] and k[v] point back along the last run of equal codes on v's
    tree path: it has k[v] letters tree[v] and begins at vertex start[v]
    (both 0 at the base).  preferred records the generator whose forward
    edges were explored first, if any.
    """
    __slots__ = ()

    def rep_runs(self, v):
        """The tree path from the base to v as runs (code, k), one step per
        run.  It never turns back in a folded graph, so the runs spell a
        reduced word; the representatives are prefix-closed."""
        tree, start, k, runs = self.tree, self.start, self.k, []
        while v:
            runs.append((tree[v], k[v]))
            v = start[v]
        runs.reverse()
        return runs

    def rep(self, v):
        """The representative of v as a Word; rep(0) is the identity."""
        return _spelled(self.graph.alphabet, self.rep_runs(v))


def schreier_transversal(graph, preferred=None):
    """BFS spanning tree of a core graph, in one pass.

    When ``preferred`` names a generator, a first phase follows only its
    forward edges, so a kernel graph with f(preferred)=1 gets the
    representatives 1, x, x^2, ..., x^(d-1); a second phase reads ``order``
    again from the base and follows all edges (preferred generator first,
    forward before backward).  A vertex gets its tree code and run pointers
    when first reached, from its parent's, which are final by then.
    """
    alphabet, steps, n = graph.alphabet, graph.steps, graph.n_vertices
    gen_order, phases = range(len(alphabet)), []
    if preferred is not None:
        p = alphabet.index(preferred)
        gen_order = [p] + [g for g in gen_order if g != p]
        phases.append([p + 1])
    phases.append([s * (g + 1) for g in gen_order for s in (1, -1)])
    tree, start, k, order = [0] + [None] * (n - 1), [0] * n, [0] * n, [0]
    for codes in phases:
        for v in order:                  # grows while it is read
            for c in codes:
                w = steps[c][v]
                if w is not None and tree[w] is None:
                    tree[w] = c
                    start[w], k[w] = (start[v], k[v] + 1) if tree[v] == c else (v, 1)
                    order.append(w)
    return Transversal(graph=graph, tree=tuple(tree), order=tuple(order),
                       start=tuple(start), k=tuple(k), preferred=preferred)


class SchreierBasis(namedtuple("SchreierBasis", "alphabet transversal edges")):
    """Free basis of the subgroup, one generator per non-tree edge.

    alphabet names the basis letters; edges[i] is the non-tree edge
    (source, gen) of letter i, read against the tree of ``transversal``.
    """
    __slots__ = ()

    def runs(self, i):
        """Basis element i, rep(u) g rep(v)^-1 for its edge u -g-> v, as
        runs (code, k).  Equal codes merge at the two seams around g, and
        nothing cancels there: that would make u -g-> v a tree edge."""
        u, g = self.edges[i]
        t, c = self.transversal, g + 1
        head, tail, k = t.rep_runs(u), t.rep_runs(t.graph.steps[c][u]), 1
        if head and head[-1][0] == c:
            k += head.pop()[1]
        if tail and tail[-1][0] == -c:
            k += tail.pop()[1]
        head.append((c, k))
        head += [(-code, n) for code, n in reversed(tail)]
        return head

    def word(self, i):
        """Basis element i as a Word over the graph's alphabet."""
        return _spelled(self.transversal.graph.alphabet, self.runs(i))


def schreier_basis(graph, transversal):
    """Reidemeister-Schreier basis from the non-tree edges.

    The element for edge (u, g, v) is rep(u) * g * rep(v)^-1, given as runs
    by ``SchreierBasis.runs``.  Naming: when the transversal has a preferred
    generator and exactly one non-tree edge carries that label, that edge
    is named ``a`` and comes first, the rest ``b1..bk`` in (BFS order of
    source, generator index) order -- this makes kernel-graph bases read
    (a, b_1, ..., b_d).  Otherwise all are ``s1..sk`` in the same order.
    """
    alphabet = graph.alphabet
    tree = transversal.tree
    rows = graph.steps[1:len(alphabet) + 1]
    nontree = [(u, g) for u in transversal.order
               for g, row in enumerate(rows)
               if row[u] is not None
               and tree[row[u]] != g + 1 and tree[u] != -g - 1]

    preferred = transversal.preferred
    p_idx = alphabet.index(preferred) if preferred is not None else None
    preferred_edges = [e for e in nontree if e[1] == p_idx]
    if p_idx is not None and len(preferred_edges) == 1:
        ordered = preferred_edges + [e for e in nontree if e[1] != p_idx]
        names = ["a"] + ["b%d" % (i + 1) for i in range(len(ordered) - 1)]
    else:
        ordered = nontree
        names = ["s%d" % (i + 1) for i in range(len(ordered))]
    return SchreierBasis(alphabet=Alphabet(names), transversal=transversal,
                         edges=tuple(ordered))


def _emits(graph, basis):
    """``emits[c][v]``: the signed basis letter the c-edge at v emits, or 0."""
    emits = [[0] * graph.n_vertices for _ in graph.steps]
    for i, (u, g) in enumerate(basis.edges):   # +letter along the edge, - back
        emits[g + 1][u], emits[-g - 1][graph.steps[g + 1][u]] = i + 1, -i - 1
    return emits


def rewrite(graph, transversal, basis, w):
    """Rewrite a subgroup element in the Schreier basis.

    Traces w from base; every non-tree edge crossed emits its basis letter,
    signed by crossing direction.  Substituting the basis words back and
    reducing in F recovers w exactly.  The walk reads ``_emits``, built on
    each call, so no word is spelled.  A path that leaves the graph or ends
    off the base raises NotInSubgroupError, and a transversal that is not
    the basis's own, ValueError.  The result is reduced without a reduction
    pass: two adjacent letters s, s^-1 would need a closed tree path between
    the two crossings, which a reduced w never takes.
    """
    if w.alphabet != graph.alphabet:
        raise ValueError("alphabet mismatch")
    if transversal != basis.transversal:   # identical fields short-circuit
        raise ValueError("transversal mismatch: not the basis's transversal")
    steps, emits = graph.steps, _emits(graph, basis)
    v = 0
    emitted = []
    append = emitted.append
    try:
        for c in w.letters:
            e = emits[c][v]
            if e:
                append(e)
            v = steps[c][v]
    except TypeError:                    # emits[c][None]: the path broke
        v = None
    if v != 0:
        raise NotInSubgroupError("word %r does not return to base" % (str(w),))
    return _word(basis.alphabet, tuple(emitted))


def bracket_exponents(graph, basis, nodes):
    """``rewrite`` on a bracket's node list (``words.bracket_word``): each
    node's end vertex and basis exponent sums, read from the base.  Bottom-up,
    each node's vertex permutation p; top-down, where it is read: the base,
    and for [u, w] read at v, u at v and s = p_u^-1 p_w p_u(v), w at p_u(v)
    and t = p_w^-1(s); bottom-up, sums there only, E_u(v) + E_w(p_u(v)) -
    E_u(s) - E_w(t).  ValueError: a bad list or leaf, or infinite index."""
    # the fold checks the list, and gives its largest letter code
    if _fold_nodes(nodes, abs, max) > len(graph.alphabet) or index(graph) == INFINITE:
        raise ValueError("bracket_exponents needs a finite-index graph over the leaves")
    leaves = [(i, c) for i, c in enumerate(nodes) if not isinstance(c, tuple)]
    pairs = [(i, *e) for i, e in enumerate(nodes) if isinstance(e, tuple)]
    perms, at, sums = [None] * len(nodes), [{0} for _ in nodes], [None] * len(nodes)
    for i, c in leaves:
        perms[i] = graph.steps[c], graph.steps[-c]   # (p, p^-1)
    for i, j, k in pairs:   # [u, w] reads u, w, u^-1, w^-1, and [w, u] back
        (u, ui), (w, wi) = perms[j], perms[k]
        perms[i] = tuple([wi[ui[w[x]]] for x in u]), tuple([ui[wi[u[x]]] for x in w])
    for i, j, k in reversed(pairs):
        (u, ui), (w, wi) = perms[j], perms[k]
        at[j] |= at[i] | {ui[w[u[v]]] for v in at[i]}
        at[k] |= {u[v] for v in at[i]} | {wi[ui[w[u[v]]]] for v in at[i]}
    emits, zero = _emits(graph, basis), (0,) * len(basis.edges)
    for i, c in leaves:   # the c-edge at v emits one signed basis letter e, or none
        sums[i] = {v: zero[:abs(e) - 1] + (1 if e > 0 else -1,) + zero[abs(e):]
                   if e else zero for v in at[i] for e in (emits[c][v],)}
    for i, j, k in pairs:
        (u, ui), (w, wi), eu, ew = perms[j], perms[k], sums[j], sums[k]
        sums[i] = {v: tuple([a + b - c - d for a, b, c, d in zip(
            eu[v], ew[u[v]], eu[s], ew[wi[s]])]) for v in at[i] for s in (ui[w[u[v]]],)}
    return [(p[0], E[0]) for (p, _), E in zip(perms, sums)]


def evaluate(basis, w):
    """Substitute basis words into a word over the basis alphabet.

    Each distinct basis letter of w is spelled once.
    """
    if w.alphabet != basis.alphabet:
        raise ValueError("word is not over the basis alphabet")
    pieces = {}
    for c in set(map(abs, w.letters)):
        piece = basis.word(c - 1)
        pieces[c], pieces[-c] = piece.letters, inverse(piece).letters
    return Word(basis.transversal.graph.alphabet,
                chain.from_iterable(map(pieces.__getitem__, w.letters)))


def in_derived_subgroup(graph, transversal, basis, w):
    """Whether w lies in [G, G]: its rewritten abelianization vanishes.

    Valid because the subgroup is free on the Schreier basis, so derived
    subgroup membership is exactly vanishing exponent sums.
    """
    return not any(exponent_sums(rewrite(graph, transversal, basis, w)))


def from_json(obj):
    """Build a graph from a parsed subgroup-description JSON object.

    Either {"alphabet": [...], "generators": ["x^3", "y", ...]} or
    {"alphabet": [...], "kernel": {"d": 3, "f": {"x": 1, "y": 0}}}.
    A field of the wrong type, both or neither of those two keys, or a
    kernel ``d`` above :data:`MAX_KERNEL_D` raises ValueError naming the
    field; a missing required key raises KeyError.
    """
    if not isinstance(obj, dict):
        raise ValueError("a subgroup description is a JSON object")
    names = obj["alphabet"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError("alphabet must be a list of generator names")
    alphabet = Alphabet(names)
    if ("generators" in obj) == ("kernel" in obj):
        raise ValueError("a description has exactly one of generators and kernel")
    if "kernel" in obj:
        spec = obj["kernel"]
        if not isinstance(spec, dict):
            raise ValueError("kernel must be an object with keys d and f")
        d, f = spec["d"], spec["f"]
        if type(d) is not int:  # nor a bool
            raise ValueError("kernel d must be an integer, got %r" % (d,))
        if d > MAX_KERNEL_D:
            raise ValueError("kernel d must be at most %d, got %d"
                             % (MAX_KERNEL_D, d))
        if not (isinstance(f, dict) and {int}.issuperset(map(type, f.values()))):
            raise ValueError("kernel f must map generator names to integers")
        return kernel_graph(f, d, alphabet)
    texts = obj["generators"]
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        raise ValueError("generators must be a list of word strings")
    return build_graph([g for g in parse_words(texts, alphabet) if g], alphabet)
