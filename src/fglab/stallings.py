"""Stallings subgroup automata for finitely generated subgroups of a free group.

A subgroup given by generator words becomes a folded, pruned core graph
whose base-to-base loop language is exactly the subgroup.  On top of that:
membership, index, normality, Schreier transversals, Reidemeister-Schreier
free bases, and rewriting of subgroup elements into the free basis.

Graphs are immutable after construction; every query is pure.
"""

import math
from collections import deque
from dataclasses import dataclass, field

from .words import (Alphabet, Word, _word, exponent_sums, identity, inverse,
                    multiply)

#: Distinguished return value of :func:`index` for infinite-index subgroups.
INFINITE = math.inf

#: Largest modulus ``d`` a kernel description file may ask for.  It bounds
#: the kernel graph, 2d dicts of about 1 KB per residue: at this cap ``fglab
#: subgroup index`` and ``contains`` peak near 120 MB.  It does not bound
#: ``basis`` and ``rewrite``, whose coset representatives and basis words
#: hold about d^2 letters, nor the time of ``normal``, which compares the
#: graph rebased at each of the d vertices.
MAX_KERNEL_D = 100_000


class NotInSubgroupError(ValueError):
    """Raised when a word is required to lie in the subgroup but does not."""


class InfiniteIndexError(ValueError):
    """Raised when an operation needs a finite-index subgroup but has none."""


class _Folder:
    """Union-find folding of a wedge of generator loops."""

    def __init__(self, n_gens):
        self.n_gens = n_gens
        self.parent = []
        self.out = []   # per vertex: gen -> target
        self.inn = []   # per vertex: gen -> source

    def new_vertex(self):
        v = len(self.parent)
        self.parent.append(v)
        self.out.append({})
        self.inn.append({})
        return v

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def add_edge(self, u, gen, v):
        queue = deque([("e", u, gen, v)])
        self._process(queue)

    def _process(self, queue):
        while queue:
            item = queue.popleft()
            if item[0] == "e":
                _, u, gen, v = item
                u, v = self.find(u), self.find(v)
                if gen in self.out[u]:
                    w = self.find(self.out[u][gen])
                    if w != v:
                        queue.append(("m", w, v))
                elif gen in self.inn[v]:
                    w = self.find(self.inn[v][gen])
                    if w != u:
                        queue.append(("m", w, u))
                    queue.append(("e", u, gen, v))
                else:
                    self.out[u][gen] = v
                    self.inn[v][gen] = u
            else:
                _, a, b = item
                a, b = self.find(a), self.find(b)
                if a == b:
                    continue
                # merge smaller map sets into larger
                if len(self.out[a]) + len(self.inn[a]) < len(self.out[b]) + len(self.inn[b]):
                    a, b = b, a
                self.parent[b] = a
                for gen, t in self.out[b].items():
                    if gen in self.out[a]:
                        queue.append(("m", self.find(self.out[a][gen]), self.find(t)))
                    else:
                        self.out[a][gen] = t
                self.out[b] = {}
                for gen, s in self.inn[b].items():
                    if gen in self.inn[a]:
                        queue.append(("m", self.find(self.inn[a][gen]), self.find(s)))
                    else:
                        self.inn[a][gen] = s
                self.inn[b] = {}


class SubgroupGraph:
    """Folded core graph with base vertex 0.

    ``out[v][g]`` is the endpoint of the g-labeled edge leaving v, if any;
    ``inn[v][g]`` the origin of the g-labeled edge entering v.  Generator
    labels g are alphabet indices.
    """

    __slots__ = ("alphabet", "out", "inn")

    def __init__(self, alphabet, out, inn):
        self.alphabet = alphabet
        self.out = tuple(dict(d) for d in out)
        self.inn = tuple(dict(d) for d in inn)

    @property
    def n_vertices(self):
        return len(self.out)

    def step(self, v, gen, sign):
        """Follow the edge labeled gen (sign -1: backwards); None if absent."""
        table = self.out[v] if sign > 0 else self.inn[v]
        return table.get(gen)

    def trace(self, w, start=0):
        """Endpoint of the path labeled w from start, or None if it breaks."""
        v = start
        for c in w.letters:
            v = self.step(v, abs(c) - 1, 1 if c > 0 else -1)
            if v is None:
                return None
        return v

    def edges(self):
        """All edges as (source, gen, target), in vertex/generator order."""
        return [(u, g, self.out[u][g])
                for u in range(self.n_vertices)
                for g in sorted(self.out[u])]

    def _canonical_key(self, base):
        """Edge set under BFS relabeling from the given base vertex."""
        order = {base: 0}
        queue = deque([base])
        while queue:
            v = queue.popleft()
            for gen in range(len(self.alphabet)):
                for sign in (1, -1):
                    w = self.step(v, gen, sign)
                    if w is not None and w not in order:
                        order[w] = len(order)
                        queue.append(w)
        edges = sorted((order[u], g, order[t]) for u, g, t in self.edges()
                       if u in order and t in order)
        return len(order), tuple(edges)

    def __eq__(self, other):
        return (isinstance(other, SubgroupGraph)
                and self.alphabet == other.alphabet
                and self.out == other.out)

    def __repr__(self):
        return "SubgroupGraph(%d vertices, %d edges over %r)" % (
            self.n_vertices, len(self.edges()), list(self.alphabet))


def build_graph(generators, alphabet):
    """Stallings construction: wedge generator loops and fold.

    The result is canonically relabeled (BFS from base, generators in
    alphabet order), so any permutation of an equivalent generator list
    yields an identical graph.  Empty/identity generators are dropped; an
    empty list gives the trivial subgroup's one-vertex graph.

    Folding already yields the core: each generator is reduced, so every
    vertex but the base lies inside a non-backtracking closed path and has
    degree at least 2.  No pruning pass is needed.
    """
    folder = _Folder(len(alphabet))
    base = folder.new_vertex()
    for w in generators:
        if w.alphabet != alphabet:
            raise ValueError("generator %r not over %r" % (w, alphabet))
        prev = base
        for i, c in enumerate(w.letters):
            nxt = base if i == len(w.letters) - 1 else folder.new_vertex()
            gen = abs(c) - 1
            if c > 0:
                folder.add_edge(prev, gen, nxt)
            else:
                folder.add_edge(nxt, gen, prev)
            prev = nxt

    # collect surviving vertices
    base = folder.find(base)
    roots = sorted({folder.find(v) for v in range(len(folder.parent))
                    if folder.find(v) == v})
    out = {r: {g: folder.find(t) for g, t in folder.out[r].items()} for r in roots}
    inn = {r: {g: folder.find(s) for g, s in folder.inn[r].items()} for r in roots}

    # canonical relabeling: BFS from base, generators in alphabet order
    order = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for g in range(len(alphabet)):
            for table in (out[v], inn[v]):
                w = table.get(g)
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)

    n = len(order)
    new_out = [dict() for _ in range(n)]
    new_inn = [dict() for _ in range(n)]
    for v, i in order.items():
        new_out[i] = {g: order[t] for g, t in out[v].items()}
        new_inn[i] = {g: order[s] for g, s in inn[v].items()}
    return SubgroupGraph(alphabet, new_out, new_inn)


def contains(graph, w):
    """True iff the path labeled w from base exists and returns to base."""
    if w.alphabet != graph.alphabet:
        raise ValueError("alphabet mismatch")
    return graph.trace(w) == 0


def index(graph):
    """Subgroup index: vertex count if the automaton covers the rose, else INFINITE."""
    n_gens = len(graph.alphabet)
    for v in range(graph.n_vertices):
        if len(graph.out[v]) < n_gens:
            return INFINITE
    return graph.n_vertices


def is_normal(graph):
    """Whether the subgroup is normal, by rebasing at every vertex.

    The graph rebased at v accepts the conjugate subgroup; normality means
    all rebasings are label-isomorphic to the original, which the canonical
    BFS form detects exactly.
    """
    if index(graph) is INFINITE:
        raise InfiniteIndexError("is_normal requires finite index")
    key = graph._canonical_key(0)
    return all(graph._canonical_key(v) == key for v in range(1, graph.n_vertices))


def _check_surjective(f, d, alphabet):
    g = d
    for name in alphabet:
        g = math.gcd(g, f[name] % d)
    if g != 1:
        raise ValueError("map does not generate Z_%d (gcd %d)" % (d, g))


def kernel_graph(f, d, alphabet):
    """Schreier graph of Ker(F -> Z_d): vertices are residues, base is 0.

    f maps generator names to residues; the edge (r, g) ends at r + f(g).
    The graph is folded and complete by construction, so the index is d
    and the subgroup is normal.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    missing = [name for name in alphabet if name not in f]
    if missing:
        raise ValueError("map undefined on %r" % (missing,))
    _check_surjective(f, d, alphabet)
    out = [dict() for _ in range(d)]
    inn = [dict() for _ in range(d)]
    for g, name in enumerate(alphabet):
        shift = f[name] % d
        for r in range(d):
            out[r][g] = (r + shift) % d
            inn[(r + shift) % d][g] = r
    return SubgroupGraph(alphabet, out, inn)


def restrict_kernel(f, d, sub):
    """Kernel graph of f restricted to the sub-alphabet ``sub``.

    ``sub`` is a list of generator names; the result lives over the new
    alphabet Alphabet(sub).  Fails if the restriction is no longer onto Z_d.
    """
    sub_alphabet = Alphabet(sub)
    return kernel_graph({name: f[name] for name in sub_alphabet}, d, sub_alphabet)


@dataclass(frozen=True)
class Transversal:
    """Schreier transversal from a BFS spanning tree.

    reps[v] is the coset representative reading base -> v along tree edges
    (so reps[0] is the identity); prefix-closure is the Schreier condition.
    tree_edges holds the tree edges in forward orientation (source, gen).
    order lists vertices in BFS discovery order.  preferred records the
    generator whose edges were explored first, if any.
    """
    graph: SubgroupGraph
    reps: tuple
    tree_edges: frozenset
    order: tuple
    preferred: str | None = None


def schreier_transversal(graph, preferred=None):
    """BFS spanning tree and coset representatives.

    When ``preferred`` names a generator, a first pass follows only its
    forward edges, so a kernel graph with f(preferred)=1 gets the
    representatives 1, x, x^2, ..., x^(d-1); the remaining vertices are
    then reached by ordinary BFS (preferred generator first, forward
    before backward edges).
    """
    if index(graph) is INFINITE:
        raise InfiniteIndexError("transversal requires finite index")
    alphabet = graph.alphabet
    gen_order = list(range(len(alphabet)))
    if preferred is not None:
        p = alphabet.index(preferred)
        gen_order.remove(p)
        gen_order.insert(0, p)

    reps = {0: identity(alphabet)}
    tree = set()
    order = [0]

    if preferred is not None:
        p = alphabet.index(preferred)
        step_word = Word(alphabet, (p + 1,), reduced=True)
        queue = deque([0])
        while queue:
            v = queue.popleft()
            w = graph.step(v, p, 1)
            if w is not None and w not in reps:
                reps[w] = multiply(reps[v], step_word)
                tree.add((v, p))
                order.append(w)
                queue.append(w)

    queue = deque(order)
    while queue:
        v = queue.popleft()
        for gen in gen_order:
            for sign in (1, -1):
                w = graph.step(v, gen, sign)
                if w is None or w in reps:
                    continue
                step = Word(alphabet, (sign * (gen + 1),), reduced=True)
                reps[w] = multiply(reps[v], step)
                tree.add((v, gen) if sign > 0 else (w, gen))
                order.append(w)
                queue.append(w)
    return Transversal(graph=graph,
                       reps=tuple(reps[v] for v in range(graph.n_vertices)),
                       tree_edges=frozenset(tree),
                       order=tuple(order),
                       preferred=preferred)


@dataclass(frozen=True)
class SchreierBasis:
    """Free basis of the subgroup, one generator per non-tree edge.

    alphabet names the basis letters; words[i] is the i-th basis element
    written in the ambient free group; edge_letter maps each non-tree edge
    (source, gen) to its basis letter index.

    A basis from :func:`schreier_basis` also carries the walk tables
    :func:`rewrite` reads, together with the graph and transversal they
    were built for; a basis built by hand carries none, and :func:`rewrite`
    then builds them on every call.
    """
    alphabet: Alphabet
    words: tuple
    edge_letter: dict
    _walk: tuple = field(default=None, repr=False, compare=False)


def _walk_tables(graph, transversal, edge_letter):
    """(graph, transversal, steps, emits); steps and emits are indexed by a
    signed letter code c.

    steps[c][v] is the vertex the c-edge at v leads to; emits[c][v] is the
    signed basis letter crossing that edge emits, 0 on a tree edge.
    Negative codes index from the end, as in ``Word.letters``.
    """
    tree_edges = transversal.tree_edges
    n, vertices = len(graph.alphabet), range(graph.n_vertices)
    steps, emits = [None] * (2 * n + 1), [None] * (2 * n + 1)
    for g in range(n):
        steps[g + 1] = tuple(graph.out[v][g] for v in vertices)
        steps[-g - 1] = tuple(graph.inn[v][g] for v in vertices)
        # a non-tree edge (u, g) emits +letter forwards, -letter backwards
        emits[g + 1] = tuple(0 if (v, g) in tree_edges
                             else edge_letter[(v, g)] + 1 for v in vertices)
        emits[-g - 1] = tuple(0 if (u, g) in tree_edges
                              else -edge_letter[(u, g)] - 1
                              for u in steps[-g - 1])
    return graph, transversal, tuple(steps), tuple(emits)


def schreier_basis(graph, transversal):
    """Reidemeister-Schreier basis from the non-tree edges.

    The element for edge (u, g, v) is rep(u) * g * rep(v)^-1, freely
    reduced in F.  Naming: when the transversal has a preferred generator
    and exactly one non-tree edge carries that label, that edge is named
    ``a`` and comes first, the rest ``b1..bk`` in (BFS order of source,
    generator index) order -- this makes kernel-graph bases read
    (a, b_1, ..., b_d).  Otherwise all are ``s1..sk`` in the same order.
    """
    alphabet = graph.alphabet
    pos = {v: i for i, v in enumerate(transversal.order)}
    nontree = sorted(((u, g) for u, g, _ in graph.edges()
                      if (u, g) not in transversal.tree_edges),
                     key=lambda e: (pos[e[0]], e[1]))

    preferred = transversal.preferred
    p_idx = alphabet.index(preferred) if preferred is not None else None
    preferred_edges = [e for e in nontree if e[1] == p_idx]
    if p_idx is not None and len(preferred_edges) == 1:
        ordered = preferred_edges + [e for e in nontree if e[1] != p_idx]
        names = ["a"] + ["b%d" % (i + 1) for i in range(len(ordered) - 1)]
    else:
        ordered = nontree
        names = ["s%d" % (i + 1) for i in range(len(ordered))]

    words = []
    edge_letter = {}
    for i, (u, g) in enumerate(ordered):
        v = graph.out[u][g]
        mid = Word(alphabet, (g + 1,), reduced=True)
        words.append(multiply(multiply(transversal.reps[u], mid),
                              inverse(transversal.reps[v])))
        edge_letter[(u, g)] = i
    return SchreierBasis(alphabet=Alphabet(names),
                         words=tuple(words),
                         edge_letter=edge_letter,
                         _walk=_walk_tables(graph, transversal, edge_letter))


def rewrite(graph, transversal, basis, w):
    """Rewrite a subgroup element in the Schreier basis.

    Traces w from base; every non-tree edge crossed emits its basis letter,
    signed by crossing direction.  Substituting the basis words back and
    reducing in F recovers w exactly.  The walk reads the basis's tables
    when they were built for this graph and transversal, and builds them
    otherwise; the graph has finite index, so the path never breaks.  The
    result is reduced without a reduction pass: two adjacent letters s,
    s^-1 would need a closed tree path between the two crossings, which a
    reduced w never takes.
    """
    if w.alphabet != graph.alphabet:
        raise ValueError("alphabet mismatch")
    walk = basis._walk
    if walk is None or walk[0] is not graph or walk[1] is not transversal:
        walk = _walk_tables(graph, transversal, basis.edge_letter)
    _, _, steps, emits = walk
    v = 0
    emitted = []
    append = emitted.append
    for c in w.letters:
        e = emits[c][v]
        if e:
            append(e)
        v = steps[c][v]
    if v != 0:
        raise NotInSubgroupError("word %r does not return to base" % (str(w),))
    return _word(basis.alphabet, tuple(emitted))


def evaluate(basis, w):
    """Substitute basis words into a word over the basis alphabet."""
    if w.alphabet != basis.alphabet:
        raise ValueError("word is not over the basis alphabet")
    result_letters = []
    for c in w.letters:
        piece = basis.words[abs(c) - 1]
        if c < 0:
            piece = inverse(piece)
        result_letters.extend(piece.letters)
    ambient = basis.words[0].alphabet if basis.words else None
    if ambient is None:
        raise ValueError("empty basis has no ambient alphabet")
    return Word(ambient, result_letters)


def in_derived_subgroup(graph, transversal, basis, w):
    """Whether w lies in [G, G]: its rewritten abelianization vanishes.

    Valid because the subgroup is free on the Schreier basis, so derived
    subgroup membership is exactly vanishing exponent sums.
    """
    return not any(exponent_sums(rewrite(graph, transversal, basis, w)))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def from_json(obj):
    """Build a graph from a parsed subgroup-description JSON object.

    Either {"alphabet": [...], "generators": ["x^3", "y", ...]} or
    {"alphabet": [...], "kernel": {"d": 3, "f": {"x": 1, "y": 0}}}.
    A field of the wrong type, or a kernel ``d`` above
    :data:`MAX_KERNEL_D`, raises ValueError naming the field; a missing
    required key raises KeyError.
    """
    from .words import parse_word

    if not isinstance(obj, dict):
        raise ValueError("a subgroup description is a JSON object")
    names = obj["alphabet"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError("alphabet must be a list of generator names")
    alphabet = Alphabet(names)
    if "kernel" in obj:
        spec = obj["kernel"]
        if not isinstance(spec, dict):
            raise ValueError("kernel must be an object with keys d and f")
        d, f = spec["d"], spec["f"]
        if not _is_int(d):
            raise ValueError("kernel d must be an integer, got %r" % (d,))
        if d > MAX_KERNEL_D:
            raise ValueError("kernel d must be at most %d, got %d"
                             % (MAX_KERNEL_D, d))
        if not (isinstance(f, dict) and all(_is_int(v) for v in f.values())):
            raise ValueError("kernel f must map generator names to integers")
        return kernel_graph(f, d, alphabet)
    texts = obj.get("generators", [])
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        raise ValueError("generators must be a list of word strings")
    gens = [parse_word(text, alphabet) for text in texts]
    return build_graph([g for g in gens if g], alphabet)
