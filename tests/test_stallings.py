import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fglab import stallings
from fglab.stallings import (INFINITE, NotInSubgroupError, SubgroupGraph,
                             bracket_exponents, build_graph, contains,
                             evaluate, from_json, in_derived_subgroup, index,
                             is_normal, kernel_graph, rewrite, schreier_basis,
                             schreier_transversal)
from fglab.words import (XY, Alphabet, Word, bracket_word, commutator,
                         exponent_sums, format_runs, identity, inverse,
                         multiply, omega, omega_bracket, parse_word)

from test_magnus_routes import shared_brackets

AB = Alphabet(["a", "b"])

INDEX3_GENS = ["a", "b^2", "b a^2 b", "b a b a b"]


def index3_graph():
    return build_graph([parse_word(t, AB) for t in INDEX3_GENS], AB)


def kernel_machinery(d, f=None, alphabet=XY, preferred="x"):
    g = kernel_graph(f or {"x": 1, "y": 0}, d, alphabet)
    t = schreier_transversal(g, preferred=preferred)
    return g, t, schreier_basis(g, t)


def reps(t):
    return [t.rep(v) for v in range(t.graph.n_vertices)]


def basis_words(b):
    return [b.word(i) for i in range(len(b.edges))]


def random_kernel_element(rng, d, max_len=40):
    """Random walk from base padded back to base with x-steps."""
    letters = []
    residue = 0
    for _ in range(rng.randrange(max_len - d)):
        c = rng.choice([1, -1]) * rng.randrange(1, 3)
        letters.append(c)
        if abs(c) == 1:
            residue = (residue + (1 if c > 0 else -1)) % d
    letters.extend([1] * ((d - residue) % d))
    return Word(XY, letters)


class TestBuildGraph:
    def test_single_loop(self):
        g = build_graph([parse_word("x", XY)], XY)
        assert g.n_vertices == 1
        assert g.edges() == [(0, 0, 0)]

    def test_paper_index3_fixture(self):
        g = index3_graph()
        assert g.n_vertices == 3

    def test_conjugate_loop(self):
        g = build_graph([parse_word("x y x^-1", XY)], XY)
        assert g.n_vertices == 2

    def test_empty_generators_trivial_subgroup(self):
        g = build_graph([], XY)
        assert g.n_vertices == 1 and g.edges() == []

    def test_identity_generators_dropped(self):
        gens = [parse_word(t, AB) for t in INDEX3_GENS]
        padded = gens + [identity(AB)]
        assert build_graph([w for w in padded if w], AB) == index3_graph()

    def test_deterministic_under_permutation(self):
        gens = [parse_word(t, AB) for t in INDEX3_GENS]
        rng = random.Random(17)
        reference = build_graph(gens, AB)
        for _ in range(20):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert build_graph(shuffled, AB) == reference


def graph_of_edges(alphabet, n, edges):
    """The graph on vertices 0..n-1 with the edges (source, gen, target)."""
    steps = [range(n)] + [[None] * n for _ in range(2 * len(alphabet))]
    for u, g, v in edges:
        steps[g + 1][u], steps[-g - 1][v] = v, u
    return SubgroupGraph(alphabet, steps)


class TestGraphEquality:
    def test_equal_under_renumbering(self):
        g = index3_graph()
        swap = [0, 2, 1]
        renumbered = graph_of_edges(AB, 3, [(swap[u], gen, swap[v])
                                            for u, gen, v in g.edges()])
        assert renumbered.steps != g.steps
        assert renumbered == g and g == renumbered

    def test_base_vertex_matters(self):
        # both are an x-cycle of length 2 with one y-loop, at the base in
        # one and off it in the other
        conj = build_graph([parse_word(t, XY) for t in ("x^2", "x y x^-1")], XY)
        flat = build_graph([parse_word(t, XY) for t in ("x^2", "y")], XY)
        assert conj.n_vertices == flat.n_vertices == 2
        assert len(conj.edges()) == len(flat.edges()) == 3
        assert conj != flat and flat != conj

    def test_redirected_edge(self):
        g = build_graph([parse_word(t, XY) for t in ("x^2", "x y x^-1")], XY)
        edges = g.edges()
        u, gen, v = next(e for e in edges if e[1] == 1)
        # the y-loop at 1 now leads to the base: the graph of <x^2, x y>
        moved = [(u, gen, 0) if e == (u, gen, v) else e for e in edges]
        other = graph_of_edges(XY, g.n_vertices, moved)
        assert other == build_graph([parse_word(t, XY)
                                     for t in ("x^2", "x y")], XY)
        assert other != g and g != other

    def test_same_shape_without_missing_edges(self):
        # two index-3 kernels: every vertex has every edge, so only the
        # targets tell them apart
        assert kernel_graph({"x": 1, "y": 0}, 3, XY) != kernel_graph(
            {"x": 1, "y": 1}, 3, XY)

    def test_covering_is_not_equal(self):
        # the x-cycle of length 4 maps onto two x-cycles of length 2 along
        # every edge, but not one to one
        cycle = graph_of_edges(XY, 4, [(v, 0, (v + 1) % 4) for v in range(4)])
        pairs = graph_of_edges(XY, 4, [(0, 0, 1), (1, 0, 0),
                                       (2, 0, 3), (3, 0, 2)])
        assert cycle != pairs

    def test_vertex_count(self):
        one = build_graph([parse_word("x", XY)], XY)
        two = build_graph([parse_word("x^2", XY)], XY)
        assert one != two and two != one


RANKS = {rank: Alphabet(("a", "b", "c")[:rank]) for rank in (1, 2, 3)}


def codes(rank):
    return st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])


@st.composite
def generator_lists(draw):
    """Reduced generator words of rank <= 3 and length <= 12, not all
    cyclically reduced."""
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(codes(rank), min_size=1, max_size=12),
                         max_size=4))
    words = [Word(RANKS[rank], letters) for letters in gens]
    return RANKS[rank], [w for w in words if w]


@st.composite
def transitive_actions(draw, max_degree=12):
    """Permutations of degree <= max_degree, one per generator, restricted
    to the orbit of point 0 so that the action is transitive."""
    rank = draw(st.integers(1, 3))
    degree = draw(st.integers(1, max_degree))
    perms = [draw(st.permutations(range(degree))) for _ in range(rank)]
    queue = [0]
    orbit = {0: 0}
    for v in queue:
        for p in perms:
            if p[v] not in orbit:
                orbit[p[v]] = len(orbit)
                queue.append(p[v])
    return RANKS[rank], [[orbit[p[v]] for v in queue] for p in perms]


def action_reps(perms):
    """Letters reading point 0 to each point, along a BFS tree."""
    reps = {0: []}
    queue = [0]
    for v in queue:
        for g, p in enumerate(perms):
            for w, code in ((p[v], g + 1), (p.index(v), -g - 1)):
                if w not in reps:
                    reps[w] = reps[v] + [code]
                    queue.append(w)
    return reps


def stabilizer_graph(alphabet, perms):
    """Stallings graph of the stabilizer of point 0, from Schreier generators."""
    reps = action_reps(perms)
    gens = [Word(alphabet, reps[u] + [g + 1] + [-c for c in reversed(reps[p[u]])])
            for u in range(len(perms[0])) for g, p in enumerate(perms)]
    return build_graph([w for w in gens if w], alphabet), reps


@st.composite
def regular_actions(draw):
    """The regular action of the group a small transitive action generates:
    each generator acts on the group elements, at most 4! of them, by
    composition."""
    alphabet, perms = draw(transitive_actions(max_degree=4))
    elements = [tuple(range(len(perms[0])))]
    index = {elements[0]: 0}
    for h in elements:                   # grows while it is read
        for p in perms:
            ph = tuple(p[i] for i in h)
            if ph not in index:
                index[ph] = len(elements)
                elements.append(ph)
    return alphabet, [[index[tuple(p[i] for i in h)] for h in elements]
                      for p in perms]


def bfs_relabelled(perms):
    """The action's tables by signed code, its points relabelled by BFS
    from point 0 with codes in the order 1, -1, 2, -2, ..."""
    tables = {}
    for g, p in enumerate(perms):
        tables[g + 1] = p
        tables[-g - 1] = [p.index(v) for v in range(len(p))]
    order, label = [0], {0: 0}
    for v in order:                      # grows while it is read
        for g in range(len(perms)):
            for c in (g + 1, -g - 1):
                if tables[c][v] not in label:
                    label[tables[c][v]] = len(order)
                    order.append(tables[c][v])
    return {c: [label[t[v]] for v in order] for c, t in tables.items()}


def bfs_tables(g):
    """The graph's tables by signed code, its vertices renumbered by BFS
    from the base with codes in the order 1, -1, 2, -2, ..., so that they
    can be read against tables numbered the same way."""
    codes = [s * c for c in range(1, len(g.alphabet) + 1) for s in (1, -1)]
    order, label = [0], {0: 0}
    for v in order:                      # grows while it is read
        for c in codes:
            t = g.steps[c][v]
            if t is not None and t not in label:
                label[t] = len(order)
                order.append(t)
    return {c: [label.get(g.steps[c][v]) for v in order] for c in codes}


class TestFoldProperties:
    @settings(max_examples=300, deadline=None)
    @given(generator_lists())
    def test_fold_leaves_no_hanging_vertex(self, case):
        alphabet, gens = case
        g = build_graph(gens, alphabet)
        for v in range(1, g.n_vertices):
            assert sum(row[v] is not None for row in g.steps[1:]) >= 2
        assert all(contains(g, w) for w in gens)

    @settings(max_examples=200, deadline=None)
    @given(generator_lists().flatmap(
        lambda case: st.tuples(st.just(case), st.permutations(case[1]))))
    def test_fold_ignores_generator_order(self, cases):
        (alphabet, gens), shuffled = cases
        assert build_graph(shuffled, alphabet) == build_graph(gens, alphabet)

    @settings(max_examples=200, deadline=None)
    @given(transitive_actions(), st.data())
    def test_evaluate_inverts_rewrite(self, action, data):
        alphabet, perms = action
        g, reps = stabilizer_graph(alphabet, perms)
        assert index(g) == len(perms[0])
        preferred = data.draw(st.sampled_from((None,) + alphabet.names))
        t = schreier_transversal(g, preferred=preferred)
        b = schreier_basis(g, t)
        for _ in range(5):
            letters = data.draw(st.lists(codes(len(alphabet)), max_size=30))
            end = 0
            for c in letters:
                p = perms[abs(c) - 1]
                end = p[end] if c > 0 else p.index(end)
            w = Word(alphabet, letters + [-c for c in reversed(reps[end])])
            assert contains(g, w)
            assert evaluate(b, rewrite(g, t, b, w)) == w

    @settings(max_examples=200, deadline=None)
    @given(transitive_actions())
    def test_fold_gives_back_the_action(self, action):
        # the Schreier generators of the stabilizer of point 0 fold to the
        # action's own graph; both are read renumbered by BFS from the base
        alphabet, perms = action
        g, _ = stabilizer_graph(alphabet, perms)
        assert bfs_tables(g) == bfs_relabelled(perms)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(transitive_actions(), regular_actions()))
    # not normal, yet each generator's map commutes with that generator
    @example((RANKS[2], [[1, 2, 3, 0], [0, 2, 1, 3]]))
    def test_normal_iff_schreier_generators_fix_every_point(self, action):
        alphabet, perms = action
        g, reps = stabilizer_graph(alphabet, perms)
        degree = len(perms[0])
        inverses = [[p.index(v) for v in range(degree)] for p in perms]

        def act(letters, v):
            for c in letters:
                v = (perms if c > 0 else inverses)[abs(c) - 1][v]
            return v

        gens = [reps[u] + [k + 1] + [-c for c in reversed(reps[p[u]])]
                for u in range(degree) for k, p in enumerate(perms)]
        normal = is_normal(g)
        assert normal == all(act(w, v) == v
                             for w in gens for v in range(degree))

        # is_normal rebases only at the k generator ends; the definition
        # asks for every vertex v, the graph with 0 and v swapped
        def rebased(v):
            swap = list(range(g.n_vertices))
            swap[0], swap[v] = v, 0
            return graph_of_edges(alphabet, g.n_vertices, [
                (swap[a], gen, swap[b]) for a, gen, b in g.edges()])

        assert normal == all(g == rebased(v) for v in range(g.n_vertices))


def naive_fold(gens, rank):
    """The folded graph of ``gens`` by the book, as lists by signed code.

    Each generator becomes a fresh closed path at the base; while some
    vertex has two equal-label edges, their far ends are merged; the
    vertices are then relabelled by BFS from the base in the code order
    1, -1, 2, -2, ...
    """
    edges, n = set(), 1
    for w in gens:
        path = [0] + list(range(n, n + len(w) - 1)) + [0]
        n += len(w) - 1
        for u, c, v in zip(path, w.letters, path[1:]):
            edges.add((u, c, v) if c > 0 else (v, -c, u))
    while True:
        ends, pair = {}, None
        for u, g, v in sorted(edges):
            for key, end in (((u, g), v), ((v, -g), u)):
                if ends.setdefault(key, end) != end:
                    pair = (ends[key], end)
        if pair is None:
            break
        keep, gone = min(pair), max(pair)
        edges = {(keep if u == gone else u, g, keep if v == gone else v)
                 for u, g, v in edges}
    step = {}
    for u, g, v in edges:
        step[u, g], step[v, -g] = v, u
    codes = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    label, queue = {0: 0}, [0]
    for v in queue:                      # grows while it is read
        for c in codes:
            t = step.get((v, c))
            if t is not None and t not in label:
                label[t] = len(queue)
                queue.append(t)
    return {c: [label.get(step.get((v, c))) for v in queue] for c in codes}


@st.composite
def folding_generator_lists(draw):
    """Generator lists that fold hard: shared prefixes and suffixes,
    repeats, powers, conjugates and a generator next to its inverse, with
    the Schreier generators of a transitive action (finite index) mixed in
    half of the time."""
    rank = draw(st.integers(1, 3))
    alphabet = RANKS[rank]
    pieces = draw(st.lists(st.lists(codes(rank), max_size=5),
                           min_size=1, max_size=4))
    piece = st.sampled_from(pieces)
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("shared", "power", "conjugate",
                                     "inverse", "repeat")))
        if kind == "shared":
            letters = draw(piece) + draw(st.lists(codes(rank), max_size=3)) \
                + draw(piece)
        elif kind == "power":
            letters = draw(piece) * draw(st.integers(2, 4))
        elif kind == "conjugate":
            p = draw(piece)
            letters = p + draw(piece) + [-c for c in reversed(p)]
        elif gens:
            w = gens[-1]
            letters = list((inverse(w) if kind == "inverse" else w).letters)
        else:
            letters = draw(piece)
        gens.append(Word(alphabet, letters))
    if draw(st.booleans()):
        degree = draw(st.integers(1, 6))
        perms = [draw(st.permutations(range(degree))) for _ in range(rank)]
        reps = action_reps(perms)
        # the orbit of point 0 is closed, so p[u] has a rep too
        gens += [Word(alphabet, reps[u] + [g + 1]
                      + [-c for c in reversed(reps[p[u]])])
                 for u in reps for g, p in enumerate(perms)]
    return alphabet, [w for w in draw(st.permutations(gens)) if w]


ABC = Alphabet(["a", "b", "c"])


def long_random_words():
    """5 random reduced 10000-letter words over a, b, c: their fold makes
    nearly 50000 vertices and merges none."""
    rng = random.Random(31)
    gens = []
    for _ in range(5):
        letters = [1]
        while len(letters) < 10_000:
            c = rng.choice((1, -1, 2, -2, 3, -3))
            if c != -letters[-1]:
                letters.append(c)
        gens.append(Word(ABC, letters))
    return gens


class TestFoldOracle:
    @settings(max_examples=400, deadline=None)
    @given(folding_generator_lists())
    def test_fold_matches_the_naive_fold(self, case):
        alphabet, gens = case
        g = build_graph(gens, alphabet)
        expected = naive_fold(gens, len(alphabet))
        assert bfs_tables(g) == expected
        assert list(g.steps[0]) == list(range(len(expected[1])))

    def test_memory_is_sized_by_vertices_not_letters(self):
        # 50 copies of one word fold to the graph of one copy
        rng = random.Random(29)
        letters = [1]
        while len(letters) < 20_000:
            c = rng.choice((1, -1, 2, -2))
            if c != -letters[-1]:
                letters.append(c)
        w = Word(AB, letters)

        def peak(gens):
            tracemalloc.start()
            try:
                build_graph(gens, AB)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak([w] * 50) < 2 * peak([w])

    def test_peak_memory_is_near_the_result(self):
        # the fold's own numbering is kept, and with no merge each column
        # becomes its tuple and is dropped in turn: 1.1 here; 2.2 with a
        # BFS relabelling done in place, 2.9 with the BFS tree and the labels
        # side by side and every column picked before any was dropped
        gens = long_random_words()
        tracemalloc.start()
        try:
            g = build_graph(gens, ABC)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_vertices > 40_000
        assert peak < 2.5 * result

    def test_merges_at_scale_keep_the_table_exact(self):
        # the first generator, conjugated by a letter, is reduced but not
        # cyclically reduced: its last edge meets the base's edge of its
        # first letter, so the fold merges, and a later vertex takes the
        # number the merge leaves free
        gens = long_random_words()
        w = gens[0].letters
        t = next(c for c in (1, 2, 3) if c not in (-w[0], w[-1]))
        gens[0] = Word(ABC, (t,) + w + (-t,))
        assert build_graph(gens[:1], ABC).n_vertices == len(gens[0]) - 1
        g = build_graph(gens, ABC)
        n = g.n_vertices
        assert g.steps[0] == tuple(range(n)) and n > 40_000
        for c in (1, -1, 2, -2, 3, -3):
            assert len(g.steps[c]) == n
            for u, v in enumerate(g.steps[c]):
                # over all c, this reads: steps[c][u] == v iff steps[-c][v] == u
                assert v is None or (0 <= v < n and g.steps[-c][v] == u)
        assert all(contains(g, gen) for gen in gens)
        assert g == build_graph(gens[::-1], ABC)

    def test_fold_runs_no_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("build_graph searched its graph")

        monkeypatch.setattr(stallings, "schreier_transversal", search)
        assert build_graph(long_random_words(), ABC).n_vertices > 40_000

    @settings(max_examples=200, deadline=None)
    @given(folding_generator_lists(), st.data())
    def test_outputs_ignore_generator_order(self, case, data):
        alphabet, gens = case
        shuffled = data.draw(st.permutations(gens))
        preferred = data.draw(st.sampled_from((None,) + alphabet.names))
        element = identity(alphabet)
        for i in data.draw(st.lists(st.integers(0, len(gens) - 1),
                                    max_size=6) if gens else st.just([])):
            w = gens[i]
            element = multiply(element,
                               inverse(w) if data.draw(st.booleans()) else w)

        def outputs(gens):
            g = build_graph(gens, alphabet)
            t = schreier_transversal(g, preferred=preferred)
            b = schreier_basis(g, t)
            return (index(g), is_normal(g),
                    [str(b.word(i)) for i in range(len(b.edges))],
                    str(rewrite(g, t, b, element)))

        assert outputs(shuffled) == outputs(gens)


def tree_walk(t, v):
    """The representative of v read letter by letter back along the tree:
    an oracle for the run pointers that reads only ``tree``."""
    steps, back = t.graph.steps, []
    while v:
        back.append(c := t.tree[v])
        v = steps[-c][v]
    return Word(t.graph.alphabet, reversed(back))


def run_mismatches(t, b):
    """The representatives and basis words whose runs, as text or as a
    Word, differ from the letter-by-letter tree walk."""
    alphabet, steps, bad = t.graph.alphabet, t.graph.steps, []
    for v in range(t.graph.n_vertices):
        walk = tree_walk(t, v)
        if (format_runs(alphabet, t.rep_runs(v)) != str(walk)
                or t.rep(v) != walk):
            bad.append(("rep", v))
    for i, (u, g) in enumerate(b.edges):
        walk = multiply(multiply(tree_walk(t, u), Word(alphabet, [g + 1])),
                        inverse(tree_walk(t, steps[g + 1][u])))
        if format_runs(alphabet, b.runs(i)) != str(walk) or b.word(i) != walk:
            bad.append(("word", i))
    return bad


def reference_bfs(steps, codes, tree=None):
    """Breadth-first search over ``steps[c]``, c in ``codes``, from the
    vertices of ``tree`` in its order, or from vertex 0; returns ``tree``,
    which maps each vertex to the code it was first reached along, extended
    to every vertex reached."""
    tree = {0: 0} if tree is None else dict(tree)
    queue = list(tree)
    for v in queue:                      # grows while it is read
        for c in codes:
            w = steps[c][v]
            if w is not None and w not in tree:
                tree[w] = c
                queue.append(w)
    return tree


def reference_transversal(g, preferred=None):
    """The transversal in three passes: a search along the preferred
    generator's forward edges, a second that continues it over all codes
    (preferred generator first, forward before backward), then the run
    pointers from the finished tree."""
    gen_order, tree = range(len(g.alphabet)), None
    if preferred is not None:
        p = g.alphabet.index(preferred)
        gen_order = [p] + [i for i in gen_order if i != p]
        tree = reference_bfs(g.steps, [p + 1])
    tree = reference_bfs(
        g.steps, [s * (i + 1) for i in gen_order for s in (1, -1)], tree)
    n = g.n_vertices
    start, k = [0] * n, [0] * n
    for w, c in list(tree.items())[1:]:
        p = g.steps[-c][w]
        start[w], k[w] = (start[p], k[p] + 1) if tree[p] == c else (p, 1)
    return stallings.Transversal(
        graph=g, tree=tuple(tree[v] for v in range(n)), order=tuple(tree),
        start=tuple(start), k=tuple(k), preferred=preferred)


@st.composite
def kernel_graphs(draw):
    """Kernel graphs of maps onto Z_d, d <= 40, over x, y or a, b, c."""
    alphabet = draw(st.sampled_from((XY, RANKS[3])))
    d = draw(st.integers(2, 40))
    f = {name: draw(st.integers(0, d - 1)) for name in alphabet}
    assume(math.gcd(d, *f.values()) == 1)
    return kernel_graph(f, d, alphabet)


def one_pass_mismatches(g):
    """The preferred generators, None among them, whose transversal
    differs from the three-pass reference in some field."""
    return [p for p in (None,) + g.alphabet.names
            if schreier_transversal(g, p) != reference_transversal(g, p)]


class TestTransversalProperties:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        folding_generator_lists().map(lambda case: build_graph(case[1], case[0])),
        transitive_actions().map(lambda case: stabilizer_graph(*case)[0]),
        kernel_graphs()))
    def test_one_pass_matches_the_reference(self, g):
        assert one_pass_mismatches(g) == []

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(transitive_actions(), regular_actions()), st.data())
    def test_runs_spell_the_tree_walk(self, action, data):
        alphabet, perms = action
        g, _ = stabilizer_graph(alphabet, perms)
        preferred = data.draw(st.sampled_from((None,) + alphabet.names))
        t = schreier_transversal(g, preferred=preferred)
        assert run_mismatches(t, schreier_basis(g, t)) == []

    # long runs: x^k, or x^k and x^-k alternating when x -> 2 and nothing
    # is preferred, merged with g at one seam or both
    @pytest.mark.parametrize("f, preferred", [
        ({"x": 1, "y": 0}, "x"), ({"x": 2, "y": 0}, None),
        ({"x": 2, "y": 1}, "y"), ({"x": 3, "y": 5}, None)])
    def test_kernel_runs_spell_the_tree_walk(self, f, preferred):
        _, t, b = kernel_machinery(13, f, preferred=preferred)
        assert max(t.k) >= 3
        assert run_mismatches(t, b) == []

    @pytest.mark.parametrize("field", ["start", "k"])
    def test_a_wrong_run_pointer_is_seen(self, field):
        _, t, b = kernel_machinery(5)
        assert run_mismatches(t, b) == []
        # vertex 3 is x^3, one run that starts at the base
        pointers = list(getattr(t, field))
        pointers[3] = 1 if field == "start" else 2
        wrong = t._replace(**{field: tuple(pointers)})
        bad = run_mismatches(wrong, b._replace(transversal=wrong))
        assert ("rep", 3) in bad and ("word", 4) in bad

    @settings(max_examples=200, deadline=None)
    @given(transitive_actions(), st.data())
    def test_reps_and_basis_words(self, action, data):
        alphabet, perms = action
        g, _ = stabilizer_graph(alphabet, perms)
        preferred = data.draw(st.sampled_from((None,) + alphabet.names))
        t = schreier_transversal(g, preferred=preferred)
        letters = set()
        for v, rep in enumerate(reps(t)):
            assert Word(alphabet, rep.letters) == rep       # reduced
            assert g.trace(rep) == v
            letters.add(rep.letters)
        # prefix-closed: the Schreier condition
        assert all(r[:k] in letters for r in letters for k in range(len(r)))
        b = schreier_basis(g, t)
        assert all(contains(g, w) for w in basis_words(b))
        assert len(b.edges) == len(b.alphabet) == (
            len(g.edges()) - g.n_vertices + 1)

    @settings(max_examples=200, deadline=None)
    @given(transitive_actions(), st.data())
    def test_basis_edges_in_bfs_then_generator_order(self, action, data):
        alphabet, perms = action
        g, _ = stabilizer_graph(alphabet, perms)
        preferred = data.draw(st.sampled_from((None,) + alphabet.names))
        t = schreier_transversal(g, preferred=preferred)
        pos = {v: i for i, v in enumerate(t.order)}
        nontree = sorted(((u, gen) for u, gen, v in g.edges()
                          if t.tree[v] != gen + 1 and t.tree[u] != -gen - 1),
                         key=lambda e: (pos[e[0]], e[1]))
        # a lone non-tree edge of the preferred generator comes first
        p_idx = None if preferred is None else alphabet.index(preferred)
        first = [e for e in nontree if e[1] == p_idx]
        if len(first) == 1:
            nontree = first + [e for e in nontree if e[1] != p_idx]
        assert schreier_basis(g, t).edges == tuple(nontree)


class TestContains:
    def test_generators_accepted(self):
        g = index3_graph()
        for t in INDEX3_GENS:
            assert contains(g, parse_word(t, AB))

    def test_b_rejected(self):
        assert not contains(index3_graph(), parse_word("b", AB))

    def test_identity_always_accepted(self):
        assert contains(index3_graph(), identity(AB))
        assert contains(build_graph([], XY), identity(XY))

    def test_closed_under_products_and_inverses(self):
        g = index3_graph()
        gens = [parse_word(t, AB) for t in INDEX3_GENS]
        rng = random.Random(19)
        for _ in range(200):
            w = identity(AB)
            for _ in range(rng.randrange(1, 6)):
                p = rng.choice(gens)
                if rng.random() < 0.5:
                    p = inverse(p)
                w = multiply(w, p)
            assert contains(g, w)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            contains(index3_graph(), parse_word("x", XY))

    def test_path_that_leaves_an_infinite_index_graph(self):
        # <x> has no y-edge, so the path of x y breaks off the graph
        g = build_graph([parse_word("x", XY)], XY)
        assert g.trace(parse_word("x y", XY)) is None
        assert not contains(g, parse_word("x y", XY))


class TestIndex:
    def test_paper_subgroup(self):
        assert index(index3_graph()) == 3

    def test_infinite(self):
        assert index(build_graph([parse_word("x", XY)], XY)) is INFINITE

    def test_kernel(self):
        assert index(kernel_graph({"x": 1, "y": 0}, 5, XY)) == 5


class TestNormality:
    def test_kernels_normal(self):
        for d in range(2, 13):
            assert is_normal(kernel_graph({"x": 1, "y": 0}, d, XY))

    def test_paper_subgroup_not_normal(self):
        assert not is_normal(index3_graph())

    def test_whole_group_normal(self):
        rose = build_graph([parse_word("x", XY), parse_word("y", XY)], XY)
        assert is_normal(rose)

    # trivial; an x-loop with no y-edge; a base of degree 1; a base with
    # no outgoing edge; a y-edge leaving the base but none entering it
    @pytest.mark.parametrize("gens, normal", [
        ([], True), (["x"], False), (["x y x^-1"], False), (["x^-1 y"], False),
        (["x", "y x y^-1"], False)])
    def test_infinite_index(self, gens, normal):
        g = build_graph([parse_word(t, XY) for t in gens], XY)
        assert index(g) is INFINITE
        assert is_normal(g) is normal

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(generator_lists(), folding_generator_lists()))
    @example((RANKS[2], []))
    @example((RANKS[2], [Word(RANKS[2], [1]), Word(RANKS[2], [2])]))
    def test_normal_iff_conjugates_of_generators_lie_inside(self, case):
        alphabet, gens = case
        g = build_graph(gens, alphabet)
        letters = [Word(alphabet, [s * c]) for c in range(1, len(alphabet) + 1)
                   for s in (1, -1)]
        assert is_normal(g) == all(
            contains(g, multiply(multiply(x, h), inverse(x)))
            for h in gens for x in letters)


class TestKernelGraph:
    def test_d3_shape(self):
        g = kernel_graph({"x": 1, "y": 0}, 3, XY)
        assert g.n_vertices == 3
        assert [g.steps[1][r] for r in range(3)] == [1, 2, 0]  # x-cycle
        assert [g.steps[2][r] for r in range(3)] == [0, 1, 2]  # y-loops

    def test_d2_swap(self):
        g = kernel_graph({"x": 1, "y": 1}, 2, XY)
        assert (g.steps[1][0], g.steps[2][0]) == (1, 1)
        assert (g.steps[1][1], g.steps[2][1]) == (0, 0)

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            kernel_graph({"x": 0, "y": 0}, 2, XY)
        with pytest.raises(ValueError):
            kernel_graph({"x": 2, "y": 2}, 4, XY)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            kernel_graph({"x": 1, "y": 0}, 1, XY)

    @pytest.mark.parametrize("f, message", [
        ({"x": 1}, r"map undefined on \['y'\]"),
        ({"x": 1, "y": 0, "z": 3}, r"map defined off the alphabet on \['z'\]"),
    ], ids=["missing", "extra"])
    def test_map_must_cover_exactly_the_alphabet(self, f, message):
        with pytest.raises(ValueError, match=message):
            kernel_graph(f, 3, XY)


class TestTransversal:
    def test_kernel_preferred_x(self):
        _, t, _ = kernel_machinery(3)
        assert [str(r) for r in reps(t)] == ["", "x", "x^2"]

    def test_one_vertex(self):
        g = build_graph([parse_word("x", XY), parse_word("y", XY)], XY)
        t = schreier_transversal(g)
        assert reps(t) == [identity(XY)]

    def test_index3_has_three_reps(self):
        g = index3_graph()
        t = schreier_transversal(g, preferred="b")
        assert len(reps(t)) == 3
        for v, rep in enumerate(reps(t)):
            assert g.trace(rep) == v

    def test_reps_reach_their_vertices(self):
        g, t, _ = kernel_machinery(7)
        for v, rep in enumerate(reps(t)):
            assert g.trace(rep) == v

    def test_infinite_index_spanning_tree(self):
        # an a-loop at the base and at the end of its b-edge; no b-edge
        # leaves vertex 1
        g = build_graph([parse_word(t, AB) for t in ("a", "b a b^-1")], AB)
        t = schreier_transversal(g)
        assert [str(r) for r in reps(t)] == ["", "b"]
        assert [str(w) for w in basis_words(schreier_basis(g, t))] == [
            "a", "b a b^-1"]


class TestSchreierBasis:
    def test_kernel_d3(self):
        _, _, b = kernel_machinery(3)
        assert list(b.alphabet) == ["a", "b1", "b2", "b3"]
        assert [str(w) for w in basis_words(b)] == ["x^3", "y", "x y x^-1",
                                                    "x^2 y x^-2"]

    def test_kernel_d2(self):
        _, _, b = kernel_machinery(2)
        assert [str(w) for w in basis_words(b)] == ["x^2", "y", "x y x^-1"]

    def test_full_rose_basis_is_alphabet(self):
        g = build_graph([parse_word("x", XY), parse_word("y", XY)], XY)
        t = schreier_transversal(g)
        b = schreier_basis(g, t)
        assert [str(w) for w in basis_words(b)] == ["x", "y"]

    def test_rank_formula(self):
        # rank = edges - vertices + 1 for a core graph
        for d in range(2, 10):
            g, t, b = kernel_machinery(d)
            assert len(basis_words(b)) == len(g.edges()) - g.n_vertices + 1 == d + 1

    def test_basis_words_accepted(self):
        g, _, b = kernel_machinery(5)
        for w in basis_words(b):
            assert contains(g, w)


class TestRewrite:
    def test_paper_identity(self):
        g, t, b = kernel_machinery(3)
        assert str(rewrite(g, t, b, parse_word("x y x^-1 y^-1", XY))) == "b2 b1^-1"

    def test_basis_element(self):
        g, t, b = kernel_machinery(3)
        assert str(rewrite(g, t, b, parse_word("x^3", XY))) == "a"

    def test_conjugated_power(self):
        g, t, b = kernel_machinery(3)
        assert str(rewrite(g, t, b, parse_word("x y^3 x^-1", XY))) == "b2^3"

    def test_rejects_non_members(self):
        g, t, b = kernel_machinery(3)
        with pytest.raises(NotInSubgroupError):
            rewrite(g, t, b, parse_word("x", XY))

    # <x^2> has no y-edge: the path breaks at the first, a middle and the
    # last letter
    @pytest.mark.parametrize("text", ["y", "x y x^-1", "x^2 y"])
    def test_path_that_leaves_the_graph(self, text):
        g = build_graph([parse_word("x^2", XY)], XY)
        t = schreier_transversal(g)
        with pytest.raises(NotInSubgroupError):
            rewrite(g, t, schreier_basis(g, t), parse_word(text, XY))

    @pytest.mark.parametrize("call, message", [
        (lambda g, t, b: build_graph([parse_word("a", AB)], XY), "not over"),
        (lambda g, t, b: rewrite(g, t, b, parse_word("a", AB)),
         "alphabet mismatch"),
        (lambda g, t, b: evaluate(b, parse_word("x", XY)),
         "not over the basis alphabet"),
    ], ids=["build_graph", "rewrite", "evaluate"])
    def test_word_over_another_alphabet_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(*kernel_machinery(3))

    def test_round_trip(self):
        rng = random.Random(43)
        for d in (2, 3, 5):
            g, t, b = kernel_machinery(d)
            for _ in range(300):
                w = random_kernel_element(rng, d)
                assert evaluate(b, rewrite(g, t, b, w)) == w

    def test_path_counting_oracle(self):
        # independent oracle: count signed y-loop traversals per residue
        rng = random.Random(47)
        for d in (2, 3, 5):
            g, t, b = kernel_machinery(d)
            for _ in range(200):
                w = random_kernel_element(rng, d)
                counts = [0] * d
                residue = 0
                for c in w.letters:
                    if abs(c) == 2:
                        counts[residue] += 1 if c > 0 else -1
                    else:
                        residue = (residue + (1 if c > 0 else -1)) % d
                sums = exponent_sums(rewrite(g, t, b, w))
                assert list(sums[1:]) == counts


def flat_walk(g, b, w):
    """The oracle: the end of w's path from the base and the sums of the
    basis letters it crosses, +1 along a basis edge and -1 against it."""
    letter = {edge: i for i, edge in enumerate(b.edges)}
    v, sums = 0, [0] * len(b.edges)
    for c in w.letters:
        nxt = g.steps[c][v]
        edge = (v, c - 1) if c > 0 else (nxt, -c - 1)
        if edge in letter:
            sums[letter[edge]] += 1 if c > 0 else -1
        v = nxt
    return v, tuple(sums)


class TestBracketExponents:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(transitive_actions().map(lambda case: stabilizer_graph(*case)[0]),
                     kernel_graphs()),
           shared_brackets(), st.data())
    def test_every_node_equals_the_flat_walk(self, g, rank_bracket, data):
        rank, nodes = rank_bracket
        assume(rank <= len(g.alphabet))
        t = schreier_transversal(g, data.draw(st.sampled_from((None,) + g.alphabet.names)))
        b = schreier_basis(g, t)
        found = bracket_exponents(g, b, nodes)
        assert len(found) == len(nodes)
        for i, (end, sums) in enumerate(found):
            w = bracket_word(nodes[:i + 1], g.alphabet)
            assert end == g.trace(w)
            assert (end, sums) == flat_walk(g, b, w)

    def test_paper_identity(self):
        # [x, y] = b2 b1^-1 over (a, b1, b2, b3)
        g, _, b = kernel_machinery(3)
        assert bracket_exponents(g, b, omega_bracket(0)) == [
            (1, (0, 0, 0, 0)), (0, (0, 1, 0, 0)), (0, (0, -1, 1, 0))]

    def test_omega_loops_match_rewrite(self):
        for d in (2, 3, 5, 8):
            g, t, b = kernel_machinery(d)
            found = bracket_exponents(g, b, omega_bracket(8))
            for n in range(9):
                sums = exponent_sums(rewrite(g, t, b, omega(n)))
                assert found[n + 2] == (0, sums)

    def test_incomplete_graph_rejected(self):
        g = build_graph([parse_word("a", AB)], AB)
        t = schreier_transversal(g)
        with pytest.raises(ValueError, match="finite-index graph"):
            bracket_exponents(g, schreier_basis(g, t), (1,))

    @pytest.mark.parametrize("nodes, message", [
        ((), "at least one node"),
        ((0,), "not a nonzero int"),
        ((True,), "not a nonzero int"),
        ((1, 2, (0, 2)), "not before it"),
        ((1, (0, -1)), "not before it"),
        ((1, 3), "finite-index graph over the leaves"),
        ((-3,), "finite-index graph over the leaves"),
    ])
    def test_bad_node_list_rejected(self, nodes, message):
        g, _, b = kernel_machinery(3)
        with pytest.raises(ValueError, match=message):
            bracket_exponents(g, b, nodes)


class TestDerivedSubgroup:
    def test_commutators_inside(self):
        g, t, b = kernel_machinery(3)
        u = parse_word("y", XY)
        v = parse_word("x^3", XY)
        assert in_derived_subgroup(g, t, b, commutator(u, v))

    def test_omega0_outside(self):
        g, t, b = kernel_machinery(3)
        assert not in_derived_subgroup(g, t, b, parse_word("x y x^-1 y^-1", XY))

    def test_y_outside(self):
        g, t, b = kernel_machinery(3)
        assert not in_derived_subgroup(g, t, b, parse_word("y", XY))

    def test_random_commutators_inside(self):
        rng = random.Random(53)
        for d in (2, 3):
            g, t, b = kernel_machinery(d)
            for _ in range(100):
                u = random_kernel_element(rng, d, 20)
                v = random_kernel_element(rng, d, 20)
                assert in_derived_subgroup(g, t, b, commutator(u, v))


class TestInfiniteIndex:
    """Bases, rewriting and [G, G] membership on core graphs that do not
    cover the rose."""

    @settings(max_examples=200, deadline=None)
    @given(generator_lists(), st.data())
    def test_basis_rewrite_and_derived_subgroup(self, case, data):
        alphabet, gens = case
        g = build_graph(gens, alphabet)
        assume(index(g) is INFINITE)
        t = schreier_transversal(
            g, preferred=data.draw(st.sampled_from((None,) + alphabet.names)))
        b = schreier_basis(g, t)
        assert len(b.edges) == len(g.edges()) - g.n_vertices + 1
        assert all(contains(g, w) for w in basis_words(b))

        def element():
            w = identity(alphabet)
            for h in data.draw(st.lists(st.sampled_from(gens), max_size=4)
                               if gens else st.just([])):
                w = multiply(w, inverse(h) if data.draw(st.booleans()) else h)
            return w

        u, v, w = element(), element(), element()
        assert evaluate(b, rewrite(g, t, b, u)) == u
        assert in_derived_subgroup(
            g, t, b, multiply(commutator(u, v), commutator(w, inverse(u))))


class TestJson:
    def test_generator_form(self):
        obj = {"alphabet": ["a", "b"], "generators": INDEX3_GENS}
        assert from_json(obj) == index3_graph()

    def test_kernel_form(self):
        obj = {"alphabet": ["x", "y"], "kernel": {"d": 3, "f": {"x": 1, "y": 0}}}
        assert from_json(obj) == kernel_graph({"x": 1, "y": 0}, 3, XY)

    def test_fixture_files(self):
        from importlib import resources
        for name, idx in [("paper_index3.json", 3),
                          ("kernel_d2.json", 2), ("kernel_d3.json", 3)]:
            text = resources.files("fglab").joinpath("fixtures", name).read_text()
            assert index(from_json(json.loads(text))) == idx
