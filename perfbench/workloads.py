"""Seeded inputs and independent oracles for the four fglab workloads.

``build(workload, seed, workdir)`` writes the workload's input files into
``workdir`` and returns a JSON-able spec: the first-touch set-up steps and
the op list.  An op is one or more ``fglab`` CLI calls (argv lists, where
the token ``PREV`` stands for the previous step's stdout) plus the
reference data its oracle needs.  Everything here is computed outside the
timed region, with the benchmark's own word code, never with fglab.

``check(op, outputs, results)`` returns None when the op's output is
correct, or a one-line reason.  ``results`` maps op ids to step outputs,
so a ``rewrite`` op can round-trip through the same file's ``basis`` op.
"""

import hashlib
import json
import math
import os
import random
import re
from itertools import groupby

WORKLOADS = ("witness", "verify", "long_words", "subgroup")
PREV = "@prev-stdout"

# witness: certificates per m.  Magnus cost grows about 4x per step in m,
# so the grid is fixed and the seed only picks d and the order.
WITNESS_GRID = {2: 3, 3: 3, 4: 3, 5: 3, 6: 3, 7: 3, 8: 2, 9: 1}
# verify: (d_max, n_max range) batteries after the default run; spectral
# cost grows about d^4, so d_max is fixed and the seed picks n_max.
VERIFY_BATTERIES = ((16, (240, 261)), (24, (240, 261)))
# long_words: omega_n has about 2^(n+2) letters.
LONG_WORDS_N = (4, 8, 11, 13, 14, 15, 16)
# subgroup: degrees of random transitive actions on 3 generators, plus one
# regular action of a cyclic group (a normal subgroup).
PERM_DEGREES = (50, 120, 250, 500)
CYCLIC_DEGREE = (40, 61)
# subgroup: (generator count, letters per generator) of infinite-index files.
LONG_GENERATORS = ((3, 3000), (5, 8000))
# Every long generator has a-exponent sum divisible by this prime.  A
# subgroup of finite index j in F(a, b, c) has rank 2j + 1, so at most 5
# generators give j <= 2 < 3: the files have infinite index by construction.
A_SUM_MODULUS = 3

_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


# -- the benchmark's own word code -------------------------------------------

def reduce_letters(letters):
    """Free reduction of signed letter codes (+i / -i for generator i - 1)."""
    stack = []
    for c in letters:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return stack


def invert(letters):
    return [-c for c in reversed(letters)]


def fmt(letters, names):
    """Canonical text: maximal runs as name^k, k = 1 omitted."""
    parts = []
    for code, run in groupby(letters):
        k = sum(1 for _ in run)
        name = names[abs(code) - 1]
        if code < 0:
            k = -k
        parts.append(name if k == 1 else "%s^%d" % (name, k))
    return " ".join(parts)


def parse(text, names):
    """Letters of canonical word text over ``names`` (a list of names)."""
    index = {name: i + 1 for i, name in enumerate(names)}
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m or m.group(1) not in index:
            raise ValueError("bad token %r" % (token,))
        k = int(m.group(2) or 1)
        code = index[m.group(1)]
        letters.extend([code if k > 0 else -code] * abs(k))
    return letters


_OMEGA = [[1, 2, -1, -2]]


def omega_letters(n):
    """[x, y, x, ..., x] with n trailing x's, over (x, y) = (1, 2)."""
    while len(_OMEGA) <= n:
        w = _OMEGA[-1]
        _OMEGA.append(reduce_letters(w + [1] + invert(w) + [-1]))
    return _OMEGA[n]


def residue_buckets(letters, d):
    """Path counting in the kernel of x -> 1, y -> 0 in Z_d.

    Walks the word keeping the x-exponent residue r; a y^e letter read at
    residue r adds e to bucket r (basis letter b_(r+1) = x^r y x^-r), and an
    x step across the residue d-1 -> 0 boundary adds to the a count.
    """
    r, a_sum, buckets = 0, 0, [0] * d
    for c in letters:
        if c == 1:
            r += 1
            if r == d:
                r, a_sum = 0, a_sum + 1
        elif c == -1:
            if r == 0:
                r, a_sum = d, a_sum - 1
            r -= 1
        else:
            buckets[r] += 1 if c > 0 else -1
    return a_sum, buckets


def apply_perms(perms, letters, point=0):
    """Image of ``point`` under the word, acting on the right, letter by letter."""
    inverses = [_perm_inverse(p) for p in perms]
    for c in letters:
        point = (perms if c > 0 else inverses)[abs(c) - 1][point]
    return point


def _perm_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return inv


def random_word(rng, length, rank):
    """A reduced word of exactly ``length`` letters over ``rank`` generators."""
    w = []
    while len(w) < length:
        c = rng.choice((1, -1)) * rng.randint(1, rank)
        if not w or w[-1] != -c:
            w.append(c)
    return w


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- input generation ---------------------------------------------------------

def build(workload, seed, workdir):
    """Write the workload's files into ``workdir`` and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    setup, ops = globals()["_build_" + workload](rng, workdir)
    rng.shuffle(ops)
    largest = [op["id"] for op in ops if op.get("largest")]
    if len(largest) != 1:
        raise AssertionError("exactly one op must be the largest: %r" % largest)
    return {"workload": workload, "seed": seed, "prev": PREV,
            "setup": setup, "ops": ops}


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _kernel_file(workdir, d):
    return _write(workdir, "kernel_d%d.json" % d,
                  {"alphabet": ["x", "y"],
                   "kernel": {"d": d, "f": {"x": 1, "y": 0}}})


def _build_witness(rng, workdir):
    ops = []
    for m, count in sorted(WITNESS_GRID.items()):
        for d in sorted(rng.sample(range(2, 17), count)):
            ops.append({
                "id": "witness:d%d:m%d" % (d, m),
                "steps": [["--json", "witness", "--d", str(d), "--m", str(m)]],
                "check": {"kind": "witness", "d": d, "m": m,
                          "word": fmt(omega_letters(m - 2), "xy")},
            })
    ops[-1]["largest"] = True   # the largest m, then the largest d
    setup = [["--json", "witness", "--d", "2", "--m", "2"]]
    return setup, ops


def _build_verify(rng, workdir):
    ops = [{"id": "verify:default", "steps": [["--json", "verify"]],
            "check": {"kind": "verify", "d_max": 12}}]
    for d_max, n_range in VERIFY_BATTERIES:
        n_max = rng.randrange(*n_range)
        ops.append({
            "id": "verify:d%d:n%d" % (d_max, n_max),
            "steps": [["--json", "verify", "--d-max", str(d_max),
                       "--n-max", str(n_max)]],
            "check": {"kind": "verify", "d_max": d_max},
        })
    ops[-1]["largest"] = True
    setup = [["--json", "verify", "--d-max", "2", "--n-max", "1"]]
    return setup, ops


def _build_long_words(rng, workdir):
    ops = []
    for n in LONG_WORDS_N:
        d = rng.randrange(2, 17)
        word = omega_letters(n)
        a_sum, buckets = residue_buckets(word, d)
        ops.append({
            "id": "long_words:n%d:d%d" % (n, d),
            "steps": [["omega", str(n)],
                      ["subgroup", "rewrite", _kernel_file(workdir, d), PREV]],
            "check": {"kind": "long_words", "d": d,
                      "omega_sha256": _sha(fmt(word, "xy")),
                      "a_sum": a_sum, "buckets": buckets},
        })
    ops[-1]["largest"] = True
    setup = [["omega", "0"],
             ["subgroup", "rewrite", _kernel_file(workdir, 2), PREV]]
    return setup, ops


def _transitive_perms(rng, degree, rank=3):
    while True:
        perms = [rng.sample(range(degree), degree) for _ in range(rank)]
        if len(_schreier_tree(perms)[0]) == degree:
            return perms


def _schreier_tree(perms):
    """BFS spanning tree of the action graph from point 0: reps and tree edges."""
    inverses = [_perm_inverse(p) for p in perms]
    reps, tree, queue = {0: []}, set(), [0]
    for v in queue:
        for g in range(len(perms)):
            for sign, table in ((1, perms), (-1, inverses)):
                w = table[g][v]
                if w not in reps:
                    reps[w] = reps[v] + [sign * (g + 1)]
                    tree.add((v, g) if sign > 0 else (w, g))
                    queue.append(w)
    return reps, tree


def _schreier_generators(perms):
    """Generators of the stabilizer of point 0, one per non-tree edge."""
    reps, tree = _schreier_tree(perms)
    gens = []
    for u in range(len(perms[0])):
        for g, p in enumerate(perms):
            if (u, g) not in tree:
                gens.append(reduce_letters(reps[u] + [g + 1] + invert(reps[p[u]])))
    return gens, reps


def _returning_word(rng, perms, reps, length):
    """A random word followed by the way back to point 0: a subgroup element."""
    w = random_word(rng, length, len(perms))
    return reduce_letters(w + invert(reps[apply_perms(perms, w)]))


def _build_subgroup(rng, workdir):
    names = ["a", "b", "c"]
    sub = ["--json", "subgroup"]
    ops = []
    actions = [("perm%d" % n, _transitive_perms(rng, n)) for n in PERM_DEGREES]
    n = rng.randrange(*CYCLIC_DEGREE)
    while True:
        shifts = [rng.randrange(n) for _ in names]
        if math.gcd(n, *shifts) == 1:
            break
    actions.append(("cyclic%d" % n,
                    [[(v + s) % n for v in range(n)] for s in shifts]))
    for key, perms in actions:
        gens, reps = _schreier_generators(perms)
        path = _write(workdir, key + ".json",
                      {"alphabet": names, "generators": [fmt(g, names) for g in gens]})
        degree = len(perms[0])
        normal = all(apply_perms(perms, g, v) == v
                     for g in gens for v in range(degree))
        ops.append({"id": "index:" + key, "steps": [sub + ["index", path]],
                    "check": {"kind": "index", "expect": degree}})
        ops.append({"id": "normal:" + key, "steps": [sub + ["normal", path]],
                    "check": {"kind": "normal", "expect": normal}})
        inside = _returning_word(rng, perms, reps, 40)
        while True:
            outside = random_word(rng, 40, 3)
            if apply_perms(perms, outside) != 0:
                break
        for tag, w in (("in", inside), ("out", outside)):
            ops.append({"id": "contains:%s:%s" % (key, tag),
                        "steps": [sub + ["contains", path, fmt(w, names)]],
                        "check": {"kind": "contains",
                                  "expect": apply_perms(perms, w) == 0}})
        ops.append({"id": "basis:" + key, "steps": [sub + ["basis", path]],
                    "check": {"kind": "basis", "names": names, "perms": perms,
                              "rank": 2 * degree + 1}})
        for i in range(2):
            w = fmt(_returning_word(rng, perms, reps, 120), names)
            ops.append({"id": "rewrite:%s:%d" % (key, i),
                        "steps": [sub + ["rewrite", path, w]],
                        "check": {"kind": "rewrite", "names": names,
                                  "word": w, "basis_op": "basis:" + key}})

    biggest = max(count * length for count, length in LONG_GENERATORS)
    for count, length in LONG_GENERATORS:
        key = "long%dx%d" % (count, length)
        gens = [_a_sum_zero_word(rng, length) for _ in range(count)]
        path = _write(workdir, key + ".json",
                      {"alphabet": names, "generators": [fmt(g, names) for g in gens]})
        i, j = rng.sample(range(count), 2)
        inside = reduce_letters(_signed(rng, gens[i]) + _signed(rng, gens[j]))
        outside = reduce_letters(inside + [1])   # a-sum 1 mod 3: not in H
        ops.append({"id": "index:" + key, "steps": [sub + ["index", path]],
                    "largest": count * length == biggest,
                    "check": {"kind": "index", "expect": "infinite"}})
        for tag, w, expect in (("in", inside, True), ("out", outside, False)):
            ops.append({"id": "contains:%s:%s" % (key, tag),
                        "steps": [sub + ["contains", path, fmt(w, names)]],
                        "check": {"kind": "contains", "expect": expect}})

    tiny = _write(workdir, "tiny.json",
                  {"alphabet": ["a", "b"],
                   "generators": ["a", "b^2", "b a^2 b", "b a b a b"]})
    setup = [["--json", "subgroup", "index", tiny]]
    return setup, ops


def _signed(rng, w):
    return list(w) if rng.random() < 0.5 else invert(w)


def _a_sum_zero_word(rng, length):
    """A reduced word over (a, b, c) whose a-exponent sum is 0 mod A_SUM_MODULUS."""
    w = random_word(rng, length, 3)
    a_sum = sum(1 if c == 1 else -1 for c in w if abs(c) == 1)
    return reduce_letters(w + [3] + [1] * (-a_sum % A_SUM_MODULUS))


# -- oracles ------------------------------------------------------------------

def check(op, outputs, results):
    """None if the op's outputs are right, else the reason they are not."""
    spec = op["check"]
    try:
        return _CHECKS[spec["kind"]](spec, outputs, results)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)


def _check_witness(spec, outputs, results):
    cert = json.loads(outputs[0])
    if (cert["d"], cert["m"]) != (spec["d"], spec["m"]):
        return "certificate for the wrong (d, m)"
    if cert["witness"] != spec["word"]:
        return "witness is not omega_(m-2)"
    a_sum, buckets = residue_buckets(parse(cert["witness"], "xy"), spec["d"])
    if cert["p_vector"] != buckets:
        return "p_vector %r, path counting gives %r" % (cert["p_vector"], buckets)
    if cert["a_sum"] != 0 or a_sum != 0:
        return "nonzero a-sum"
    if cert["lcs_weight"]["value"] != spec["m"]:
        return "lcs weight %r, expected %d" % (cert["lcs_weight"]["value"], spec["m"])
    if cert["verdicts"] != {"in_Fm": True, "in_G2": False}:
        return "verdicts %r" % (cert["verdicts"],)
    return None


def _check_verify(spec, outputs, results):
    report = json.loads(outputs[0])
    if report["ok"] is not True:
        return "verify reported ok=%r" % (report["ok"],)
    rows = report["results"]
    if [row["d"] for row in rows] != list(range(2, spec["d_max"] + 1)):
        return "rows do not cover 2 <= d <= %d" % spec["d_max"]
    for row in rows:
        checks = {k: v for k, v in row.items() if k != "d"}
        if not checks or not all(v is True for v in checks.values()):
            return "d=%d: checks %r" % (row["d"], checks)
    return None


def _check_long_words(spec, outputs, results):
    if _sha(outputs[0].strip()) != spec["omega_sha256"]:
        return "omega output differs from omega_n"
    d = spec["d"]
    names = ["a"] + ["b%d" % k for k in range(1, d + 1)]
    sums = [0] * (d + 1)
    for c in parse(outputs[1], names):
        sums[abs(c) - 1] += 1 if c > 0 else -1
    if sums[0] != spec["a_sum"] or spec["a_sum"] != 0:
        return "a-sum %d" % sums[0]
    if sums[1:] != spec["buckets"]:
        return "b-sums %r, path counting gives %r" % (sums[1:], spec["buckets"])
    return None


def _expect(field):
    def checker(spec, outputs, results):
        got = json.loads(outputs[0])[field]
        if got != spec["expect"]:
            return "%s %r, expected %r" % (field, got, spec["expect"])
        return None
    return checker


def _check_basis(spec, outputs, results):
    basis = json.loads(outputs[0])["basis"]
    if len(basis) != spec["rank"]:
        return "basis of %d words, Schreier's formula gives %d" % (len(basis), spec["rank"])
    for entry in basis:
        if apply_perms(spec["perms"], parse(entry["word"], spec["names"])) != 0:
            return "basis word %s moves the base point" % entry["name"]
    return None


def _check_rewrite(spec, outputs, results):
    basis = json.loads(results[spec["basis_op"]][0])["basis"]
    words = [parse(e["word"], spec["names"]) for e in basis]
    rewritten = parse(json.loads(outputs[0])["rewrite"], [e["name"] for e in basis])
    letters = []
    for c in rewritten:
        piece = words[abs(c) - 1]
        letters.extend(piece if c > 0 else invert(piece))
    if reduce_letters(letters) != reduce_letters(parse(spec["word"], spec["names"])):
        return "rewrite does not round-trip through the basis"
    return None


_CHECKS = {
    "witness": _check_witness,
    "verify": _check_verify,
    "long_words": _check_long_words,
    "index": _expect("index"),
    "normal": _expect("normal"),
    "contains": _expect("contains"),
    "basis": _check_basis,
    "rewrite": _check_rewrite,
}
