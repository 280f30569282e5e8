"""Spans around every public fglab function, recorded from outside the program.

``Tracer.install()`` replaces each public function of ``fglab.words``,
``stallings``, ``magnus``, ``engine`` and ``cli`` at every name it is bound
to (``fglab.words.omega``, ``fglab.engine.omega``, ``fglab.cli.omega`` and
``fglab.omega`` are four bindings of one function), plus ``Word.__str__``
as ``words.str``.  Each call records a span ``(name, start, end, parent,
op)`` in memory; names read ``<module>.<function>``.  Hot inner methods
such as ``SubgroupGraph.step`` and ``Word.__init__`` stay unwrapped.
"""

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("words", "stallings", "magnus", "engine", "cli")


def _weight_decided(result):
    # an exact weight or IDENTITY decides; AtLeast(cap + 1) does not
    return int(type(result).__name__ != "AtLeast")


# Size counters, summed over calls: name -> fn(args, result) -> {stat: n}.
SIZES = {
    "words.omega": lambda a, r: {"letters_out": len(r)},
    "words.commutator": lambda a, r: {"letters_out": len(r),
                                      "letters_in": 2 * (len(a[0]) + len(a[1]))},
    "words.parse_word": lambda a, r: {"letters_out": len(r)},
    "words.str": lambda a, r: {"chars_out": len(r)},
    "stallings.build_graph": lambda a, r: {
        "letters_in": sum(len(w) for w in a[0]),
        "wedge_vertices": 1 + sum(len(w) - 1 for w in a[0] if w),
        "vertices_out": r.n_vertices},
    "stallings.rewrite": lambda a, r: {"letters_in": len(a[3]),
                                       "letters_out": len(r)},
    "magnus.magnus_expand": lambda a, r: {"letters_in": len(a[0]),
                                          "terms_out": len(r.terms)},
    "magnus.lcs_weight": lambda a, r: {"decided": _weight_decided(r)},
}

# Ratios derived from the counters: name -> (numerator, denominator).
RATIOS = {
    "words.commutator.kept_ratio": ("words.commutator.letters_out",
                                    "words.commutator.letters_in"),
    "stallings.build_graph.fold_ratio": ("stallings.build_graph.vertices_out",
                                         "stallings.build_graph.wedge_vertices"),
    "magnus.lcs_weight.decided_ratio": ("magnus.lcs_weight.decided",
                                        "magnus.lcs_weight.calls"),
}


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the op in flight."""

    def __init__(self):
        self.spans = []
        self.sizes = defaultdict(int)
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if size is not None:
                for stat, n in size(args, result).items():
                    sizes[name + "." + stat] += n
            return result
        return traced

    def install(self):
        """Wrap every binding of every public function; ``uninstall`` undoes it."""
        import fglab
        from fglab import cli, engine, magnus, stallings, words

        modules = {"words": words, "stallings": stallings, "magnus": magnus,
                   "engine": engine, "cli": cli}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self.wrap("%s.%s" % (layer, attr), obj))
        for module in (fglab, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)][1])
        self._restore.append((words.Word, "__str__", words.Word.__str__))
        words.Word.__str__ = self.wrap("words.str", words.Word.__str__)

    def uninstall(self):
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Calls run on one thread, so siblings never overlap and the children's
    durations are exactly the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, start, end, parent, op) in enumerate(spans)]


def layer_metrics(tracer, op_time):
    """calls, self_s, sizes and ratios per function; self_share per layer.

    ``op_time`` is the summed time of the traced ops, the base of every
    ``<layer>.self_share``.
    """
    metrics = defaultdict(int)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        metrics[name + ".calls"] += 1
        metrics[name + ".self_s"] += own
        metrics[name.split(".")[0] + ".self_share"] += own / op_time
    metrics.update(tracer.sizes)
    for name, (num, den) in RATIOS.items():
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    for layer in LAYERS:
        metrics.setdefault(layer + ".self_share", 0.0)
    return dict(metrics)
