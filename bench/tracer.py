"""Per-layer tracing from outside the program.

``Tracer.patched()`` replaces kfock's public functions with wrappers that
record one span per call: name, start, end and the index of the enclosing
span (-1 for a root).  The wrapped name is replaced in every loaded kfock
module that holds it, so names imported by value (``kfock.cli.validate``)
are traced too.  Spans stay in memory until the run writes them out.
``KGraph.compose`` (over a million calls per workload) is deliberately left
unwrapped so the tracing overhead stays small.
"""

import functools
import importlib
import itertools
import os
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager


def _left_op(tracer, args, result):
    space, what = args[0], args[1]
    if isinstance(what, str):
        key = (what,) if space.graph.has_edge(what) else ("vertex", what)
    else:
        key = what.word or ("vertex", what.src)
    tracer.counts["fock.left_op.nnz"] += result.nnz
    tracer.distinct.add((tracer.space_id(space), key))


def _export(tracer, args, result):
    tracer.counts["fock.export.bytes"] += os.path.getsize(str(args[1]))


def _basis(tracer, args, result):
    space = args[0]
    tracer.counts["fock.basis.dim"] += space.dimension
    tracer.spaces_built.append((space.graph, space.trunc, space.dimension))


def _validate(tracer, args, result):
    tracer.counts["kgraph.validate.paths_checked"] += result.stats["pathsChecked"]
    tracer.counts["kgraph.validate.words_checked"] += result.stats["wordsChecked"]


def _dump(tracer, args, result):
    tracer.counts["reports.dump.bytes"] += len(result.encode("utf-8"))


# (layer name, module, attribute path, observer of (tracer, args, result))
LAYERS = [
    ("fock.left_op", "kfock.fock", "left_op", _left_op),
    ("fock.right_op", "kfock.fock", "right_op", None),
    ("fock.word_op", "kfock.fock", "word_op", None),
    ("fock.range_conflicts", "kfock.fock", "same_degree_range_conflicts", None),
    ("fock.commutant", "kfock.fock", "commutant_residual", None),
    ("fock.partial_isometry", "kfock.fock", "partial_isometry_residual", None),
    ("fock.export", "kfock.fock", "write_matrix_market", _export),
    ("fock.export", "kfock.fock", "write_basis_manifest", _export),
    ("fock.basis", "kfock.fock", "TruncatedFock.__init__", _basis),
    ("fock.parent_links", "kfock.fock", "TruncatedFock.parent_links", None),
    ("kgraph.paths_of_degree", "kfock.kgraph", "KGraph.paths_of_degree", None),
    ("kgraph.validate", "kfock.kgraph", "validate", _validate),
    ("gelfand.omega_vector", "kfock.gelfand", "omega_vector", None),
    ("gelfand.omega_norm_check", "kfock.gelfand", "omega_norm_check", None),
    ("gelfand.eigen_residual", "kfock.gelfand", "eigen_residual", None),
    ("gelfand.multiplicativity", "kfock.gelfand", "multiplicativity_check", None),
    ("structure.report", "kfock.structure", "structure_report", None),
    ("builders.builtin_graph", "kfock.builders", "builtin_graph", None),
    ("reports.dump", "kfock.reports", "dump_report", _dump),
]
LAYER_NAMES = {layer[0] for layer in LAYERS}
COUNTERS = ("fock.left_op.nnz", "fock.export.bytes", "fock.basis.dim",
            "kgraph.validate.paths_checked", "kgraph.validate.words_checked",
            "reports.dump.bytes")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self.distinct = set()
        self.spaces_built = []
        self._space_ids = weakref.WeakKeyDictionary()
        self._next_space_id = itertools.count()

    def space_id(self, space):
        """A number per Fock space, never reused within this tracer."""
        if space not in self._space_ids:
            self._space_ids[space] = next(self._next_space_id)
        return self._space_ids[space]

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Trace every layer in ``LAYERS`` for the duration of the block."""
        undo = []
        for name, module, attr, observe in LAYERS:
            owner = importlib.import_module(module)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrapped = self.wrap(name, orig, observe)
            holders = [(owner, leaf)]
            if not outer:
                holders += [(mod, key) for mod_name, mod in list(sys.modules.items())
                            if mod_name.split(".")[0] == "kfock" and mod is not owner
                            for key, val in list(vars(mod).items()) if val is orig]
            for holder, key in holders:
                setattr(holder, key, wrapped)
                undo.append((holder, key, orig))
        try:
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)


def layer_times(spans):
    """Per span name: call count, self time (duration minus the durations of
    its direct children) and total time (duration of the spans not nested
    inside a span of the same name)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total_s[name] += end - start
    return calls, self_s, total_s
