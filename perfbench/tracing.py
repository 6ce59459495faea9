"""Span tracing of the program's layer functions, installed from outside.

For a traced run the benchmark replaces the module attributes the program
calls through (``solver.sweep_round``, ``lab.brute_force_rainbow``, ...)
and the methods each concrete matroid species resolves, with wrappers that
record spans; ``installed`` puts every original back.  Nothing in ``src/``
is edited.

Each span is (name, start, end, parent span, op id).  Independence-predicate
calls are far too many to keep one span each: their count and time are
folded into the calling span and into the ``matroids.is_independent``
totals.  All per-layer figures are self figures: a span's time and
predicate calls exclude those of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PREDICATE = "matroids.is_independent"
MATROID_METHODS = ("span", "fundamental_circuit", "max_independent_subset")
MODULE_FUNCTIONS = {
    "solver": ("solve", "greedy_seed", "sweep_round", "close_round",
               "validate_trail", "apply_trail", "exhaustive_cat_search"),
    "lab": ("random_instance", "random_oracle", "max_common_independent",
            "brute_force_rainbow", "encode_array"),
    "fileio": ("parse_instance", "instance_to_doc", "result_to_doc",
               "dumps_doc"),
}
LAYERS = (
    (PREDICATE,)
    + tuple(f"matroids.{m}" for m in MATROID_METHODS)
    + ("solver.solve", "solver.validate")
    + tuple(f"solver.{f}" for f in MODULE_FUNCTIONS["solver"][1:])
    + tuple(f"lab.{f}" for f in MODULE_FUNCTIONS["lab"])
    + tuple(f"fileio.{f}" for f in MODULE_FUNCTIONS["fileio"])
)


def _kind(result):
    return type(result).__name__


def _accepted(result):
    return "accept" if result else "reject"


def _found(result):
    return "hit" if result is not None else "miss"


OUTCOMES = {
    "solver.sweep_round": _kind,
    "solver.close_round": _kind,
    "solver.validate_trail": _accepted,
    "solver.exhaustive_cat_search": _found,
    "lab.brute_force_rainbow": _found,
}


def species_classes(matroids):
    """Every subclass of MatroidOracle, however deep."""
    out, todo = [], [matroids.MatroidOracle]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


class Tracer:
    """Keeps spans and per-layer totals in memory for one traced run."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.predicate_calls = Counter()
        self.outcomes = defaultdict(Counter)
        self._stack = []
        self._op = None
        self._op_predicates = 0
        self._seen = {}
        self._in_predicate = False
        self._patches = []

    # --- spans ------------------------------------------------------------

    def _enter(self, name):
        frame = [len(self.spans), name, time.perf_counter(), 0.0, 0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, label):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, predicates = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[span_id] = (name, start, end,
                               parent[0] if parent else None, self._op)
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.predicate_calls[name] += predicates
        if label is not None:
            self.outcomes[name][label] += 1

    def begin(self, op_id, root="bench.op"):
        """Start tracing one operation under a root span."""
        self._op = op_id
        self._op_predicates = 0
        self._seen = {}
        self.active = True
        self._enter(root)

    def end(self, instance_oracles):
        """Stop tracing the current operation.

        Returns (traced, counted, other): predicate calls the wrappers
        attributed to spans, the same calls as counted by the oracles' own
        counters, and the part of them made on oracles other than
        ``instance_oracles`` (candidates the generator discarded, or the
        base of a lifted matroid).
        """
        self._exit(self._stack[-1], None)
        self.active = False
        mine = {id(o) for o in instance_oracles}
        counted = other = 0
        for key, (oracle, start) in self._seen.items():
            delta = oracle.independence_calls - start
            counted += delta
            if key not in mine:
                other += delta
        self._seen = {}
        return self._op_predicates, counted, other

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            label = "raised"
            try:
                result = fn(*args, **kwargs)
                label = outcome(result) if outcome else None
                return result
            finally:
                tracer._exit(frame, label)

        return traced

    def _wrap_predicate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(oracle, s):
            if not tracer.active:
                return fn(oracle, s)
            if id(oracle) not in tracer._seen:
                tracer._seen[id(oracle)] = (oracle, oracle.independence_calls)
            tracer._op_predicates += 1
            tracer.calls[PREDICATE] += 1
            if tracer._in_predicate:
                # A predicate calling a predicate (a lift asking its base):
                # the caller is is_independent, whose time already covers it.
                tracer.predicate_calls[PREDICATE] += 1
                return fn(oracle, s)
            tracer._in_predicate = True
            start = time.perf_counter()
            try:
                return fn(oracle, s)
            finally:
                duration = time.perf_counter() - start
                tracer._in_predicate = False
                tracer.self_s[PREDICATE] += duration
                frame = tracer._stack[-1]
                frame[3] += duration
                frame[4] += 1

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, attr in vars(owner),
                              vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self, mods):
        """Wrap every layer function for the duration of the block."""
        try:
            for module, names in MODULE_FUNCTIONS.items():
                owner = getattr(mods, module)
                for fn_name in names:
                    self._patch(owner, fn_name,
                                self._wrap(f"{module}.{fn_name}",
                                           getattr(owner, fn_name)))
            validate = mods.solver.RainbowInstance.validate
            self._patch(mods.solver.RainbowInstance, "validate",
                        self._wrap("solver.validate", validate))
            # Resolve every species' methods before patching any, so a
            # subclass wraps the original and not its parent's wrapper.
            resolved = [(cls, attr, getattr(cls, attr))
                        for cls in species_classes(mods.matroids)
                        for attr in ("is_independent",) + MATROID_METHODS]
            for cls, attr, fn in resolved:
                if attr == "is_independent":
                    wrapper = self._wrap_predicate(fn)
                else:
                    wrapper = self._wrap(f"matroids.{attr}", fn)
                self._patch(cls, attr, wrapper)
            yield self
        finally:
            self.active = False
            while self._patches:
                owner, attr, had_own, original = self._patches.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # --- results ----------------------------------------------------------

    def snapshot(self):
        return {"calls": Counter(self.calls),
                "self_s": dict(self.self_s),
                "predicate_calls": Counter(self.predicate_calls),
                "outcomes": {k: Counter(v) for k, v in self.outcomes.items()}}

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, op id, with
        times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["name", "start_s", "end_s",
                                                "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, round(start - origin, 9),
                                         round(end - origin, 9),
                                         parent, op]) + "\n")


def wrapped_attributes(mods):
    """Map of every attribute a tracer patches to what it holds now, for
    checking that a traced run left the program as it found it."""
    owners = [(getattr(mods, m), names) for m, names in MODULE_FUNCTIONS.items()]
    owners.append((mods.solver.RainbowInstance, ("validate",)))
    owners += [(cls, ("is_independent",) + MATROID_METHODS)
               for cls in species_classes(mods.matroids)]
    return {(owner.__name__, attr): vars(owner).get(attr)
            for owner, names in owners for attr in names}
