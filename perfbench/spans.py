"""In-process span tracing of the ``transub`` layers, installed from outside.

``traced(tracer)`` replaces every public function of the layer modules (the
functions in ``transub.__all__`` plus ``cli.main``) with a timing wrapper, at
every module binding that refers to it, so names imported with ``from .x
import f`` are caught as well.  It also counts the dense bytes of every
``Relation`` built.  Everything is restored on exit.

A span is ``[name, start_ns, end_ns, parent, job]``; spans stay in memory until
the run ends.  A span's self time is its duration minus the time its direct
child spans cover (calls are strictly nested on one thread).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("relation", "maximal", "maximum", "extremal", "sat", "cli")


def _count_maximal(counters: Counter, args, result) -> None:
    host, (kept, _) = args[0], result
    counters["maximal.kept_arcs"] += kept.m
    counters["maximal.deleted_arcs"] += host.m - kept.m


def _count_clauses(counters: Counter, args, result) -> None:
    counters["sat.clauses"] += len(result.clauses)


# Deterministic work counts taken at a span boundary from arguments and result.
HOOKS = {
    "maximal.maximal_transitive_v1": _count_maximal,
    "maximal.maximal_transitive_v2": _count_maximal,
    "sat.encode_mts_to_cnf": _count_clauses,
}

COUNTERS = ("relation.dense_bytes", "maximal.kept_arcs", "maximal.deleted_arcs", "sat.clauses")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter({name: 0 for name in COUNTERS})
        self.job = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def self_times(self) -> list[tuple[str, str, int]]:
        """(job, span name, self ns) for every span."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (job, name, end - start - covered[i])
            for i, (name, start, end, _, job) in enumerate(self.spans)
        ]


def layer_functions() -> dict[str, object]:
    """Span name -> original function, for every function the tracer wraps."""
    import transub
    import transub.cli

    found = {"cli.main": transub.cli.main}
    for attr in transub.__all__:
        obj = getattr(transub, attr)
        if inspect.isfunction(obj):
            module = obj.__module__.rpartition(".")[2]
            if module in LAYERS:
                found[f"{module}.{obj.__name__}"] = obj
    return found


@contextmanager
def traced(tracer: Tracer):
    from transub.relation import Relation

    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in layer_functions().items()}
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "transub" and not mod_name.startswith("transub."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                undo.append((module, attr, value))

    original_init = Relation.__init__

    def counting_init(self, adj) -> None:
        original_init(self, adj)
        tracer.counters["relation.dense_bytes"] += self.n * self.n

    Relation.__init__ = counting_init
    try:
        yield tracer
    finally:
        Relation.__init__ = original_init
        for module, attr, value in undo:
            setattr(module, attr, value)
