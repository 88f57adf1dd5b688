"""Span tracing of the program's layers from outside the package.

Targets are resolved by module and attribute name and wrapped in place.  Each
wrapped call opens a span (name, start, parent = the span open below it) and
closes it at its end; a generator target opens one span per ``next()``.
Spans are folded into per-name totals as they close, which keeps memory flat
on runs with millions of calls:

- self time: a span's duration minus the time covered by its child spans;
- calls: closed call spans (``next()`` spans are not calls);
- yields: values produced by generator targets;
- runs: call spans that opened at least one child span.

A target that does not resolve is listed in ``missing`` and never wrapped, so
a renamed function shows up as missing instead of as zero.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, dotted attribute)
TARGETS = {
    "modelio.gen_castles": ("atlir.modelio", "gen_castles"),
    "modelio.gen_cardgame": ("atlir.modelio", "gen_cardgame"),
    "modelio.dumps": ("atlir.modelio", "dumps"),
    "modelio.loads": ("atlir.modelio", "loads"),
    "icgs.validate": ("atlir.icgs", "validate"),
    "icgs.index": ("atlir.icgs", "Icgs.index"),
    "index.pre_move": ("atlir._index", "CoalitionIndex.pre_move"),
    "index.pre_ce": ("atlir._index", "CoalitionIndex.pre_ce"),
    "index.filter_ceu": ("atlir._index", "CoalitionIndex.filter_ceu"),
    "index.moves_of": ("atlir._index", "CoalitionIndex.moves_of"),
    "index.cover": ("atlir._index", "CoalitionIndex.cover"),
    "index.split_all": ("atlir._index", "CoalitionIndex.split_all"),
    "index.compatible": ("atlir._index", "CoalitionIndex.compatible"),
    "index.closed_within": ("atlir._index", "CoalitionIndex.closed_within"),
    "checker.check": ("atlir.checker", "check"),
    "oracle.oracle_eval": ("atlir.oracle", "oracle_eval"),
    "oracle.perfect_info_eval": ("atlir.oracle", "perfect_info_eval"),
    "oracle.strategy_sat_u": ("atlir.oracle", "strategy_sat_u"),
    "oracle.enumerate_uniform": ("atlir.oracle", "enumerate_uniform"),
}


def _resolve(module_name, dotted):
    """(owner, attribute, value) of a target, or None when it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Per-name span totals; spans of one root call share its name as root."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds, children]
        self.self_s = defaultdict(float)
        self.root_self_s = defaultdict(float)  # (root name, name) -> self time
        self.calls = defaultdict(int)
        self.yields = defaultdict(int)
        self.runs = defaultdict(int)
        self.active = True
        self.missing = []
        self._installed = []

    def install(self):
        """Wrap every resolvable target; record the others as missing."""
        self.missing = []
        for name, (module_name, dotted) in TARGETS.items():
            found = _resolve(module_name, dotted)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def reset(self):
        self.stack.clear()
        for table in (self.self_s, self.root_self_s, self.calls, self.yields,
                      self.runs):
            table.clear()

    @contextmanager
    def paused(self):
        """Calls made inside the block open no spans (reference checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def checkpoint(self):
        """What ``unwind`` returns to: the open span depth and the counts."""
        return len(self.stack), [dict(t) for t in (self.calls, self.yields, self.runs)]

    def unwind(self, checkpoint):
        """After an interrupt (the query deadline), drop the spans it left
        open and the counts made since ``checkpoint``: they depend on where
        the interrupt landed.  The time spent stays in the self times."""
        depth, counts = checkpoint
        del self.stack[depth:]
        for table, saved in zip((self.calls, self.yields, self.runs), counts):
            table.clear()
            table.update(saved)

    def _close(self, span, end, is_call):
        stack = self.stack
        if stack and stack[-1] is span:
            stack.pop()
        name, start, child, children = span
        duration = end - start
        own = duration - child
        self.self_s[name] += own
        self.root_self_s[(stack[0][0] if stack else name, name)] += own
        if is_call:
            self.calls[name] += 1
            if children:
                self.runs[name] += 1
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent[3] += 1

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, clock(), True)
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(name, result)
            return result

        return traced

    def _iterate(self, name, iterator):
        clock = time.perf_counter
        stack = self.stack
        while True:
            span = [name, clock(), 0.0, 0]
            stack.append(span)
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span, clock(), False)
            self.yields[name] += 1
            yield value
