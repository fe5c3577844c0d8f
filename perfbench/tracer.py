"""Spans around the calls into mdimlab's public functions, from the outside.

`Tracer.install` finds every public, non-generator function defined in an
mdimlab module and replaces each module attribute that *is* that function
object with a timing wrapper.  That covers names imported into other
modules too (`mdim.build_instance`, `lifting.bfs_distances`) and the
re-exports on the package itself.  The entries of `verify.CHECKS` are
wrapped as `verify.check.<name>`.  Calls that go through a private alias
or a captured reference (a dispatch table, a default argument) stay
untraced; their time lands in the caller's self time.

A span is (name, start, end, parent index, item id).  Spans stay in memory
and are written out once, at the end of the process, as gzip'd TSV.  A few counters are
read from inputs and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._restore: list = []
        self._checks_saved = None
        self.counts: dict[str, float] = defaultdict(float)
        self.exact_inputs: set = set()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules:
            for obj in vars(mod).values():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith(package.__name__ + ".")
                    and not obj.__name__.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                    and obj not in wrappers
                ):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        verify = importlib.import_module(f"{package.__name__}.verify")
        self._checks_saved = dict(verify.CHECKS)
        for name, fn in self._checks_saved.items():
            verify.CHECKS[name] = self.wrap(f"verify.check.{name}", fn)
        self._checks = verify.CHECKS

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()
        if self._checks_saved is not None:
            self._checks.update(self._checks_saved)
            self._checks_saved = None

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span for benchmark work done inside a traced call, so that it
        does not count as the caller's self time."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, None))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds and total seconds, plus the
        counters and the traced self time spent inside items outside the
        verify harness (the numerator of trace.coverage)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            if item is not None and not name.startswith("verify."):
                covered += own
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
            "exact_distinct": len(self.exact_inputs),
            "covered_s": covered,
        }

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index
        (-1 for none), item id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("".join(
                f"{name}\t{start!r}\t{end!r}\t{parent}\t{item}\n"
                for name, start, end, parent, item in self.spans
            ))


def _count_instance(tracer, args, kwargs, result):
    tracer.counts["cover.build_instance.pairs"] += getattr(result, "n_items", 0)


def _count_min_cover(tracer, args, kwargs, result):
    tracer.counts["cover.min_cover.nodes"] += getattr(result, "nodes", 0)
    tracer.counts["cover.min_cover.optimal"] += bool(getattr(result, "optimal", False))


def _count_forced(tracer, args, kwargs, result):
    tracer.counts["mdim.twin_forced_choices.forced"] += len(result)


def _count_exact(tracer, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    tracer.exact_inputs.add((g.n, g.adj))


COUNTERS = {
    "cover.build_instance": _count_instance,
    "cover.min_cover": _count_min_cover,
    "mdim.twin_forced_choices": _count_forced,
    "mdim.mdim_exact": _count_exact,
}
