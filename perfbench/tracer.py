"""Layer tracing from outside the package, by wrapping the names callers look up.

A `Tracer` keeps a stack of open spans. When a span closes, its duration is
added to its parent's child time, so self time is duration minus the time
covered by children. Per-boundary aggregates (calls, inclusive seconds,
self seconds) are kept for every span; individual spans are stored only for
the boundaries named coarse, so memory stays bounded however many inner
calls run.

A boundary re-entered while already open (``forward`` calling
``_forward_cache``, ``evaluate`` calling ``f1_scores``) counts one call and
one inclusive interval, that of its outermost span; self time is split
between the nested spans as usual, so self times still add up to the wall
time.

`wrap` and `patch` replace module and class attributes and record every
target they cannot find as absent instead of failing, so a later refactor
that removes a wrapped name leaves the traced run working with that layer
reported absent.
"""

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class BoundaryStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Span:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span stack, per-boundary aggregates, counters and installed patches."""

    def __init__(self, coarse=(), clock=time.perf_counter):
        self.clock = clock
        self.coarse = frozenset(coarse)
        self.stats = {}
        self.counters = Counter()
        self.spans = []  # (name, start, end, parent name or None), coarse boundaries only
        self.absent = []
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # spans -------------------------------------------------------------

    def enter(self, name):
        self._stack.append(_Span(name, self.clock()))
        self._depth[name] += 1

    def exit(self):
        end = self.clock()
        span = self._stack.pop()
        duration = end - span.start
        self._depth[span.name] -= 1
        stats = self.stats.get(span.name)
        if stats is None:
            stats = self.stats[span.name] = BoundaryStats()
        stats.self_s += duration - span.child_s
        if self._depth[span.name] == 0:
            stats.calls += 1
            stats.total_s += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        if span.name in self.coarse:
            self.spans.append((span.name, span.start, end, parent.name if parent else None))
        return duration

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name, amount=1):
        self.counters[name] += amount

    def boundary(self, name):
        return self.stats.get(name, BoundaryStats())

    # patching ----------------------------------------------------------

    def wrap(self, target, name, after=None):
        """Replace `target` ("package.module:Attr.path") with a timed wrapper.

        `name` is the boundary name, or a function of the call's arguments
        returning it. `after(tracer, args, kwargs, result)` runs once the
        call returned. A target that does not resolve is recorded as absent.
        """
        resolved = _resolve(target)
        if resolved is None:
            self._absent(target)
            return False
        owner, attr, original = resolved
        self._patch(owner, attr, self._timed(original, name, after))
        return True

    def patch(self, target, make_replacement, required=()):
        """Replace `target` with `make_replacement(original)`.

        `required` lists parameter names the original must accept; if any is
        missing the target counts as absent and is left alone.
        """
        resolved = _resolve(target)
        if resolved is not None and required:
            params = inspect.signature(resolved[2]).parameters
            if any(p not in params for p in required):
                resolved = None
        if resolved is None:
            self._absent(target)
            return False
        owner, attr, original = resolved
        self._patch(owner, attr, make_replacement(original))
        return True

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _absent(self, target):
        if target not in self.absent:  # installing again does not repeat it
            self.absent.append(target)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, original, name, after):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper


def _resolve(target):
    """(owner, attribute, current value) for "module:Attr.path", or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # look in the owner's own namespace for classes, so a method inherited
    # from a base class is not patched onto the subclass by mistake
    namespace = vars(owner)
    if attr not in namespace:
        return None
    return owner, attr, getattr(owner, attr)


def array_bytes(value):
    """Bytes held by the arrays in `value`: an array, or a tuple or list of them (sparse rows)."""
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(v) for v in value)
    return 0
