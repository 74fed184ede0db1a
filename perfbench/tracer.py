"""Span recording by wrapping the engine's public functions from outside.

A :class:`Tracer` replaces chosen functions with timing wrappers while
it is installed and puts the originals back when it is removed, so an
untraced run executes exactly the shipped code.  Each call records one
span: name, start, end, parent span and statement id.  Spans live in
flat arrays (a few dozen bytes each) until the run ends, when
:meth:`Tracer.write` stores them and :func:`aggregate` folds them into
per-name totals of calls, self time and inclusive time.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import self_times

#: Statement id of spans recorded outside any statement.
NO_STMT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stmt = array("q")
        #: Statement id -> statement kind (first SQL keyword).
        self.stmt_kinds: Dict[int, str] = {}
        #: Counts attached at span boundaries (e.g. WAL records scanned).
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stmt_ids = itertools.count()
        #: (owner, attribute, original object from ``owner.__dict__``).
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stmt = NO_STMT
        return local

    def _name(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            with self._lock:
                ident = self._name_ids.get(name)
                if ident is None:
                    ident = len(self.names)
                    self.names.append(name)
                    self._name_ids[name] = ident
        return ident

    def open(self, name: str, root_kind: Optional[str] = None) -> int:
        """Start a span; *root_kind* makes an outermost span begin a new
        statement of that kind."""
        local = self._state()
        stack = local.stack
        if not stack:
            if root_kind is not None:
                local.stmt = next(self._stmt_ids)
                self.stmt_kinds[local.stmt] = root_kind
            else:
                local.stmt = NO_STMT
        name_id = self._name(name)
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.stmt.append(local.stmt)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def __len__(self) -> int:
        return len(self.start)

    # -- installing wrappers ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        *,
        root: Optional[Callable[[tuple], str]] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        context_manager: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is a span name or a function of the call's arguments;
        *root* names the statement kind when the call is outermost;
        *after* sees the arguments and result to record counts;
        *context_manager* times the returned object's ``__enter__`` and
        ``__exit__`` instead of the call that builds it.
        """
        if any(o is owner and a == attr for o, a, _ in self._patches):
            raise ValueError(f"{owner!r}.{attr} is already wrapped")
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            func = raw.__func__
        else:
            func = raw
        if context_manager:
            wrapper = self._cm_wrapper(func, name)
        else:
            wrapper = self._wrapper(func, name, root, after)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        elif isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def _wrapper(self, func, name, root, after):
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            index = tracer.open(
                fixed or name(args), root(args) if root is not None else None
            )
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _cm_wrapper(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            return _TracedContext(tracer, name, func(*args, **kwargs))

        traced.__wrapped__ = func
        return traced

    def unwrap_all(self) -> None:
        """Restore every patched attribute and prove it by identity."""
        patches, self._patches = self._patches, []
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)
        for owner, attr, raw in patches:
            if owner.__dict__[attr] is not raw:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Store every span as gzip'd tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("span\tname\tstart\tend\tparent\tstmt\tkind\n")
            names, kinds = self.names, self.stmt_kinds
            for index in range(len(self.start)):
                stmt = self.stmt[index]
                out.write(
                    f"{index}\t{names[self.name_id[index]]}\t"
                    f"{self.start[index]:.9f}\t{self.end[index]:.9f}\t"
                    f"{self.parent[index]}\t{stmt}\t{kinds.get(stmt, '')}\n"
                )


class _TracedContext:
    """Times a context manager's enter and exit as two spans."""

    __slots__ = ("tracer", "name", "inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __enter__(self):
        index = self.tracer.open(self.name)
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.close(index)

    def __exit__(self, exc_type, exc, tb):
        index = self.tracer.open(self.name)
        try:
            return self.inner.__exit__(exc_type, exc, tb)
        finally:
            self.tracer.close(index)


def aggregate(tracer: Tracer) -> Dict[str, Any]:
    """Fold spans into ``{"rows": [[name, parent_name, kind, calls,
    self_s, incl_s], ...], "counts": {...}}``.

    Rows are keyed by span name, the name of its parent span ("" for an
    outermost span) and the kind of the statement it ran in, which is
    enough to ask "node reads made by a cursor" or "WAL appends made by
    a SELECT".  Spans still open (end 0) are skipped.
    """
    count = len(tracer.start)
    starts, ends = tracer.start[:count], tracer.end[:count]
    parents = tracer.parent[:count]
    own = self_times(starts, ends, parents)
    names, kinds = tracer.names, tracer.stmt_kinds
    rows: Dict[Tuple[str, str, str], List[float]] = {}
    for index in range(count):
        if ends[index] == 0.0:
            continue
        name = names[tracer.name_id[index]]
        parent = parents[index]
        parent_name = names[tracer.name_id[parent]] if parent >= 0 else ""
        kind = kinds.get(tracer.stmt[index], "")
        row = rows.setdefault((name, parent_name, kind), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[index]
        row[2] += ends[index] - starts[index]
    return {
        "rows": [[*key, *value] for key, value in sorted(rows.items())],
        "counts": dict(tracer.counts),
    }
