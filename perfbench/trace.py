"""In-memory host-time spans recorded from outside ``repro``.

A :class:`Tracer` wraps public functions and methods of the ``repro``
package and records one span per call: name, start and end in host
seconds (``time.perf_counter``), the span that caused it, and the id of
the benchmark op it belongs to.  Nothing in ``src/`` knows about it: the
wrappers are installed by *rebinding*.  The package imports its helpers by
name (``from ..simmpi.alltoall import route_rows``), so patching the
defining module alone would miss every caller; :meth:`Tracer.install`
therefore rebinds, in every loaded ``repro.*`` module namespace (and in the
module-level dispatch dicts such as ``ALLTOALL_METHODS``), each attribute
that *is* the target function.  Methods are rebound on their class.
:meth:`Tracer.uninstall` restores every binding it changed.

A span is the list ``[name, op, parent, start, end, child_seconds, extra]``
(``parent`` is the enclosing span of the same thread or None).  Its self
time is ``end - start - child_seconds``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

NAME, OP, PARENT, START, END, CHILD_S, EXTRA = range(7)

#: ``measure(args, kwargs, result) -> {counter: number}`` evaluated after
#: the wrapped call; the numbers are summed per span name and op.
Measure = Optional[Callable[[tuple, dict, object], Dict[str, float]]]


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Id stamped on every span started from now on (set per op).
        self.op = None
        self._local = threading.local()
        #: ``(container, key, original)`` for every binding changed.
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str) -> list:
        """Open a span by hand (the harness brackets each op with one)."""
        stack = self._stack()
        rec = [name, self.op, stack[-1] if stack else None,
               0.0, 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        """Close the span opened last on this thread."""
        rec[END] = time.perf_counter()
        self._stack().pop()
        if rec[PARENT] is not None:
            rec[PARENT][CHILD_S] += rec[END] - rec[START]

    def wrap(self, name: str, fn: Callable, measure: Measure = None):
        """A wrapper of ``fn`` recording one span called ``name`` per call."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if measure is not None:
                rec[EXTRA] = measure(args, kwargs, result)
            return result

        return traced

    # -- rebinding ------------------------------------------------------
    def install(self, functions: Iterable[tuple],
                methods: Iterable[tuple]) -> None:
        """Rebind the targets to traced wrappers.

        ``functions`` holds ``(span_name, module, attribute, measure)`` and
        ``methods`` ``(span_name, module, class_name, method, measure)``.
        Call it after everything the run needs is imported: a module
        loaded later binds the originals again.
        """
        if self._undo:
            raise RuntimeError("tracer is already installed")
        # id(original) -> (original, wrapper); one scan of the namespaces.
        traced = {}
        for name, modname, attr, measure in functions:
            original = getattr(importlib.import_module(modname), attr)
            traced[id(original)] = (original, self.wrap(name, original,
                                                        measure))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in traced:
                    self._rebind(vars(mod), key, *traced[id(value)])
                elif type(value) is dict and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in traced:
                            self._rebind(value, dkey, *traced[id(dvalue)])
        for name, modname, clsname, attr, measure in methods:
            cls = getattr(importlib.import_module(modname), clsname)
            original = vars(cls)[attr]
            self._rebind(cls, attr, original,
                         self.wrap(name, original, measure))

    def _rebind(self, container, key, original, new) -> None:
        self._undo.append((container, key, original))
        _bind(container, key, new)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` changed."""
        while self._undo:
            container, key, original = self._undo.pop()
            _bind(container, key, original)

    # -- reading --------------------------------------------------------
    def totals_by_op(self) -> Dict[object, Dict[str, Dict[str, float]]]:
        """Per op and span name: ``s`` (inclusive host seconds, a span
        nested inside one of the same name counted once), ``self_s``,
        ``calls``, and the sum of every ``measure`` counter."""
        out: Dict[object, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float)))
        for rec in self.spans:
            row = out[rec[OP]][rec[NAME]]
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["self_s"] += dur - rec[CHILD_S]
            anc = rec[PARENT]
            while anc is not None and anc[NAME] != rec[NAME]:
                anc = anc[PARENT]
            if anc is None:
                row["s"] += dur
            for key, value in (rec[EXTRA] or {}).items():
                row[key] += value
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: one ``[name, op, parent index, start,
        end, extra]`` row per span, in start order per thread."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[rec[NAME], rec[OP],
                 index[id(rec[PARENT])] if rec[PARENT] is not None else None,
                 rec[START], rec[END], rec[EXTRA]] for rec in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "op", "parent", "start_s",
                                   "end_s", "extra"], "spans": rows}, fh)


def _bind(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
