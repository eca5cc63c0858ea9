"""In-memory span tracer installed from outside the program.

The benchmark may not edit ``src/``, so layers are timed at their public
boundaries: :meth:`Tracer.wrap` replaces a callable on its owner (class
or module) with a timing wrapper and :meth:`Tracer.restore` puts the
original object back.  Spans carry ``name, start, end, parent`` plus the
tracer's run id; a layer's *self time* is its span's duration minus the
part its child spans cover.

Only the installing thread of the installing process records spans: a
forked pool worker inherits the wrapped classes, and its copy of the
tracer switches itself off so worker-side calls run the original code
with no bookkeeping.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Span record layout (a list, because the end time is filled in later).
NAME, START, END, PARENT = 0, 1, 2, 3


class Tracer:
    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        #: Summed ``measure(result)`` values per span name (e.g. bytes).
        self.values: Dict[str, float] = {}
        self.enabled = True
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call into a layer."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    # -- installing wrappers -----------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        measure: Optional[Callable[[object], float]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class or a module; the attribute is looked up in
        its own ``__dict__`` so the exact original object (function,
        ``classmethod`` or ``staticmethod``) is what :meth:`restore`
        puts back.  ``measure(result)`` adds a number per call to
        :attr:`values` under ``name``.
        """
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            timed = type(original)(self._timed(original.__func__, name, measure))
        else:
            timed = self._timed(original, name, measure)
        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def _timed(self, fn: Callable, name: str, measure) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        ident, home = threading.get_ident, self._thread

        # _open/_close inlined: this runs ~40 000 times in one convergence.
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.enabled or ident() != home:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if measure is not None:
                self.values[name] = self.values.get(name, 0) + measure(result)
            return result

        return timed

    def restore(self) -> None:
        """Put every wrapped attribute's original object back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, pins: Iterable[tuple]) -> Iterator["Tracer"]:
        """Wrap ``(owner, attr, name[, measure])`` pins for the block only."""
        try:
            for pin in pins:
                self.wrap(*pin)
            yield self
        finally:
            self.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus direct children's cover.

        One thread records, so a span's children are sequential and
        properly nested: their durations add up to the covered part.
        """
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + seconds
        return totals

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def inclusive(self, names: Iterable[str]) -> float:
        """Wall time inside any span of ``names``, nested ones counted once."""
        wanted = set(names)
        total = 0.0
        for span in self.spans:
            if span[NAME] not in wanted:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in wanted:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += span[END] - span[START]
        return total

    def child_cover(self, index: int = 0) -> float:
        """Share of span ``index`` covered by its direct children."""
        span = self.spans[index]
        duration = span[END] - span[START]
        covered = sum(
            child[END] - child[START]
            for child in self.spans
            if child[PARENT] == index
        )
        return covered / duration if duration > 0 else 0.0

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id,
                    "id": index,
                    "parent": span[PARENT],
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                }) + "\n")
