"""In-memory spans for the traced run.

A span is a call into one layer: its name, the item it served, the span
that was open when it started, and its start and end in nanoseconds.
``Tracer.install`` replaces, in this process only, the names that
``asdim.tower`` and ``asdim.verify`` import from the layer below with
wrappers that record a span per call.  The untraced runs never install
them.  Each item's pipeline runs inside one span named ``item``, which
starts the next item id.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable

# Module attribute -> span name.  These are the names each module looks up
# at call time, so replacing them reaches every call from that module.
WRAPPED = {
    "asdim.tower": {
        "hnn_rewrite": "rewriting.hnn_rewrite",
        "zero_sum_embedding": "rewriting.zero_sum_embedding",
        "choose_embedding_pair": "rewriting.choose_embedding_pair",
        "find_single_occurrence": "rewriting.find_single_occurrence",
        "find_zero_exponent": "rewriting.find_zero_exponent",
        "split_free_part": "rewriting.split_free_part",
    },
    "asdim.verify": {
        "substitute": "words.substitute",
        "reduce_word": "words.reduce_word",
        "equal_as_cyclic_words": "words.equal_as_cyclic_words",
    },
}


def _letters_in(name: str, args: tuple) -> int:
    """Letters handed to a word-arithmetic call."""
    if name == "words.equal_as_cyclic_words":
        return len(args[0]) + len(args[1])
    return len(args[0])


def _expanded(word: Any, images: Any) -> int:
    """Letters that substitute(word, images) produces before reduction."""
    return sum(len(images.get(letter.gen, ())) for letter in word.letters)


class Tracer:
    def __init__(self) -> None:
        # Span i is spans[i] = (parent, item, name, start_ns, end_ns).
        self.spans: list[Any] = []
        self.stack: list[int] = []
        self.item = -1
        self.letters_in = 0
        self.expanded = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        if name == "item":
            self.item += 1
        spans, stack = self.spans, self.stack
        sid = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[sid] = (parent, self.item, name, start, end)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        counts_letters = name.startswith("words.")
        expands = name == "words.substitute"

        def wrapped(*args: Any) -> Any:
            if counts_letters:
                self.letters_in += _letters_in(name, args)
            if expands:
                self.expanded += _expanded(*args)
            return self.call(name, fn, *args)

        return wrapped

    def install(self) -> None:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, span_name in attrs.items():
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(span_name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns).  Self time is a span's
        duration minus the durations of its direct children, which nest
        inside it and do not overlap."""
        child_ns = [0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (_, _, name, start, end) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[i]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write the spans as JSON: a name table and one row per span,
        [parent, item, name index, start_ns, duration_ns]."""
        names: dict[str, int] = {}
        rows = []
        for parent, item, name, start, end in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([parent, item, idx, start, end - start])
        doc = dict(header, names=list(names), spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
