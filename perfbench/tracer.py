"""Outside-in span tracer for flatmin's layers.

The tracer replaces each traced public function with a wrapper in every
``flatmin`` module namespace that holds it, because callers look functions up
where they imported them (``flatmin.harness.grid_flatness_study`` as well as
``flatmin.landscapes.grid_flatness_study``). Nothing under ``src/`` changes,
and :meth:`Tracer.restore` puts every original back.

Each span records its name, thread id, parent span and start/end times. The
current span lives in a context variable; ``ThreadPoolExecutor.submit`` is
wrapped to run each task in a copy of the submitter's context, so a span on a
pool thread has the span that submitted it as its parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

# layer (module under flatmin) -> traced public functions
LAYER_FUNCTIONS = {
    "optim": ("sgd_step", "sgdm_step", "adam_step", "miadam_step"),
    "landscapes": ("batch_loss_grad", "landscape_eval", "simulate_trajectory",
                   "grid_flatness_study"),
    "mlp": ("loss_and_grad", "forward_loss", "accuracy", "train_classifier"),
    "hessian": ("hvp", "top_eigenvalue", "hutchinson_trace"),
    "theory": ("run_regret_experiment", "escape_report"),
    "harness": ("normalize_config", "run_config"),
    "reporting": ("write_csv", "write_report"),
}

# its first argument is the path of the CSV it writes
_CSV_WRITER = "reporting.write_csv"


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float
    # the path a CSV writer wrote, else None
    path: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps flatmin's layer functions and records spans until restored."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "flatmin_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import flatmin.cli  # noqa: F401  (imports every traced layer)

        modules = [
            m for name, m in list(sys.modules.items())
            if name == "flatmin" or name.startswith("flatmin.")
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"flatmin.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

        submit = ThreadPoolExecutor.submit

        @functools.wraps(submit)
        def submit_in_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        self._patched.append((ThreadPoolExecutor, "submit", submit))
        ThreadPoolExecutor.submit = submit_in_context

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        ids, current, spans = self._ids, self._current, self.spans
        clock, thread_id = time.perf_counter, threading.get_ident
        writes = name == _CSV_WRITER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                path = str(args[0]) if writes and args else None
                spans.append(Span(span_id, name, thread_id(), parent, start, end, path))

        return traced


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on any thread count, each clipped to the parent's interval, so
    two overlapping pool threads under one span are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def subtree(spans: list[Span], root_id: int) -> list[Span]:
    """``root_id``'s span and every span below it."""
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s.id] = s
        if s.parent is not None:
            children[s.parent].append(s.id)
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(children.get(sid, ()))
    return out
