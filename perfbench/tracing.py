"""Spans recorded from outside the package by wrapping module attributes.

A hook replaces `module.attr` with a timing wrapper for as long as the tracer
is installed.  Python resolves a module-level name at call time, so wrapping
the name under which the *calling* module looks a function up (for example
`qsysid.inference.prepare_propagator`, which the scorer calls) times every
call made through that name without touching the package's files.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: name, interval, enclosing span (index) and observations."""

    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap `module.attr`, recording spans called `name`.

    `observe(args, kwargs, result)` returns extra attributes to store on the
    span (a count, a chosen method, a file size); it runs after the span is
    closed, so its cost is not charged to the span.
    """

    module: str
    attr: str
    name: str
    observe: object = None


def self_time(span: Span, children) -> float:
    """Span duration minus the part of its interval that child spans cover.

    Child intervals are clipped to the span and merged, so overlapping or
    nested children are not subtracted twice.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


class Tracer:
    """In-memory span recorder plus the install/restore of hooks."""

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, hook: Hook):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(hook.name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                self.spans[index].attrs["error"] = type(exc).__name__
                raise
            self._close(index)
            if hook.observe is not None:
                self.spans[index].attrs.update(hook.observe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr)
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(original, hook))

    def restore(self) -> None:
        """Put every original back; raise if any name is left wrapped."""
        saved, self._saved = self._saved, []
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        leftover = [
            f"{module.__name__}.{attr}"
            for module, attr, original in saved
            if getattr(module, attr) is not original
        ]
        if leftover:
            raise RuntimeError(f"hooks not restored: {', '.join(leftover)}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **s.attrs,
            }
            for s in self.spans
        ]
