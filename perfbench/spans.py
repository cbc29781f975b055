"""In-memory spans around the calls into margex's layers.

``Tracer.install`` rebinds each function listed in :data:`layers.SPANS` to a
recording wrapper in every namespace that binds it (the library's own
modules and the benchmark's), and ``Tracer.uninstall`` puts the originals
back. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import ModuleType

from layers import COUNT_HOOKS, SPANS


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self, namespaces: list[ModuleType]) -> None:
        """Wrap every traced function wherever one of ``namespaces`` binds it."""
        for name, module_name, path in SPANS:
            owner: object = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            targets = [owner] if owners else [ns for ns in namespaces if getattr(ns, attr, None) is original]
            for target in targets:
                self._installed.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed.clear()

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Per-name self time and call count, and the summed duration of
        top-level spans. Self time is duration minus the children's spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return self_s, calls, top

    def duration(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start - origin, "end": end - origin, "parent": parent}
                    )
                    + "\n"
                )
