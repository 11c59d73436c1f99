"""Spans around revlogic's public functions, recorded from outside.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper
that records a span: name, start, end, parent span and request id.
``from .x import y`` copies a function into the importing module, so a
module-level function is replaced on every ``revlogic`` module that binds
it (``verify_bcd_adder`` lives in ``designs``, ``cli`` and the package).
Methods are replaced on their class. ``restore`` puts every original back,
and ``install`` may be called again after it.

Spans stay in memory until ``write`` saves them. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced function, in report order.
TRACED = (
    ("gates", "catalog_by_name"),
    ("netlist", "new_circuit"),
    ("netlist", "CircuitBuilder.add_gate"),
    ("netlist", "CircuitBuilder.seal"),
    ("netlist", "Circuit.simulate"),
    ("netlist", "Circuit.mapping"),
    ("designs", "build_bcd_adder_n"),
    ("designs", "encode_bcd_operands"),
    ("designs", "decode_bcd_result"),
    ("designs", "oracle_bcd_add_number"),
    ("designs", "verify_bcd_adder"),
    ("metrics", "analyze"),
    ("metrics", "delay"),
    ("netlist_text", "parse_netlist"),
    ("netlist_text", "elaborate"),
    ("netlist_text", "emit_netlist"),
    ("cli", "main"),
)

REQUEST = "request"


class Tracer:
    """Wraps the traced functions of one process and collects their spans."""

    def __init__(self):
        self.names: list[str] = [REQUEST]
        # (name index, start, end, parent span index or -1, request id)
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.request)

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED; call ``restore`` to undo. The
        wrappers are made on the first call and reused after it."""
        if not self._patches:
            self._make_patches()
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def _make_patches(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "revlogic" or name.startswith("revlogic.")]
        for module_name, qualname in TRACED:
            owner = sys.modules[f"revlogic.{module_name}"]
            *cls, attr = qualname.split(".")
            self.names.append(f"{module_name}.{qualname}")
            name_id = len(self.names) - 1
            if cls:
                klass = getattr(owner, cls[0])
                original = klass.__dict__[attr]
                self._patches.append((klass, attr, original, self._wrap(name_id, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            for module in package:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original, wrapper))

    def restore(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def run_request(self, request_id: int, fn, *args):
        """Call ``fn(*args)`` inside a root span for request ``request_id``."""
        self.request = request_id
        return self._wrap(0, fn)(*args)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, self seconds and share of request time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            own[name_id] += end - start - child[index]
        request_s = sum(end - start for name_id, start, end, _, _ in self.spans
                        if name_id == 0)
        return {
            name: {"calls": calls[i], "self_s": own[i],
                   "share": own[i] / request_s if request_s else 0.0}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Save every span as CSV, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            for index, (name_id, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{index},{self.names[name_id]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{request}\n")
