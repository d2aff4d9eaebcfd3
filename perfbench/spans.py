"""Span recorder for the traced benchmark pass.

The traced pass rebinds the names `barrelmesh.cli` looks up at call time, so
every call into a layer is recorded from outside the program: name, start,
end, parent span and the cell it belongs to. Spans stay in memory until the
benchmark writes them out at the end.
"""
from __future__ import annotations

from contextlib import contextmanager

# Name in barrelmesh.cli -> layer the span is reported under. The four
# strategy functions share one layer name.
TRACED = {
    "materialize": "cli.materialize",
    "relay_budget": "cli.relay_budget",
    "build_layout": "topology.build_layout",
    "crns_select": "relay_selection.select",
    "all_relays": "relay_selection.select",
    "random_relays": "relay_selection.select",
    "knn_relays": "relay_selection.select",
    "run": "sim_engine.run",
    "summarize": "metrics.summarize",
    "write_node_csv": "metrics.write_node_csv",
}


class Recorder:
    """Spans as [name, start, end, parent index or -1, cell id]."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.cell = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, self.clock(), None, parent, self.cell]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self, module):
        """Rebind the traced names of `module` for the duration of the block."""
        saved = {attr: getattr(module, attr) for attr in TRACED}
        try:
            for attr, layer in TRACED.items():
                setattr(module, attr, self._wrap(layer, saved[attr]))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def layers(self, scales) -> dict[str, dict]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus its children's; calls into a
        layer run one after another, so children never overlap. Times of
        cell i are multiplied by scales[i], and those of spans outside any
        cell by scales[-1].
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, cell), inner in zip(self.spans, child_s):
            scale = scales[-1 if cell is None else cell]
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["total_s"] += scale * (end - start)
            layer["self_s"] += scale * (end - start - inner)
        return out

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "cell": cell}
            for i, (name, start, end, parent, cell) in enumerate(self.spans)
        ]
