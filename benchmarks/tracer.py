"""Per-layer tracing of tnnflag from outside the package.

The tracer wraps named public functions of the layer modules and patches
every namespace that holds the original object, so calls made inside the
package (``twisted.from_perm``, ``posets.qnode_leq``, the recursive
``self.bruhat_leq``) go through the wrapper as well.  Each wrapped call is
a span; its self time is its duration minus the durations of the wrapped
calls it made directly.  A recursive call is its own child span, so
recursion is never counted twice.

Aggregates (calls and self time per function) cover every call.  Span
records are kept only where a call crosses from one layer into another
(the harness counts as a layer), up to ``SPAN_CAP`` of them, and are
written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# layer -> (owner path, function names); an owner path "Class" patches a
# class attribute, "" patches the module-level function.
TARGETS = {
    "weyl": [
        ("WeylGroup", ("bruhat_leq", "multiply", "lower_interval", "demazure",
                       "m_star", "positive_subexpression")),
        ("", ("positive_tuple", "from_perm")),
    ],
    "posets": [
        ("", ("build_interval", "qnode_leq", "is_pure", "is_thin", "is_eulerian",
              "mobius", "find_shelling", "open_boundary_euler")),
        ("FacePoset", ("covers",)),
    ],
    "ratlin": [("", ("mat_mul", "mat_inv", "rank", "det"))],
    "slk": [("", ("sdot", "w0_dot", "bruhat_cell", "opposite_cell", "mr_matrix", "is_tnn"))],
    "twisted": [("", ("parametrize_cell", "stratum", "phi_Z", "gauge_eq", "db_positive"))],
}

HARNESS = "bench"
# span records kept per run; aggregates cover every call regardless
SPAN_CAP = 100_000


def function_names() -> list[str]:
    """Every traced function as ``<layer>.<name>``, in declaration order."""
    return [
        f"{layer}.{name}"
        for layer, groups in TARGETS.items()
        for _, names in groups
        for name in names
    ]


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.calls = {name: 0 for name in function_names()}
        self.self_s = {name: 0.0 for name in function_names()}
        self.harness_self_s = 0.0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._trace_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str) -> list:
        """Push a frame: [start, child time, layer, span id, recorded ancestor]."""
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[2] != layer:
            recorded = self._next_id  # a layer boundary: this span gets a record
        else:
            recorded = parent[4]
        frame = [0.0, 0.0, layer, self._next_id, recorded]
        self._stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _exit(self, frame: list, name: str) -> float:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        if frame[4] == frame[3]:
            if len(self.spans) < SPAN_CAP:
                parent = self._stack[-1][4] if self._stack else 0
                self.spans.append((self._trace_id, frame[3], parent, name, frame[0], end))
            else:
                self.spans_dropped += 1
        return dur - frame[1]

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        enter, leave = self._enter, self._exit
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self_s[key] += leave(frame, key)
                calls[key] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, trace_id: int, kind: str, fn):
        """Run ``fn`` as the harness span of one benchmark item."""
        self._trace_id = trace_id
        frame = self._enter(HARNESS)
        try:
            return fn()
        finally:
            self.harness_self_s += self._exit(frame, f"{HARNESS}.{kind}")

    # -- installation -------------------------------------------------------

    def _patch(self, holder, attr: str, new) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def __enter__(self) -> "Tracer":
        import tnnflag  # noqa: F401  (loads every layer module)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tnnflag" or n.startswith("tnnflag."))]
        for layer, groups in TARGETS.items():
            mod = sys.modules[f"tnnflag.{layer}"]
            for owner, names in groups:
                for name in names:
                    if owner:
                        cls = getattr(mod, owner)
                        orig = cls.__dict__[name]
                        if isinstance(orig, property):
                            new = property(self._wrap(layer, name, orig.fget))
                        else:
                            new = self._wrap(layer, name, orig)
                        self._patch(cls, name, new)
                        continue
                    orig = getattr(mod, name)
                    new = self._wrap(layer, name, orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                self._patch(m, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in TARGETS}
        for key, n in self.calls.items():
            layer = key.split(".", 1)[0]
            out[layer][0] += n
            out[layer][1] += self.self_s[key]
        return {layer: (n, s) for layer, (n, s) in out.items()}

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: one header object, then one object per recorded span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans),
                                 "spans_dropped": self.spans_dropped}) + "\n")
            for trace, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
