"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps public names of the engine from the outside: nothing
in the engine knows it is traced.  Each call of a wrapped name records
one span ``(id, name, start, end, parent, request)``; all spans of one
program analysis share the request id.  A span's self time is its
duration minus the time its child spans cover, accumulated as calls
return.  Counters are read at the same boundaries, from arguments and
results.

Aggregates cover every span.  The spans themselves are kept in memory
up to ``SPAN_LIMIT`` per pass, which bounds the tracer's memory and the
size of the file they are written to.

A name that no longer exists is reported as missing, never raised: the
roadmap renames and deletes API such as ``evaluate``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = "cli.run"
SPAN_LIMIT = 200_000

# (traced name, layer, owner "module" or "module:Class", attribute, extra
# modules that import the same function by name and must be patched too)
TARGETS = (
    ("frontend.parse", "frontend", "mwpflow.frontend", "parse", ("mwpflow.cli",)),
    ("analysis.analyze_program", "analysis", "mwpflow.analysis", "analyze_program",
     ("mwpflow.cli",)),
    ("ChoiceMatrix.__mul__", "polynomial", "mwpflow.polynomial:ChoiceMatrix", "__mul__", ()),
    ("ChoiceMatrix.__add__", "polynomial", "mwpflow.polynomial:ChoiceMatrix", "__add__", ()),
    ("ChoiceMatrix.closure", "polynomial", "mwpflow.polynomial:ChoiceMatrix", "closure", ()),
    ("ChoiceMatrix.evaluate", "polynomial", "mwpflow.polynomial:ChoiceMatrix", "evaluate", ()),
    ("Polynomial.__mul__", "polynomial", "mwpflow.polynomial:Polynomial", "__mul__", ()),
    ("Polynomial.__add__", "polynomial", "mwpflow.polynomial:Polynomial", "__add__", ()),
    ("Polynomial.of", "polynomial", "mwpflow.polynomial:Polynomial", "of", ()),
    ("Polynomial.scale", "polynomial", "mwpflow.polynomial:Polynomial", "scale", ()),
    ("Polynomial.evaluate", "polynomial", "mwpflow.polynomial:Polynomial", "evaluate", ()),
    ("DeltaGraph.insert", "delta_graph", "mwpflow.delta_graph:DeltaGraph", "insert", ()),
    ("DeltaGraph.fuse", "delta_graph", "mwpflow.delta_graph:DeltaGraph", "fuse", ()),
    ("DeltaGraph.find_uncovered", "delta_graph", "mwpflow.delta_graph:DeltaGraph",
     "find_uncovered", ()),
    ("DeltaGraph.is_complete", "delta_graph", "mwpflow.delta_graph:DeltaGraph",
     "is_complete", ()),
    ("DeltaGraph.covered", "delta_graph", "mwpflow.delta_graph:DeltaGraph", "covered", ()),
    ("cli.emit_json", "cli", "mwpflow.cli", "emit_json", ()),
)

# Semiring work runs inside ChoiceMatrix.evaluate and is counted there.
LAYERS = ("frontend", "analysis", "polynomial", "delta_graph", "cli")
LAYER_OF = {name: layer for name, layer, *_ in TARGETS} | {ROOT: "cli"}

# Metric -> traced names whose self time it sums.
SELF_TIME_GROUPS = {
    "polynomial.canon_s": ("Polynomial.of", "Polynomial.__add__", "Polynomial.scale"),
    "polynomial.product_s": ("Polynomial.__mul__", "ChoiceMatrix.__mul__",
                             "ChoiceMatrix.__add__"),
    "polynomial.evaluate_s": ("ChoiceMatrix.evaluate", "Polynomial.evaluate"),
    "delta_graph.insert_s": ("DeltaGraph.insert", "DeltaGraph.fuse"),
    "delta_graph.search_s": ("DeltaGraph.find_uncovered", "DeltaGraph.is_complete"),
    "delta_graph.covered_s": ("DeltaGraph.covered",),
    "frontend.parse_s": ("frontend.parse",),
    "analysis.self_s": ("analysis.analyze_program",),
    "cli.emit_s": ("cli.emit_json",),
}

def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _monomials(poly) -> int:
    return len(poly.monomials)


class Tracer:
    """Span recorder; ``install`` patches the engine, ``remove`` restores it."""

    def __init__(self):
        self.names = [ROOT] + [t[0] for t in TARGETS]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.request = 0
        self.self_time: defaultdict[int, float] = defaultdict(float)
        self.total_time: defaultdict[int, float] = defaultdict(float)
        self.calls: defaultdict[int, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and aggregates of the previous pass."""
        self.span_ids = array("q")
        self.span_names = array("q")
        self.span_parents = array("q")
        self.span_requests = array("q")
        self.span_times = array("d")  # start, end pairs
        self._next_id = 1
        self._stack = [(0, -1)]  # (span id, name index); 0 is "no parent"
        self._child = [0.0]
        # Cleared in place: the wrappers hold references to these.
        self.self_time.clear()
        self.total_time.clear()
        self.calls.clear()
        self.counts.clear()

    def _enter(self, idx: int) -> float:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append((sid, idx))
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        sid, _ = self._stack.pop()
        child = self._child.pop()
        duration = t1 - t0
        self._child[-1] += duration
        self.self_time[idx] += duration - child
        self.total_time[idx] += duration
        self.calls[idx] += 1
        if len(self.span_ids) >= SPAN_LIMIT:
            return
        self.span_ids.append(sid)
        self.span_names.append(idx)
        self.span_parents.append(self._stack[-1][0])
        self.span_requests.append(self.request)
        self.span_times.append(t0)
        self.span_times.append(t1)

    def _parent_is(self, name: str) -> bool:
        return self._stack[-2][1] == self._index[name]

    def request_span(self, fn, *args):
        """Run one program analysis as the root span of a new request."""
        self.request += 1
        idx = self._index[ROOT]
        t0 = self._enter(idx)
        try:
            return fn(*args)
        finally:
            self._exit(idx, t0)

    # -- patching ----------------------------------------------------------

    def _hooks(self, name: str):
        """Counter hook run inside the span: (args, result) -> None."""
        c = self.counts

        def canon_of(args, result):
            c["canon_monomials_in"] += len(args[1])
            c["canon_monomials_out"] += _monomials(result)

        def canon(args, result):
            c["canon_monomials_in"] += sum(map(_monomials, args[:2]))
            c["canon_monomials_out"] += _monomials(result)

        def canon_one(args, result):
            c["canon_monomials_in"] += _monomials(args[0])
            c["canon_monomials_out"] += _monomials(result)

        def matrix(args, result):
            widest = max((_monomials(p) for row in result.entries for p in row), default=0)
            c["max_entry_monomials"] = max(c["max_entry_monomials"], widest)

        def matrix_mul(args, result):
            matrix(args, result)
            if self._parent_is("ChoiceMatrix.closure"):
                c["closure_rounds"] += 1

        def scanned(args, result):
            if self._parent_is("analysis.analyze_program"):
                c["assignments_scanned"] += 1

        def program(args, result):
            for f in result:
                c["choices"] += len(f.registry)
                c["assignments_total"] += f.total_assignments
                c["vertices_final"] += len(f.graph)
                if f.clean_count is not None:
                    c["clean_assignments"] += f.clean_count
                    c["clean_base"] += f.total_assignments

        def emitted(args, result):
            c["report_bytes"] += len(result)

        return {
            "Polynomial.of": canon_of,
            "Polynomial.__add__": canon,
            "Polynomial.scale": canon_one,
            "ChoiceMatrix.__mul__": matrix_mul,
            "ChoiceMatrix.closure": matrix,
            "ChoiceMatrix.evaluate": scanned,
            "DeltaGraph.covered": scanned,
            "analysis.analyze_program": program,
            "cli.emit_json": emitted,
        }.get(name)

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        hook = self._hooks(name)
        enter, leave = self._enter, self._exit
        # Polynomial.of consumes an iterator; a list lets its hook count it.
        materialize = name == "Polynomial.of"

        def wrapper(*args, **kwargs):
            t0 = enter(idx)
            try:
                if materialize and len(args) > 1:
                    args = (args[0], list(args[1]), *args[2:])
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(args, result)
                    except (AttributeError, IndexError, TypeError):
                        self._note_missing(f"{name} counters")
                return result
            finally:
                leave(idx, t0)
        return wrapper

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        self.missing = []
        for name, _layer, owner_spec, attr, aliases in TARGETS:
            try:
                owner = _owner(owner_spec)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._patch(owner, attr, raw, patched)
            for alias in aliases:
                module = importlib.import_module(alias)
                if getattr(module, attr, None) is raw:
                    self._patch(module, attr, raw, patched)

    def _patch(self, owner, attr: str, original, value) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for idx, t in self.self_time.items():
            out[LAYER_OF[self.names[idx]]] += t
        return out

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``reset``."""
        by_name = {self.names[i]: t for i, t in self.self_time.items()}
        calls = {self.names[i]: n for i, n in self.calls.items()}
        c = self.counts
        m = {metric: sum(by_name.get(n, 0.0) for n in group)
             for metric, group in SELF_TIME_GROUPS.items()}
        m["polynomial.closure_s"] = self.total_time[self._index["ChoiceMatrix.closure"]]
        layers = self.layer_self_times()
        for layer in ("polynomial", "delta_graph", "cli"):
            m[f"{layer}.self_s"] = layers[layer]
        m["polynomial.canon_monomials_in"] = c["canon_monomials_in"]
        m["polynomial.canon_monomials_out"] = c["canon_monomials_out"]
        m["polynomial.canon_keep_ratio"] = (
            c["canon_monomials_out"] / c["canon_monomials_in"]
            if c["canon_monomials_in"] else 1.0
        )
        m["polynomial.poly_mul_calls"] = calls.get("Polynomial.__mul__", 0)
        m["polynomial.matrix_mul_calls"] = calls.get("ChoiceMatrix.__mul__", 0)
        m["polynomial.closure_rounds"] = c["closure_rounds"]
        m["polynomial.max_entry_monomials"] = c["max_entry_monomials"]
        m["analysis.assignments_scanned"] = c["assignments_scanned"]
        m["analysis.assignments_total"] = c["assignments_total"]
        m["analysis.clean_ratio"] = (
            c["clean_assignments"] / c["clean_base"] if c["clean_base"] else 0.0
        )
        m["analysis.choices"] = c["choices"]
        m["delta_graph.inserts"] = calls.get("DeltaGraph.insert", 0)
        m["delta_graph.vertices_final"] = c["vertices_final"]
        m["cli.report_bytes"] = c["report_bytes"]
        m["trace.spans"] = sum(self.calls.values())
        m["trace.missing_names"] = len(self.missing)
        return m

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t = self.span_times
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"# {len(self.span_ids)} of {sum(self.calls.values())} spans\n")
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for k, sid in enumerate(self.span_ids):
                fh.write(
                    f"{sid}\t{self.names[self.span_names[k]]}\t{t[2 * k]:.9f}\t"
                    f"{t[2 * k + 1]:.9f}\t{self.span_parents[k]}\t{self.span_requests[k]}\n"
                )
