"""In-memory span tracer patched around the package's layer functions.

Spans are recorded only inside a cell (one ``verify.check_*`` call), so
input generation and the benchmark's own bookkeeping never show up as
layer time. Each span is (cell, name, parent, start, end, work), where
``work`` holds the computed work counts of that call. The tracer wraps a
function in every module namespace that holds it, because ``verify``
imports ``eig_sym``, ``laplacian``, ``token_graph``, ``char_poly`` and
``poly_divides`` by name and ``spectra.algebraic_connectivity`` calls
its own module's globals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, attribute, span name)
LAYER_FUNCS = (
    ("token_spectra.tokens", "token_graph", "tokens.token_graph"),
    ("token_spectra.spectra", "laplacian", "spectra.laplacian"),
    ("token_spectra.spectra", "eig_sym", "spectra.eig_sym"),
    ("token_spectra.spectra", "eigenspace_has_equal_pair", "spectra.eigenspace_pair"),
    ("token_spectra.exact", "char_poly", "exact.char_poly"),
    ("token_spectra.exact", "poly_divides", "exact.poly_divides"),
)

# per-layer metrics reported by the traced run; all zero when a layer is not reached
LAYER_METRICS = {
    "tokens.token_graph_s": "s",
    "tokens.token_graph_calls": "count",
    "tokens.token_graph_vertices": "count",
    "tokens.token_graph_edges": "count",
    "graphs.graph_init_s": "s",
    "graphs.graph_init_calls": "count",
    "spectra.laplacian_s": "s",
    "spectra.eigh_s": "s",
    "spectra.eig_sym_self_s": "s",
    "spectra.eig_sym_calls": "count",
    "spectra.eig_sym_order_max": "count",
    "spectra.eig_sym_computed_n3": "count",
    "spectra.eigenspace_pair_s": "s",
    "exact.char_poly_s": "s",
    "exact.char_poly_calls": "count",
    "exact.char_poly_order_max": "count",
    "exact.char_poly_computed_n4": "count",
    "exact.char_poly_computed_coeff_bits_max": "count",
    "exact.poly_divides_s": "s",
    "verify.self_s": "s",
}


def _order(args, kwargs) -> int:
    m = args[0] if args else kwargs["m"]
    return len(m)


def _work(name: str, args, kwargs, result) -> dict:
    """Computed work counts of one call; they repeat exactly for the same inputs."""
    if name == "tokens.token_graph":
        return {"vertices": result.graph.n, "edges": result.graph.m}
    if name == "spectra.eig_sym":
        return {"order": _order(args, kwargs)}
    if name == "exact.char_poly":
        bits = max(abs(c).bit_length() for c in result.coeffs)
        return {"order": _order(args, kwargs), "bits": bits}
    return {}


class Tracer:
    """Records nested spans while installed; restores the originals on uninstall."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._cell = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _begin(self) -> tuple[int, int | None, float]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _end(self, idx: int, parent, name: str, t0: float, t1: float, work: dict) -> None:
        self._stack.pop()
        self.spans[idx] = (self._cell, name, parent, t0, t1, work)

    def cell(self, fn, *args, **kwargs):
        """Run one cell as the root span; the cell's spans share its identifier."""
        self._cell += 1
        idx, parent, t0 = self._begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx, parent, "verify.cell", t0, time.perf_counter(), {})

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx, parent, t0 = tracer._begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                work = {} if result is None else _work(name, args, kwargs, result)
                tracer._end(idx, parent, name, t0, t1, work)

        return traced

    # -- patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer function in every token_spectra namespace holding it."""
        import numpy as np

        from token_spectra import graphs

        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.split(".")[0] == "token_spectra"]
        for mod_name, attr, span_name in LAYER_FUNCS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        self._patch(np.linalg, "eigh", self._wrap("spectra.eigh", np.linalg.eigh))
        self._patch(graphs.Graph, "__post_init__",
                    self._wrap("graphs.graph_init", graphs.Graph.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(spans: list, start: int = 0) -> dict:
    """Per-layer metrics over the whole cells recorded from spans[start] on."""
    incl: dict[str, float] = defaultdict(float)
    child: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    out = dict.fromkeys(LAYER_METRICS, 0)
    for span in spans[start:]:
        _, name, parent, t0, t1, work = span
        dur = t1 - t0
        incl[name] += dur
        calls[name] += 1
        if parent is not None:
            child[spans[parent][1]] += dur
        if name == "tokens.token_graph" and work:
            out["tokens.token_graph_vertices"] += work["vertices"]
            out["tokens.token_graph_edges"] += work["edges"]
        elif name == "spectra.eig_sym" and work:
            n = work["order"]
            out["spectra.eig_sym_order_max"] = max(out["spectra.eig_sym_order_max"], n)
            out["spectra.eig_sym_computed_n3"] += n ** 3
        elif name == "exact.char_poly" and work:
            n = work["order"]
            out["exact.char_poly_order_max"] = max(out["exact.char_poly_order_max"], n)
            out["exact.char_poly_computed_n4"] += n ** 4
            out["exact.char_poly_computed_coeff_bits_max"] = max(
                out["exact.char_poly_computed_coeff_bits_max"], work["bits"])
    out["tokens.token_graph_s"] = incl["tokens.token_graph"]
    out["tokens.token_graph_calls"] = calls["tokens.token_graph"]
    out["graphs.graph_init_s"] = incl["graphs.graph_init"]
    out["graphs.graph_init_calls"] = calls["graphs.graph_init"]
    out["spectra.laplacian_s"] = incl["spectra.laplacian"]
    out["spectra.eigh_s"] = incl["spectra.eigh"]
    out["spectra.eig_sym_self_s"] = incl["spectra.eig_sym"] - child["spectra.eig_sym"]
    out["spectra.eig_sym_calls"] = calls["spectra.eig_sym"]
    out["spectra.eigenspace_pair_s"] = incl["spectra.eigenspace_pair"]
    out["exact.char_poly_s"] = incl["exact.char_poly"]
    out["exact.char_poly_calls"] = calls["exact.char_poly"]
    out["exact.poly_divides_s"] = incl["exact.poly_divides"]
    out["verify.self_s"] = incl["verify.cell"] - child["verify.cell"]
    return out
