"""Span tracing of sphdiv's public functions, from outside the package.

Tracing wraps each function in TRACED and rebinds the wrapper in every
sphdiv namespace that holds the function, since modules import names
directly (`cli` binds `kappa`, `knoplie` binds `positive_roots`, ...).
Each call records a span: name, start, end, parent span and request id.
Spans stay in memory until the run writes them out.  Nothing is wrapped
unless install() is called, so untraced runs pay nothing.
"""
from __future__ import annotations

import gzip
import json
import sys
import time

TRACED = {
    "rootsys": ["positive_roots"],
    "linalg": ["rref"],
    "datum": ["parse_datum", "validate_datum"],
    "lunatypes": ["resolved_types"],
    "anticanon": ["kappa", "color_coefficient", "enumerate_positive_solutions",
                  "uniqueness_certificate", "cone_generator_directions",
                  "cone_interior_witness"],
    "knoplie": ["make_presentation", "presentation_from_json", "validate_presentation",
                "classify_knop", "image_for_root", "stabilizer_in_parabolic",
                "dphi_project", "bracket", "open_orbit_check"],
    "catalog": ["builtin"],
    "docio": ["load_document", "dump_document"],
    "cli": ["main"],
}

# lru_cache'd functions of knoplie whose hits and misses are reported
CACHES = ["open_orbit_check", "_positive_root_vectors", "_adapted_basis"]


def _rref_cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# extra counts, added where the work happens: metric -> (span, count(args, result))
COUNTS = {
    "linalg.rref.cells": ("linalg.rref", _rref_cells),
    "docio.load_document.bytes": ("docio.load_document", lambda a, r: len(a[0])),
    "anticanon.enumerate_positive_solutions.solutions":
        ("anticanon.enumerate_positive_solutions", lambda a, r: len(r)),
    "rootsys.positive_roots.roots": ("rootsys.positive_roots", lambda a, r: len(r)),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for mod, funcs in TRACED.items():
        for fn in funcs:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.span_s", f"{mod}.{fn}.self_s"]
    names += list(COUNTS)
    names += [f"knoplie.{fn}.{k}" for fn in CACHES for k in ("hits", "misses")]
    names.append("cli.output_bytes")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent index, request]
        self.stack: list[int] = []
        self.request = -1
        self.counts = {k: 0 for k in COUNTS}
        self._counted = {span: [] for span, _ in COUNTS.values()}
        for metric, (span, fn) in COUNTS.items():
            self._counted[span].append((metric, fn))

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counted = self.spans, self.stack, self._counted.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(me)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            for metric, count in counted:
                self.counts[metric] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "sphdiv" or k.startswith("sphdiv.")]
        for short, funcs in TRACED.items():
            home = sys.modules[f"sphdiv.{short}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def aggregate(self) -> dict:
        """calls, span time and self time per traced function."""
        n = len(self.names)
        calls, span_s, child_s = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            calls[idx] += 1
            span_s[idx] += end - start
            if parent >= 0:
                child_s[parent] += end - start
        self_s = [0.0] * n
        for k, (idx, start, end, _, _) in enumerate(self.spans):
            self_s[idx] += end - start - child_s[k]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.span_s"] = span_s[i]
            out[f"{name}.self_s"] = self_s[i]
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "names": self.names, "spans": self.spans}, fh)
