"""Span recorder that times calls into ediqkd's layers from outside.

Wrappers are installed on every module attribute bound to a traced
function (``from .photonic import effective_stats`` makes a second
binding in ``simulate``; the package ``__init__`` makes a third), so no
call path escapes the count.  Nothing under ``src/`` is modified: the
originals are put back by ``Tracer.uninstall``.

Spans are kept in memory as tuples and written out once, at the end.
Each span carries its name, start, end, parent span id and the id of
the top-level operation (a search, a table row, a curve point, a
session) that caused it.  Functions listed in ``COUNTED`` are called
hundreds of thousands of times per search; they get a counter only, so
their time stays inside the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

#: traced functions: (module, function) -> span name.  eve_information's
#: span name is split further by its p_noise argument (see _eve_label).
SPANNED = {
    ("ediqkd.photonic", "required_efficiency"): "photonic.required_efficiency",
    ("ediqkd.photonic", "optimized_rate"): "photonic.optimized_rate",
    ("ediqkd.photonic", "rate_with_imperfections"): "photonic.rate_with_imperfections",
    ("ediqkd.photonic", "effective_stats"): "photonic.effective_stats",
    ("ediqkd.photonic", "efactor_vs_efficiency"): "photonic.efactor_vs_efficiency",
    ("ediqkd.keyrate", "efficiency_factor"): "keyrate.efficiency_factor",
    ("ediqkd.keyrate", "min_key_rounds"): "keyrate.min_key_rounds",
    ("ediqkd.keyrate", "finite_rate_ediqkd"): "keyrate.finite_rate_ediqkd",
    ("ediqkd.keyrate", "finite_rate_diqkd"): "keyrate.finite_rate_diqkd",
    ("ediqkd.adversary", "eve_information"): "adversary.eve_information",
    ("ediqkd.adversary", "secrecy_distance"): "adversary.secrecy_distance",
    ("ediqkd.tomography", "process_matrix_2q"): "tomography.process_matrix_2q",
    ("ediqkd.simulate", "run_session"): "simulate.run_session",
    ("ediqkd.simulate", "iid_block_check"): "simulate.iid_block_check",
    ("ediqkd.classical_bound", "maximize_fgc"): "classical_bound.maximize_fgc",
    ("ediqkd.classical_bound", "cached_fgc"): "classical_bound.cached_fgc",
}

#: counted-only functions: (module, function) -> counter name
COUNTED = {
    ("ediqkd.tomography", "process_matrix_1q"): "tomography.process_matrix_1q",
    ("ediqkd.linalg", "projector"): "linalg.projector",
    ("ediqkd.linalg", "von_neumann_entropy"): "linalg.von_neumann_entropy",
}

EVE = "adversary.eve_information"


def _eve_label(args, kwargs):
    """(span name, argument key) of one eve_information(q, model, clone, p_noise) call."""
    q = args[0] if args else kwargs["q"]
    model = args[1] if len(args) > 1 else kwargs.get("model", "numeric")
    clone = args[2] if len(args) > 2 else kwargs.get("clone")
    p_noise = args[3] if len(args) > 3 else kwargs.get("p_noise", 0.0)
    suffix = "pnoise" if p_noise > 0 else "p0"
    return f"{EVE}.{suffix}", (q, model, clone, p_noise)


def bindings(orig):
    """Every (module, attribute) in the process bound to the object `orig`."""
    found = []
    for mod in list(sys.modules.values()):
        d = getattr(mod, "__dict__", None)
        if not isinstance(d, dict):
            continue
        for attr, val in list(d.items()):
            if val is orig:
                found.append((mod, attr))
    return found


def originals():
    """{(module, function): function object} for every traced target."""
    return {
        key: getattr(importlib.import_module(key[0]), key[1])
        for key in (*SPANNED, *COUNTED)
    }


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, error, key, extra)
        self.counts = {}
        self._stack = []
        self._op = None
        self._next_id = 0
        self._installed = []  # (module, attr, original)

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _span(self, name, fn, args, kwargs, key=None):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = False
        extra = None
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
            extra = getattr(res, "vertices_checked", None)  # maximize_fgc's search work
            return res
        except Exception:
            error = True
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self._op, error, key, extra))

    def _wrap_span(self, fn, name):
        if name == EVE:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label, key = _eve_label(args, kwargs)
                return self._span(label, fn, args, kwargs, key)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every binding of every traced function by its wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for key, orig in originals().items():
            if key in SPANNED:
                wrapper = self._wrap_span(orig, SPANNED[key])
            else:
                wrapper = self._wrap_count(orig, COUNTED[key])
            for mod, attr in bindings(orig):
                setattr(mod, attr, wrapper)
                self._installed.append((mod, attr, orig))

    def uninstall(self):
        """Put every original binding back."""
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed = []

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self, name):
        """A top-level operation: a root span whose id tags every span under it."""
        sid = self._new_id()
        self._op = sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.spans.append((sid, f"op.{name}", t0, t1, None, sid, False, None, None))

    def write_jsonl(self, path):
        """One JSON object per span; the argument key is written as its repr."""
        fields = ("id", "name", "start", "end", "parent", "op", "error", "key", "extra")
        with open(path, "w") as f:
            for span in self.spans:
                row = dict(zip(fields, span))
                if row["key"] is not None:
                    row["key"] = repr(row["key"])
                f.write(json.dumps(row) + "\n")


class NullRecorder:
    """Stand-in for Tracer on untraced runs: operations are not recorded."""

    @staticmethod
    def op(name):
        return contextlib.nullcontext()


def layer_stats(spans, counts):
    """Per-layer metrics {name: (value, unit)} of one traced pass."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    groups = {}
    for s in spans:
        groups.setdefault(s[1], []).append(s)

    out = {}
    names = [n for n in SPANNED.values() if n != EVE] + [f"{EVE}.p0", f"{EVE}.pnoise"]
    for name in names:
        group = groups.get(name, [])
        durations = [s[3] - s[2] for s in group]
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.total_s"] = (sum(durations), "s")
        out[f"{name}.self_s"] = (sum(d - child_time.get(s[0], 0.0) for s, d in zip(group, durations)), "s")
        out[f"{name}.ms_p50"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms")
    for name in COUNTED.values():
        out[f"{name}.calls"] = (counts.get(name, 0), "count")

    def ancestor_named(span, name):
        parent = span[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == name:
                return p
            parent = p[4]
        return None

    searches = len(groups.get("photonic.required_efficiency", []))
    steps = sum(
        1 for s in groups.get("photonic.optimized_rate", [])
        if ancestor_named(s, "photonic.required_efficiency") is not None
    )
    out["photonic.required_efficiency.steps"] = (steps / searches if searches else 0.0, "count")
    out["photonic.rate_with_imperfections.errors"] = (
        sum(1 for s in groups.get("photonic.rate_with_imperfections", []) if s[6]), "count")

    mkr = len(groups.get("keyrate.min_key_rounds", []))
    evals = sum(
        1 for n in ("keyrate.finite_rate_ediqkd", "keyrate.finite_rate_diqkd")
        for s in groups.get(n, []) if ancestor_named(s, "keyrate.min_key_rounds") is not None
    )
    out["keyrate.min_key_rounds.rate_evals_per_call"] = (evals / mkr if mkr else 0.0, "count")

    for suffix in ("p0", "pnoise"):
        group = groups.get(f"{EVE}.{suffix}", [])
        distinct = len({s[7] for s in group})
        out[f"{EVE}.{suffix}.distinct_ratio"] = (distinct / len(group) if group else 0.0, "ratio")

    fgc = groups.get("classical_bound.maximize_fgc", [])
    out["classical_bound.maximize_fgc.ms"] = (
        1e3 * statistics.median([s[3] - s[2] for s in fgc]) if fgc else 0.0, "ms")
    out["classical_bound.maximize_fgc.vertices"] = (fgc[0][8] if fgc else 0, "count")
    cached = groups.get("classical_bound.cached_fgc", [])
    misses = {s[4] for s in fgc}
    hits = sum(1 for s in cached if s[0] not in misses)
    out["classical_bound.cached_fgc.hit_ratio"] = (hits / len(cached) if cached else 0.0, "ratio")
    return out
