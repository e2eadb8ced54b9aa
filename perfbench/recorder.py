"""Span and counter recorder for the benchmark's traced run.

`install` wraps the public functions of every paraflux module (the names in
each module's `__all__` that the module defines) wherever they are bound,
including re-bound names such as `paraflux.audit.decompose_product` and
`paraflux.cli.dump_decomposition`, plus the classmethods
`Field.from_spectral` and `Field.from_physical`.  It also wraps the
`numpy.fft` transforms to count FFT calls and transformed points.  Every
wrapped call records one span (name, start, end, parent); a span's layer is
the module its function comes from.  Padded-array bytes are computed from
array shapes, not measured.

Nothing here is imported by untraced runs, so they execute the program
unmodified.  The recorder assumes one thread (PARAFLUX_THREADS=1).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("grid", "fldio", "dyadic", "norms", "paraproduct", "testbank",
          "hypotheses", "audit", "cli")

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                 "ihfft")

COMPLEX_BYTES = 16

# span fields, in the order they are stored and written
NAME, START, END, PARENT, FFT_CALLS, FFT_POINTS, ATTRS = range(7)


class Recorder:
    """In-memory span table; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0, 0,
                           None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def count_fft(self, points):
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[FFT_CALLS] += 1
            span[FFT_POINTS] += points

    def set(self, idx, **attrs):
        span = self.spans[idx]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        span[ATTRS].update(attrs)

    def outermost(self, idx):
        """True when no ancestor span belongs to the same layer."""
        layer = layer_of(self.spans[idx][NAME])
        p = self.spans[idx][PARENT]
        while p >= 0:
            if layer_of(self.spans[p][NAME]) == layer:
                return False
            p = self.spans[p][PARENT]
        return True

    def wrap(self, name, fn, hook=None):
        rec = self

        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, idx, args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def dump(self, path, run_id):
        """Write one JSON line per span: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"run": run_id, "id": i, "name": s[NAME],
                       "start": s[START], "end": s[END],
                       "parent": None if s[PARENT] < 0 else s[PARENT],
                       "fft_calls": s[FFT_CALLS],
                       "fft_points": s[FFT_POINTS]}
                if s[ATTRS]:
                    row["attrs"] = s[ATTRS]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def layer_of(name):
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Hooks: counters attached to a span after its call returns.


def _padded_bytes(fields):
    """Bytes of one complex array on the lattice padded m-fold per axis."""
    m = len(fields)
    return COMPLEX_BYTES * math.prod(m * s for s in fields[0].grid.sizes)


def _dealiased(rec, idx, args, out):
    fields = args[0]
    if len(fields) > 1:
        one = _padded_bytes(fields)
        # live at once: the running product and the next padded factor;
        # allocated in total: one padded array per factor
        rec.set(idx, padded_bytes_peak=2 * one,
                padded_bytes_total=len(fields) * one)


def _pi2_terms(rec, idx, args, out):
    fields, system = args[0], args[1]
    blocks = len(fields) * (system.jmax + 1)
    one = _padded_bytes(fields)
    # every padded block of every factor is held at once
    rec.set(idx, pi2_tuples=(system.jmax + 1) ** len(fields),
            padded_bytes_peak=blocks * one,
            padded_bytes_total=blocks * one)


def _decompose_product(rec, idx, args, out):
    import numpy as np
    terms = out.pi1_bands.values()
    rec.set(idx, band_terms=len(terms),
            band_terms_empty=sum(1 for t in terms if not np.any(t.spectral)))


def _blocks(rec, idx, args, out):
    rec.set(idx, blocks=len(out))


def _file_bytes(key):
    def hook(rec, idx, args, out):
        rec.set(idx, **{key: os.path.getsize(args[0])})
    return hook


def _field_count(out):
    """Fields in a generator's result: a Field, a BankEntry, or lists and
    tuples of them."""
    if isinstance(out, (list, tuple)):
        return sum(_field_count(x) for x in out)
    return int(hasattr(out, "spectral") or hasattr(out, "field"))


def _fields(rec, idx, args, out):
    if rec.outermost(idx):
        rec.set(idx, fields=_field_count(out))


def _records(rec, idx, args, out):
    if not rec.outermost(idx):
        return
    verdicts = [r.verdict for r in out.records]
    rec.set(idx, records=len(verdicts),
            records_skipped=verdicts.count("skipped"),
            records_fail=verdicts.count("fail"))


HOOKS = {
    "paraproduct.dealiased_product": _dealiased,
    "paraproduct.pi2_direct_terms": _pi2_terms,
    "paraproduct.decompose_product": _decompose_product,
    "dyadic.decompose": _blocks,
    "fldio.write_field": _file_bytes("bytes_written"),
    "fldio.read_field": _file_bytes("bytes_read"),
    "audit.run_audit_manifest": _records,
    "audit.lemma_suite": _records,
}


def install(rec):
    """Wrap paraflux's public functions and numpy's FFTs to record spans."""
    import numpy.fft as npfft
    import paraflux
    import paraflux.cli  # noqa: F401  (loads the cli layer)

    modules = {layer: sys.modules["paraflux." + layer] for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = "%s.%s" % (layer, attr)
                hook = HOOKS.get(name)
                if hook is None and layer == "testbank":
                    hook = _fields
                wrapped[fn] = rec.wrap(name, fn, hook)

    for mod in [paraflux] + list(modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])

    field_cls = modules["grid"].Field
    for attr in ("from_spectral", "from_physical"):
        fn = field_cls.__dict__[attr].__func__
        setattr(field_cls, attr,
                classmethod(rec.wrap("grid.Field." + attr, fn)))

    for attr in FFT_FUNCTIONS:
        setattr(npfft, attr, _fft_counter(rec, getattr(npfft, attr)))


def _fft_counter(rec, fn):
    import numpy as np

    def wrapper(a, *args, **kwargs):
        rec.count_fft(int(np.size(a)))
        return fn(a, *args, **kwargs)

    return functools.wraps(fn)(wrapper)


# ---------------------------------------------------------------------------
# Aggregation


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Span duration minus the time its child spans cover, per span."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer totals from a span table (as written by Recorder.dump).

    For each layer: self_s sums self times; total_s sums the durations of
    the outermost spans of the layer; calls counts every span; fft_calls
    and fft_points count FFTs issued anywhere below an outermost span
    (inclusive of child spans); attribute counters are summed, except
    padded_bytes_peak, which is the maximum.
    """
    n = len(spans)
    own = self_times(spans)
    layers = [layer_of(s["name"]) for s in spans]
    incl_calls = [s["fft_calls"] for s in spans]
    incl_points = [s["fft_points"] for s in spans]
    for i in range(n - 1, -1, -1):
        p = spans[i]["parent"]
        if p is not None:
            incl_calls[p] += incl_calls[i]
            incl_points[p] += incl_points[i]

    # bitmask of the layers of each span's ancestors
    bit = {layer: 1 << k for k, layer in enumerate(sorted(set(layers)))}
    above = [0] * n
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is not None:
            above[i] = above[p] | bit[layers[p]]

    out = {}
    for i, s in enumerate(spans):
        m = out.setdefault(layers[i], {
            "self_s": 0.0, "total_s": 0.0, "calls": 0, "fft_calls": 0,
            "fft_points": 0})
        m["self_s"] += own[i]
        m["calls"] += 1
        if not above[i] & bit[layers[i]]:
            m["total_s"] += s["end"] - s["start"]
            m["fft_calls"] += incl_calls[i]
            m["fft_points"] += incl_points[i]
        for key, value in (s.get("attrs") or {}).items():
            if key == "padded_bytes_peak":
                m[key] = max(m.get(key, 0), value)
            else:
                m[key] = m.get(key, 0) + value
    return out


def named_time(spans, name):
    """Summed duration of the spans called `name`, outermost ones only."""
    total = 0.0
    inside = set()
    for i, s in enumerate(spans):
        p = s["parent"]
        if s["name"] == name:
            if p not in inside:
                total += s["end"] - s["start"]
            inside.add(i)
        elif p in inside:
            inside.add(i)
    return total
