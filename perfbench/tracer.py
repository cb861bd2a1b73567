"""Spans and counters recorded around lorachirp's public functions, from outside the package.

`Tracer.install()` replaces every public function of the eight package
modules with a timing wrapper.  A module that imported a function by name
holds its own reference to it (``analysis`` binds ``psd_via_dft`` directly,
``spectrum`` calls ``waveform_fourier_transform`` through its own globals),
so the wrapper is put into every namespace of the package that holds the
original object.  ``IqBuffer.__post_init__`` is wrapped on the class, and
the scipy Fresnel kernel is wrapped to count evaluations without a span.
`uninstall()` puts the originals back.  No library file is changed.

Spans are kept in memory until the run ends: one list entry per call with
its name, start, end, the index of the enclosing span and whether it
returned.  A span's self time is its duration minus the durations of the
spans it directly encloses.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.special

PACKAGE = "lorachirp"
MODULES = ("params", "waveform", "receiver", "correlation", "spectrum",
           "analysis", "iqfile", "cli")

# Span entry fields.
NAME, START, END, PARENT, OK = range(5)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_psd_via_dft(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = a["p"].m
    # psd_via_dft samples each symbol 16*M times unless told otherwise
    n = int(a["n_per_symbol"]) if a["n_per_symbol"] is not None else 16 * m
    bins = n * int(a["zero_pad_factor"])
    counts["spectrum.psd_via_dft.fft_points"] += m * bins
    counts["spectrum.psd_via_dft.fft_bins"] += bins
    counts["spectrum.psd_via_dft.kept_points"] += len(result.grid)


def _count_mask_check(counts, fn, args, kwargs, result):
    for i, seg in enumerate(result.segments):
        counts[f"analysis.mask_check.seg{i}.bins_checked"] += seg.n_bins
        counts[f"analysis.mask_check.seg{i}.bins_spanned"] += round(
            (seg.segment.f_stop_hz - seg.segment.f_start_hz) / seg.segment.rbw_hz)


def _count_file_bytes(counts, fn, args, kwargs, result):
    counts["iqfile.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _count_samples(counts, fn, args, kwargs, result):
    counts["waveform.modulate.samples"] += len(result)


def _count_symbols(counts, fn, args, kwargs, result):
    counts["receiver.demodulate_stream.symbols"] += len(result)


def _count_copy(counts, fn, args, kwargs, result):
    counts["params.IqBuffer.bytes_copied"] += args[0].samples.nbytes


# Work counters computed at the boundary of the function named by the key.
COUNTERS = {
    "spectrum.psd_via_dft": _count_psd_via_dft,
    "analysis.mask_check": _count_mask_check,
    "iqfile.write_iq": _count_file_bytes,
    "iqfile.read_iq": _count_file_bytes,
    "waveform.modulate": _count_samples,
    "receiver.demodulate_stream": _count_symbols,
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[OK] = True
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        done = set()
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or id(fn) in done):
                    continue
                done.add(id(fn))
                name = f"{short}.{attr}"
                self._replace_everywhere(fn, self._wrap(name, fn, COUNTERS.get(name)))

        iq_buffer = importlib.import_module(f"{PACKAGE}.params").IqBuffer
        self._set(iq_buffer, "__post_init__",
                  self._wrap("params.IqBuffer", iq_buffer.__post_init__, _count_copy))

        counts = self.counts
        kernel = scipy.special.fresnel

        def counted_fresnel(x, *args, **kwargs):
            counts["spectrum.fresnel_evals"] += np.size(x)
            return kernel(x, *args, **kwargs)

        self._replace_everywhere(kernel, counted_fresnel)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Duration of each span minus the spans it directly encloses."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-module and per-function figures, averaged over `iterations`."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] += own
            out[f"{module}.calls"] += 1
            out[f"{module}.failed"] += not span[OK]
            out[f"{name}.s"] += span[END] - span[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        for key, value in self.counts.items():
            out[key] += value
        out["trace.spans"] = len(self.spans)
        out = {k: v / iterations for k, v in out.items()}
        bins = out.pop("spectrum.psd_via_dft.fft_bins", 0)
        kept = out.pop("spectrum.psd_via_dft.kept_points", 0)
        out["spectrum.psd_via_dft.kept_frac"] = kept / bins if bins else 0.0
        coverage = []
        while f"analysis.mask_check.seg{len(coverage)}.bins_spanned" in out:
            i = len(coverage)
            coverage.append(out[f"analysis.mask_check.seg{i}.bins_checked"]
                            / out.pop(f"analysis.mask_check.seg{i}.bins_spanned"))
        out["analysis.mask_check.coverage_min"] = min(coverage, default=0.0)
        return out


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds one span wrapper adds to a call, timed on a no-op."""
    def noop():
        return None

    probe = Tracer()._wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        probe()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
