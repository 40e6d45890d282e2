"""Spans around the public functions of each ``fracblow`` module.

The wrappers live here, in the benchmark; nothing under ``src/`` changes.
Each boundary function is replaced, in every ``fracblow`` module whose
namespace holds it, by a wrapper that records one span per call: name,
start, end, parent span and the run id.  Spans stay in memory until the
run ends; ``write_spans`` then writes them as JSON lines and
``layer_metrics`` derives the per-layer metrics from them.

Call ``install_fft`` before importing ``fracblow``, so that a module that
binds a transform at import time binds the wrapper, and ``install``
after it.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

#: (span name, module, attribute) of every traced boundary; an attribute
#: "Class.method" is patched on the class
BOUNDARIES = (
    ("cli.main", "fracblow.cli", "main"),
    ("sweep.run_sweep", "fracblow.sweep", "run_sweep"),
    ("evolution.evolve", "fracblow.evolution", "evolve"),
    ("evolution.strang_step", "fracblow.evolution", "strang_step"),
    ("evolution.linear_propagator", "fracblow.evolution", "linear_propagator"),
    ("evolution.nonlinear_step", "fracblow.evolution", "nonlinear_step"),
    ("evolution.spectral_tail_fraction", "fracblow.evolution", "spectral_tail_fraction"),
    ("grid.abs_freq", "fracblow.grid", "GridSpec.abs_freq"),
    ("grid.radii", "fracblow.grid", "GridSpec.radii"),
    ("grid.sup_norm", "fracblow.grid", "Field.sup_norm"),
    ("blowup.blowup_radius", "fracblow.blowup", "blowup_radius"),
    ("blowup.make_initial_data", "fracblow.blowup", "make_initial_data"),
    ("blowup.compute_constants", "fracblow.blowup", "compute_constants"),
    ("lemma.verify", "fracblow.lemma", "verify_lemma"),
    ("lemma.verify", "fracblow.lemma", "verify_gaussian_remark"),
    ("lemma.sample_frac_weight", "fracblow.lemma", "sample_frac_weight"),
    ("lemma.fit_decay", "fracblow.lemma", "fit_decay"),
    ("lemma.estimate_weight_derivative_bound", "fracblow.lemma",
     "estimate_weight_derivative_bound"),
    ("pv.frac_laplacian_pv", "fracblow.pv", "frac_laplacian_pv"),
    ("pv.normalization_constant", "fracblow.pv", "normalization_constant"),
    ("profiles.eval", "fracblow.profiles", "RadialProfile.__call__"),
    ("profiles.eval", "fracblow.profiles", "WeightProfile.__call__"),
    ("reporting.write", "fracblow.reporting", "write_manifest"),
    ("reporting.write", "fracblow.reporting", "save_field"),
    ("reporting.write", "fracblow.lemma", "write_lemma_report"),
    ("reporting.write", "fracblow.sweep", "write_sweep_outputs"),
    ("reporting.write", "fracblow.evolution", "TrajectoryRecord.to_csv"),
)
FFT = "spectral.fft"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
SPAN_NAMES = tuple(dict.fromkeys([b[0] for b in BOUNDARIES] + [FFT]))


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (span id, parent id or -1, name, start, end)
        self.missing: list[str] = []   # boundaries the program no longer has
        self._stack: list[tuple[int, str]] = []
        self.fft_points = 0
        self.fft_flop = 0.0
        self.profile_samples = 0
        self.steps = StepCounter()

    def wrap(self, name: str, fn, after=None):
        """fn with a span per call; a call nested directly in a span of the
        same name (an FFT inside an FFT) is passed through unrecorded."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- per-boundary counters -------------------------------------------
    def count_fft(self, args, kwargs, result):
        m = int(np.size(args[0] if args else kwargs.get("a", kwargs.get("x"))))
        self.fft_points += m
        self.fft_flop += 5.0 * m * math.log2(m) if m > 1 else 0.0

    def count_profile(self, args, kwargs, result):
        self.profile_samples += int(np.size(args[1] if len(args) > 1 else kwargs.get("r")))


class StepCounter:
    """Accepted and rejected time steps, read off the stepper's calls.

    A step whose output is the next step's input was accepted; a step
    retried from its own input was rejected.  The last step of a run was
    accepted if its output is the run's final state.
    """

    def __init__(self):
        self.accepted = self.rejected = 0
        self._last_in = self._last_out = None

    def step(self, args, kwargs, result):
        f = args[0] if args else kwargs.get("f")
        if self._last_in is not None:
            if f is self._last_in and f is not self._last_out:
                self.rejected += 1
            else:
                self.accepted += 1
        self._last_in, self._last_out = f, result

    def run_end(self, args, kwargs, record):
        if self._last_in is not None:
            if getattr(record, "final", None) is self._last_out:
                self.accepted += 1
            else:
                self.rejected += 1
        self._last_in = self._last_out = None


def install_fft(tracer: Tracer) -> None:
    """Wrap the numpy.fft and scipy.fft transforms (before fracblow loads)."""
    for modname in FFT_MODULES:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        for attr in FFT_NAMES:
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, tracer.wrap(FFT, fn, tracer.count_fft))


def install(tracer: Tracer) -> None:
    """Wrap every boundary wherever a fracblow module looks it up."""
    hooks = {"evolution.strang_step": tracer.steps.step,
             "evolution.evolve": tracer.steps.run_end,
             "profiles.eval": tracer.count_profile}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "fracblow" or name.startswith("fracblow."))]
    for name, modname, attr in BOUNDARIES:
        home = sys.modules.get(modname)
        owner, _, method = attr.rpartition(".")
        target = getattr(home, owner, None) if owner else home
        fn = getattr(target, method, None) if target is not None else None
        if fn is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        wrapper = tracer.wrap(name, fn, hooks.get(name))
        if owner:
            setattr(target, method, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"run": tracer.run_id, "span": sid, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(tracer: Tracer, rows: int, rows_failed: int,
                  bytes_written: int) -> dict[str, tuple[float, str]]:
    """Calls and self time per boundary, plus the derived per-layer metrics.

    ``rows`` and ``rows_failed`` count the sweep rows in the outputs (0 for
    other commands); ``bytes_written`` is the size of the output files.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    names = {}
    for sid, parent, name, start, end in tracer.spans:
        names[sid] = name
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start
        if parent >= 0:
            own[names[parent]] -= end - start
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (own[name], "s")

    steps = tracer.steps
    attempted = steps.accepted + steps.rejected
    out["evolution.accepted_steps"] = (steps.accepted, "count")
    out["evolution.rejected_steps"] = (steps.rejected, "count")
    out["evolution.accept_ratio"] = (steps.accepted / attempted if attempted else 0.0, "ratio")
    out["evolution.ms_per_step"] = (
        1e3 * total["evolution.evolve"] / attempted if attempted else 0.0, "ms")
    gflop = tracer.fft_flop / 1e9
    out["spectral.fft.points"] = (tracer.fft_points, "count")
    out["spectral.fft.gflop"] = (gflop, "Gflop")
    out["spectral.fft.gbytes"] = (32.0 * tracer.fft_points / 1e9, "GB")
    out["spectral.fft.gflop_per_s"] = (gflop / total[FFT] if total[FFT] else 0.0, "Gflop/s")
    pv = "pv.frac_laplacian_pv"
    out["pv.ms_per_point"] = (1e3 * total[pv] / calls[pv] if calls[pv] else 0.0, "ms")
    out["profiles.samples"] = (tracer.profile_samples, "count")
    out["sweep.rows"] = (rows, "count")
    out["sweep.rows_failed"] = (rows_failed, "count")
    out["sweep.row_s"] = (total["sweep.run_sweep"] / rows if rows else 0.0, "s")
    out["reporting.bytes_written"] = (bytes_written, "B")
    return out
