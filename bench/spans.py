"""Per-layer spans recorded from outside the program.

The traced run replaces qvibe's public functions with timing wrappers in
every loaded ``qvibe`` module that holds them, which is where callers
look them up (``qvibe.metrology.quantum_pipeline``, ``qvibe.cli.read_stream``,
...). Spans nest on a stack; a layer's self time is its spans' duration
minus the time of the spans they contain. Every span counts its calls
and the calls that raised; counter hooks run after a span returns and
their time is charged to the tracer, not to any layer.

A name missing from qvibe is skipped with a printed note, so renaming or
merging a function leaves the benchmark running with one layer fewer.
"""

from __future__ import annotations

import importlib
import importlib.abc
import inspect
import os
import sys
import time
from collections import defaultdict

BINARY_MAGIC = b"qvibe-ts\x01"


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_simulate(c, fn, args, kwargs, result, dur):
    from qvibe import simulate

    a = _bound(fn, args, kwargs)
    streams = [result.coincidences, result.anticoincidences] if hasattr(
        result, "coincidences") else [result.port1, result.port2]
    if "pair" in a:
        fx = simulate.quantum_fluxes(a["pair"], a["signal"], a["channel"])
    else:
        fx = simulate.classical_fluxes(a["fringe"], a["signal"], a["channel"])
    c["simulate.events"] += sum(len(s) for s in streams)
    c["simulate.candidates"] += (fx.bound_1 + fx.bound_2) * a["t_exp"]


def _count_project(c, fn, args, kwargs, result, dur):
    a = _bound(fn, args, kwargs)
    n_events = len(a["stream_c"]) + len(a["stream_a"])
    c["estimate.project.event_bins"] += n_events * len(a["frequencies"])


def _count_scan(c, fn, args, kwargs, result, dur):
    c["estimate.scan.seeds"] += len(result.detected)


def _count_refine(c, fn, args, kwargs, result, dur):
    if not result.converged:
        c["estimate.refine.unconverged"] += 1


def _count_reconstruct(c, fn, args, kwargs, result, dur):
    c["estimate.reconstruct.trace_samples"] += result.tau_trace.size


def _count_pipeline(c, fn, args, kwargs, result, dur):
    c["estimate.pipeline.seeds"] += len(result.spectrum.detected)
    if result.reconstruction is not None:
        c["estimate.pipeline.components"] += len(result.reconstruction.components)


def _path_arg(fn, args, kwargs):
    return os.fspath(_bound(fn, args, kwargs)["path"])


def _count_write(c, fn, args, kwargs, result, dur):
    c["streamio.bytes_written"] += os.path.getsize(_path_arg(fn, args, kwargs))


def _count_read(c, fn, args, kwargs, result, dur):
    path = _path_arg(fn, args, kwargs)
    with open(path, "rb") as fh:
        kind = "binary" if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "text"
    size = os.path.getsize(path)
    c["streamio.bytes_read"] += size
    c[f"streamio.{kind}.bytes_read"] += size
    c[f"streamio.{kind}.read_s"] += dur


# (layer, defining module, function names, counter hook)
TARGETS = (
    ("simulate", "qvibe.simulate", ("simulate_quantum_run", "simulate_classical_run"),
     _count_simulate),
    ("estimate.project", "qvibe.estimate", ("combined_spectrum",), _count_project),
    ("estimate.threshold", "qvibe.estimate", ("detection_threshold",), None),
    ("estimate.scan", "qvibe.estimate", ("scan_spectrum",), _count_scan),
    ("estimate.refine", "qvibe.estimate", ("refine_frequency",), _count_refine),
    ("estimate.phase_amp", "qvibe.estimate", ("estimate_phase", "estimate_amplitudes"), None),
    ("estimate.reconstruct", "qvibe.estimate", ("reconstruct", "classical_reconstruct"),
     _count_reconstruct),
    ("estimate.pipeline", "qvibe.estimate", ("quantum_pipeline", "classical_pipeline"),
     _count_pipeline),
    ("streamio.write", "qvibe.streamio",
     ("write_stream_text", "write_stream_binary", "write_ground_truth"), _count_write),
    ("streamio.read", "qvibe.streamio", ("read_stream",), _count_read),
    ("config", "qvibe.config",
     ("load_config", "build_pair", "build_fringe", "build_channel", "build_signal",
      "build_options"), None),
    ("cli", "qvibe.cli", ("main",), None),
    ("metrology", "qvibe.metrology", ("run_frequency_sweep", "run_advantage_experiment"),
     None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Modules whose import time is reported, and the layer it is charged to.
IMPORT_LAYERS = ("qvibe", "qvibe.simulate", "qvibe.estimate", "qvibe.streamio",
                 "qvibe.config", "qvibe.cli", "qvibe.metrology")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.hook_s = 0.0
        # Self time per (exposure label, layer); the loop sets ``label``.
        self.label = None
        self.by_label = defaultdict(float)
        self._stack = []  # time covered by child spans, one entry per open span
        self._patched = []
        self._broken_hooks = set()

    # ----- spans -----

    def _open(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, layer, t0, extra=0.0):
        dur = time.perf_counter() - t0
        own = dur - self._stack.pop()
        self.self_s[layer] += own
        self.by_label[self.label, layer] += own
        if self._stack:
            self._stack[-1] += dur + extra
        return dur

    def wrap(self, layer, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[layer + ".calls"] += 1
            t0 = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[layer + ".raised"] += 1
                raise
            finally:
                dur = tracer._close(layer, t0)
            if hook is not None:
                tracer._run_hook(hook, fn, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, hook, fn, args, kwargs, result, dur):
        h0 = time.perf_counter()
        try:
            hook(self.counts, fn, args, kwargs, result, dur)
        except Exception as e:  # a changed signature must not break the run
            if hook not in self._broken_hooks:
                self._broken_hooks.add(hook)
                print(f"note: trace counter {hook.__name__} off: {type(e).__name__}: {e}")
        h = time.perf_counter() - h0
        self.hook_s += h
        if self._stack:
            self._stack[-1] += h

    # ----- function wrappers -----

    def install(self):
        for layer, module, names, hook in TARGETS:
            mod = importlib.import_module(module)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    print(f"note: trace skips {module}.{name}: no such name")
                    continue
                wrapper = self.wrap(layer, fn, hook)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").split(".")[0] != "qvibe":
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    # ----- import spans -----

    def trace_imports(self):
        """Time the execution of each qvibe module as it is first imported."""
        sys.meta_path.insert(0, _ImportSpans(self))


class _ImportSpans(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name not in IMPORT_LAYERS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _TimedLoader(spec.loader, self.tracer, name)
                return spec
        return None


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer, name):
        self.loader, self.tracer, self.name = loader, tracer, name

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        layer = self.name.split(".")[-1] + ".import"
        t0 = self.tracer._open()
        try:
            self.loader.exec_module(module)
        finally:
            self.tracer._close(layer, t0)
