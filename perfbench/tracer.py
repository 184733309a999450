"""Span tracing of the gnssfp layers from outside the package.

`instrument` wraps every public function of each layer module and rebinds
it at every module attribute that holds it (``gnssfp.cli.extract_features``
as well as ``gnssfp.fingerprint_features.extract_features``), so calls made
through any imported name are recorded. No package code changes.

Each span records its name, start and end (``perf_counter`` seconds), the id
of the span that caused it, the run id (iteration of the timed loop) and a
few work counts taken from its arguments and result. Spans are kept in
memory and written out by the caller when the run ends. A call running in a
worker thread with no open span of its own takes the main thread's innermost
open span as its parent (the CLI's ``ThreadPoolExecutor`` tracks channels).

With allocation tracking on, each span also records the peak of
``tracemalloc``'s traced memory while it was open, less the traced memory
when it opened. The peak is process-wide, so spans overlapping in two
threads see each other's allocations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import statistics
import threading
import tracemalloc
from time import perf_counter

LAYERS = ("cli", "signal_sim", "receiver_core", "fingerprint_features", "mvn_model",
          "spoof_detector", "capture_io")

# Called once per epoch or per score block: counted, never timed, so their
# time stays with the caller's span. The value, if any, tells which results
# also count as "<name>.pass".
COUNT_ONLY = {
    "receiver_core.lock_tests": lambda result: result == "pass",  # LOCK_PASS
    "mvn_model.log_mean_of_scores": None,
}


def _attack_copies(attack, targets) -> int:
    """Satellite streams spoof_overlay builds: the replayed stream, or each
    target through the spoofer plus, when not seamless, its clean copy."""
    if attack.mode == "replay":
        return 1
    return len(targets) * (1 if attack.seamless else 2)


def _extract_attrs(args, result, frame):
    passes = (frame.counts or {}).get("receiver_core.lock_tests.pass", 0)
    return {"windows": len(result), "attempted": passes // args["cfg"].window_len}


# span name -> f(bound arguments, result, frame) -> work counts
ATTRS = {
    "signal_sim.synthesize_genuine": lambda a, r, f: {
        "sat_samples": len(a["scenarios"]) * len(r.samples)},
    "signal_sim.spoof_overlay": lambda a, r, f: {
        "sat_samples": _attack_copies(a["attack"], a["target_scenarios"]) * len(r.samples)},
    "receiver_core.acquire": lambda a, r, f: {"acquired": int(r.acquired)},
    "receiver_core.track_channel": lambda a, r, f: {
        "epochs": len(r.epochs), "loss_of_lock": int(r.status == "loss_of_lock")},
    "capture_io.write_iq": lambda a, r, f: {"bytes": a["stream"].samples.nbytes},
    "capture_io.read_iq": lambda a, r, f: {"bytes": r.samples.nbytes},
    "capture_io.write_epochs_csv": lambda a, r, f: {"rows": len(a["epochs"])},
    "capture_io.read_epochs_csv": lambda a, r, f: {"rows": len(r)},
    "fingerprint_features.extract_features": _extract_attrs,
    "spoof_detector.detect_stream": lambda a, r, f: {"decisions": len(r)},
}


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "mem0", "mem_max", "counts")

    def __init__(self, span_id, name, parent):
        self.id, self.name, self.parent = span_id, name, parent
        self.counts = None


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.run = 0  # run id stamped on spans; the caller advances it
        self.spans = []  # (id, name, parent, run, start, end, attrs)
        self.counts = {}  # run -> {counter: n} for counts outside any span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._lock = threading.Lock()
        self._open = []  # open frames of every thread, for allocation peaks
        if track_alloc:
            tracemalloc.start(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold_peak(self) -> int:
        """Fold the traced-memory peak since the last reset into open frames."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame.mem_max = max(frame.mem_max, peak)
        tracemalloc.reset_peak()
        return current

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parents = stack[-1:] or self._main_stack[-1:]  # slices: the main thread may pop
        frame = _Frame(next(self._ids), name, parents[0].id if parents else None)
        if self.track_alloc:
            with self._lock:
                frame.mem0 = frame.mem_max = self._fold_peak()
                self._open.append(frame)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame, end: float, attrs: dict) -> None:
        stack = self._stack()
        stack.pop()
        if self.track_alloc:
            with self._lock:
                self._fold_peak()
                self._open.remove(frame)
            attrs["peak_alloc_bytes"] = frame.mem_max - frame.mem0
        if frame.counts:
            self._add_counts(stack, frame.counts)
        self.spans.append((frame.id, frame.name, frame.parent, self.run, frame.start, end,
                           attrs))

    def _add_counts(self, stack: list, counts: dict) -> None:
        """Add to the innermost open span's counts, or to the run's totals."""
        with self._lock:
            if stack:
                if stack[-1].counts is None:
                    stack[-1].counts = {}
                totals = stack[-1].counts
            else:
                totals = self.counts.setdefault(self.run, {})
            for key, n in counts.items():
                totals[key] = totals.get(key, 0) + n

    def count(self, key: str) -> None:
        self._add_counts(self._stack(), {key: 1})

    def span_wrapper(self, name: str, fn):
        attrs_fn = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                attrs = {}
                if ok and attrs_fn:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = attrs_fn(bound.arguments, result, frame)
                self._exit(frame, end, attrs)
        return wrapper

    def count_wrapper(self, name: str, fn):
        calls, passes, passed = f"{name}.calls", f"{name}.pass", COUNT_ONLY[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(calls)
            if passed and passed(result):
                self.count(passes)
            return result
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {str(run): c for run, c in self.counts.items()}}


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' public functions at every gnssfp name bound to them."""
    import gnssfp

    modules = [gnssfp] + [importlib.import_module(f"gnssfp.{m.name}")
                          for m in pkgutil.iter_modules(gnssfp.__path__)]
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gnssfp.{layer}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            make = tracer.count_wrapper if name in COUNT_ONLY else tracer.span_wrapper
            wrappers[obj] = make(name, obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


# -- per-layer metrics ---------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_times(spans) -> dict:
    """Span id -> time inside the span not covered by spans of other layers.

    The cover is taken over the first other-layer span on each path down
    from the span, so nested calls within one layer stay in its time.
    """
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)

    def foreign(span, layer, out):
        for child in children.get(span[0], ()):
            if _layer(child[1]) == layer:
                foreign(child, layer, out)
            else:
                out.append((child[4], child[5]))
        return out

    return {s[0]: (s[5] - s[4]) - _union_length(foreign(s, _layer(s[1]), []), s[4], s[5])
            for s in spans}


SUBCOMMANDS = ("simulate", "track", "extract", "train", "eval", "xval", "detect")
MIB = float(1 << 20)


def layer_metrics(spans, counts: dict, n_runs: int, alloc_spans) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced timed loop.

    `cli.<subcommand>.s` is the subcommand's wall time; `<layer>.self_s` and
    `<layer>.<function>.s` count time inside the layer's spans that no span
    of another layer covers. Times are medians over the loop's runs of the
    per-run sums; rates and fractions pool all runs; counts are per run.
    `*.peak_alloc_mb` come from `alloc_spans`, a run with allocation tracking.
    A layer a workload does not reach reports 0.
    """
    self_t = layer_self_times(spans)
    by_id = {s[0]: s for s in spans}

    def per_run(select, value) -> float:
        totals = [0.0] * n_runs
        for s in spans:
            if select(s):
                totals[s[3]] += value(s)
        return statistics.median(totals)

    def wall(name):
        return per_run(lambda s: s[1] == name, lambda s: s[5] - s[4])

    def own(name):
        return per_run(lambda s: s[1] == name, lambda s: self_t[s[0]])

    def layer_entry(s, layer):
        return _layer(s[1]) == layer and (s[2] is None or _layer(by_id[s[2]][1]) != layer)

    def work(names, key):
        return sum(s[6].get(key, 0) for s in spans if s[1] in names)

    def busy(names):
        return sum(self_t[s[0]] for s in spans if s[1] in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def counted(key):
        return sum(c.get(key, 0) for c in counts.values())

    def peak_mb(layer):
        return max((s[6]["peak_alloc_bytes"] for s in alloc_spans if _layer(s[1]) == layer),
                   default=0) / MIB

    synth = ("signal_sim.synthesize_genuine", "signal_sim.spoof_overlay")
    iq = ("capture_io.write_iq", "capture_io.read_iq")
    epoch_io = ("capture_io.read_epochs_csv", "capture_io.write_epochs_csv")
    extract = ("fingerprint_features.extract_features",)
    m = {f"cli.{sub}.s": (wall(f"cli.cmd_{sub}"), "s") for sub in SUBCOMMANDS}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_run(lambda s, layer=layer: layer_entry(s, layer),
                                        lambda s: self_t[s[0]]), "s")
    for name in synth + ("receiver_core.acquire", "receiver_core.track_channel") + iq \
            + epoch_io + ("capture_io.read_features_csv", "capture_io.write_features_csv",
                          "capture_io.write_decisions_csv") + extract \
            + ("mvn_model.fit", "mvn_model.log_density", "spoof_detector.train",
               "spoof_detector.evaluate", "spoof_detector.kfold_xval",
               "spoof_detector.detect_stream", "spoof_detector.spoof_timing"):
        m[f"{name}.s"] = (own(name), "s")
    m.update({
        "signal_sim.msamples_per_s": (ratio(work(synth, "sat_samples") / 1e6, busy(synth)),
                                      "Msample/s"),
        "signal_sim.peak_alloc_mb": (peak_mb("signal_sim"), "MiB"),
        "receiver_core.epochs_per_s": (ratio(work(("receiver_core.track_channel",), "epochs"),
                                             busy(("receiver_core.track_channel",))), "1/s"),
        "receiver_core.epochs": (work(("receiver_core.track_channel",), "epochs") / n_runs,
                                 "count"),
        "receiver_core.acquired_frac": (ratio(work(("receiver_core.acquire",), "acquired"),
                                              sum(s[1] == "receiver_core.acquire"
                                                  for s in spans)), "ratio"),
        "receiver_core.loss_of_lock": (work(("receiver_core.track_channel",), "loss_of_lock")
                                       / n_runs, "count"),
        "receiver_core.lock_pass_frac": (ratio(counted("receiver_core.lock_tests.pass"),
                                               counted("receiver_core.lock_tests.calls")),
                                         "ratio"),
        "capture_io.iq_mb_per_s": (ratio(work(iq, "bytes") / MIB, busy(iq)), "MiB/s"),
        "capture_io.peak_alloc_mb": (peak_mb("capture_io"), "MiB"),
        "capture_io.epoch_rows_per_s": (ratio(work(epoch_io, "rows"), busy(epoch_io)), "1/s"),
        "fingerprint_features.windows": (work(extract, "windows") / n_runs, "count"),
        "fingerprint_features.window_yield": (ratio(work(extract, "windows"),
                                                    work(extract, "attempted")), "ratio"),
        "mvn_model.log_mean_of_scores.calls": (counted("mvn_model.log_mean_of_scores.calls")
                                               / n_runs, "count"),
        "spoof_detector.decisions": (work(("spoof_detector.detect_stream",), "decisions")
                                     / n_runs, "count"),
    })
    return m
