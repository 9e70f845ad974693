"""Per-layer tracing of hypergrad from outside the package.

``Tracer.install()`` replaces the public callables listed in ``TARGETS``
with wrappers that count calls and accumulate self time (a call's
duration minus the time spent in traced calls it made). Coarse callables
(``SPANS``) also keep one span per call — name, start, duration, parent
— in memory. ``uninstall()`` puts the original objects back.

Only traced benchmark runs import this module; the runs that report
end-to-end metrics never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute or Class.method, metric name)
TARGETS = [
    ("cli", "main", "cli.main"),
    ("config", "parse_config", "config.parse"),
    ("experiments", "run_hyperclean", "experiments.runner"),
    ("experiments", "run_mtl", "experiments.runner"),
    ("experiments", "run_rtho", "experiments.runner"),
    ("experiments", "write_report", "experiments.write_report"),
    ("driver", "batch_ho_loop", "driver.loop"),
    ("driver", "stream_ho_loop", "driver.loop"),
    ("engines", "forward_hg", "engines.forward_hg"),
    ("engines", "reverse_hg", "engines.reverse_hg"),
    ("engines", "record_trajectory", "engines.record_trajectory"),
    ("engines", "rtho_stream", "engines.rtho_stream"),
    *[("dynamics", f"{cls}.{meth}", f"dynamics.{meth}")
      for cls in ("GradientDescent", "Momentum")
      for meth in ("step", "jvp_state", "jvp_hyper", "vjp_state",
                   "vjp_hyper", "touched_hypers")],
    *[("objectives", f"{cls}.{meth}", f"objectives.{meth}")
      for cls in ("WeightedSoftmax", "MultitaskLinear")
      for meth in ("grad_w", "hvp_w", "cross_jvp", "cross_vjp")],
    *[("objectives", f"DatasetValidation.{meth}", "objectives.validation")
      for meth in ("value", "grad", "accuracy")],
    ("objectives", "softmax_rows", "objectives.softmax_rows"),
    ("outer", "adam_update", "outer.adam"),
    ("outer", "Constraints.project", "outer.project"),
    ("outer", "random_search", "outer.random_search"),
    ("datasets", "MinibatchSchedule.indices", "datasets.indices"),
    ("datasets", "blob_task", "datasets.generate"),
    ("datasets", "clustered_task_data", "datasets.generate"),
    ("layouts", "VectorLayout.get", "layouts.get"),
    ("layouts", "VectorLayout.pack", "layouts.pack"),
    ("numerics", "ensure_finite", "numerics.ensure_finite"),
    ("data_io", "write_jsonl", "data_io.write"),
    ("data_io", "write_curves_csv", "data_io.write"),
]

# Layer calls few enough per run to keep one span each.
SPANS = {"cli.main", "config.parse", "experiments.runner",
         "experiments.write_report", "driver.loop", "engines.forward_hg",
         "engines.reverse_hg", "engines.rtho_stream", "outer.random_search",
         "data_io.write"}

LAYER_NAMES = sorted({name for _, _, name in TARGETS})

PACKAGE = "hypergrad"


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name in LAYER_NAMES}  # calls, self_s
        self.spans = []
        self.tape_bytes_max = 0
        self.bytes_written = 0
        self.search_trials = 0
        self.search_failed = 0
        self._stack = []
        self._undo = []

    # -- wrapping ------------------------------------------------------

    def _timed(self, name, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans if name in SPANS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]  # time spent in traced children, name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    spans.append((name, start, duration,
                                  stack[-1][1] if stack else None))
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _stream(self, name, fn):
        """Generator wrapper: one traced call per emission."""
        done = object()
        emit = self._timed(name, lambda gen: next(gen, done))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    item = emit(gen)
                    if item is done:
                        self.stats[name][0] -= 1  # exhaustion is no emission
                        return
                    yield item
            finally:
                gen.close()
        return wrapper

    def _after_hook(self, name):
        if name == "engines.reverse_hg":
            def tape(result, _args):
                self.tape_bytes_max = max(self.tape_bytes_max,
                                          result.tape.nbytes())
            return tape
        if name == "data_io.write":
            def written(_result, args):
                self.bytes_written += os.path.getsize(args[0])
            return written
        if name == "outer.random_search":
            def trials(result, _args):
                self.search_trials += len(result.trials)
                self.search_failed += sum(1 for tr in result.trials if tr.failed)
            return trials
        return None

    def install(self):
        for mod_name in {mod for mod, _, _ in TARGETS}:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(f"{PACKAGE}.")]
        for mod_name, attr, name in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._timed(name, original,
                                                 self._after_hook(name)))
                continue
            original = getattr(module, attr)
            if name == "engines.rtho_stream":
                wrapper = self._stream(name, original)
            else:
                wrapper = self._timed(name, original, self._after_hook(name))
            # rebind every name that refers to the original, including
            # ``from .x import f`` copies and dispatch tables such as
            # cli._RUNNERS
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set_item(value, k, wrapper)
        return self

    def _set(self, owner, key, value):
        old = vars(owner)[key]
        self._undo.append(lambda: setattr(owner, key, old))
        setattr(owner, key, value)

    def _set_item(self, table, key, value):
        old = table[key]
        self._undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *_exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def metrics(self):
        """Flat ``name -> value`` per-layer metrics of everything traced."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        steps = self.stats["dynamics.step"][0]
        out["objectives.softmax_per_step"] = (
            self.stats["objectives.softmax_rows"][0] / steps if steps else 0.0)
        out["engines.tape_bytes_max"] = self.tape_bytes_max
        out["data_io.write.bytes"] = self.bytes_written
        out["outer.random_search.trials"] = self.search_trials
        out["outer.random_search.failed_trials"] = self.search_failed
        return out
