"""In-memory span tracing around the public functions of mwdenoise.

`Tracer.install()` replaces every public function and public method of the
traced modules with a wrapper that records one span per call: name, start,
end, parent span and image id. A wrapper replaces the original on every
module attribute that refers to it, because callers resolve their callees
there (for example `pipeline.exhaustive_select`, imported by name, and
`ghm.inverse`, looked up on the module). Spans are kept in flat arrays and
written out once, after the run.

The parent of a span is the innermost open span, so the tracer assumes a
single thread (`denoise_image(..., threads=1)`).
"""

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

PACKAGE = "mwdenoise"
TRACED_MODULES = ("windows", "ghm", "pipeline", "selection", "ga",
                  "image_io", "phantom")
NO_IMAGE = -1


def public_callables(module):
    """(span name, owner, attribute) of each public function and method
    defined in `module`; properties and dunder methods are left alone."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in sorted(vars(module).items()):
        if (attr.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{attr}", module, attr))
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{short}.{attr}.{meth}", obj, meth))
    return out


class Tracer:
    """Records spans for calls into the traced modules while installed.

    `observers` maps a span name to a callback that receives each call's
    return value, so a metric can be read from what a layer hands back.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.image = array("q")
        self.start = array("d")
        self.end = array("d")
        self.image_id = NO_IMAGE
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, image = self.name_id, self.parent, self.image
        start, end, stack = self.start, self.end, self._stack
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            image.append(self.image_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self):
        """Wrap every public callable of the traced modules in place."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}")
                   for m in TRACED_MODULES]
        package = importlib.import_module(PACKAGE)
        wrapped = {}
        for module in modules:
            for name, owner, attr in public_callables(module):
                original = vars(owner)[attr]
                wrapped[id(original)] = (original, self.wrap(name, original))
                self._set(owner, attr, wrapped[id(original)][1])
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        return self

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original callable back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self):
        """The recorded spans as numpy arrays, one entry per span."""
        return SpanTable(self.names, *(np.array(a) for a in (
            self.name_id, self.parent, self.image, self.start, self.end)))


class SpanTable:
    """Spans as parallel arrays; `parent` is -1 for a root span."""

    def __init__(self, names, name_id, parent, image, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, np.int32)
        self.parent = np.asarray(parent, np.int64)
        self.image = np.asarray(image, np.int64)
        self.start = np.asarray(start, np.float64)
        self.end = np.asarray(end, np.float64)

    def __len__(self):
        return len(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def by_name(self, select=None):
        """{span name: (calls, total self seconds)} over selected spans."""
        keep = np.ones(len(self), bool) if select is None else select
        ids = self.name_id[keep]
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=self.self_times()[keep],
                           minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=self.name_id, parent=self.parent, image=self.image,
                 start=self.start, end=self.end)


def missing_spans(calls, baseline_calls):
    """Span names the baseline saw called but this run did not."""
    return sorted(n for n, c in baseline_calls.items()
                  if c > 0 and calls.get(n, 0) == 0)
