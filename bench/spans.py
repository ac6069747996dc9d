"""Span recorder for the traced benchmark pass.

``Recorder.install()`` wraps the public functions of every horoshift layer
module (plus the ``ball`` and ``busemann`` methods of the metric groups) and
rebinds each wrapper under every name a horoshift module holds for the
original, so ``certify.enumerate_fillings`` is traced as well as
``subshifts.enumerate_fillings``.

A span is ``[id, name, start, end, dur, child, parent, invocation, attrs]``:

* ``start``/``end`` are ``time.perf_counter()`` readings;
* ``dur`` is the time spent inside the call.  For a generator it is the sum
  of the time spent inside its ``next()`` calls only, and ``start``/``end``
  bracket the first and last of them;
* ``child`` is the part of ``dur`` spent in nested spans, so a span's self
  time is ``dur - child``;
* ``parent`` is the id of the enclosing span, or -1;
* ``invocation`` identifies the CLI invocation (pass and index);
* ``attrs`` holds the counters of that call (sites, rows, fillings, ...).

Spans stay in memory; child.py writes them out when the child exits.
"""

import inspect
import sys
import time

LAYERS = ("certify", "subshifts", "groups", "horoballs", "separation",
          "serialize", "render")

# methods of the public classes of a layer module that are traced as well
METHODS = {"groups": ("ball", "busemann")}

# functions the per-layer metrics are named after: a missing one is reported
# as a warning and then simply shows zero calls
NAMED = {
    "certify": ("direction_status", "horoball_status", "skew_horoball_status",
                "dilated_trace", "horoball_box_mask", "gf2_nullspace"),
    "subshifts": ("enumerate_fillings", "validate"),
}


def _size(value):
    """Bytes of a rendered artifact: text, bytes, a byte count or raster rows."""
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, int):
        return value
    if isinstance(value, list):
        return sum(len(row) for row in value)
    return 0


def _status_attrs(bound, result):
    return {"kind": result.kind, "reason": getattr(result, "reason", None)}


def _enumerate_attrs(bound, result):
    spec, clamp = bound.arguments["spec"], bound.arguments.get("clamp")
    key = (id(spec), bound.arguments["N"],
           frozenset(clamp.items()) if clamp else None)
    return {"clamped": bool(clamp), "key": hash(key)}


# (layer, function) -> attrs(bound arguments, result); for generators the
# result is None and the wrapper adds "yielded"
ATTRS = {
    ("certify", "direction_status"): _status_attrs,
    ("certify", "horoball_status"): _status_attrs,
    ("certify", "skew_horoball_status"): _status_attrs,
    ("certify", "dilated_trace"): lambda b, r: {"sites": len(r[0])},
    ("certify", "horoball_box_mask"): lambda b, r: {"cells": int(r.size)},
    ("certify", "gf2_nullspace"): lambda b, r: {
        "rows": len(b.arguments["rows"]), "cols": b.arguments["ncols"],
        "basis": len(r)},
    ("subshifts", "enumerate_fillings"): _enumerate_attrs,
    ("groups", "ball"): lambda b, r: {"elements": len(r)},
    ("serialize", "json_dumps"): lambda b, r: {"bytes": _size(r)},
}
ATTRS.update({("render", name): (lambda b, r: {"bytes": _size(r)})
              for name in ("write_pgm", "sublevel_raster", "ball_raster",
                           "direction_circle_svg", "lattice_set_svg")})


class Recorder:
    """Collects spans of one CLI invocation."""

    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []
        self.stack = []
        self.warnings = []

    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), name, None, 0.0, 0.0, 0.0, parent,
                self.invocation, {}]
        self.spans.append(span)
        return span

    def _close_slice(self, span, t0, t1):
        if span[2] is None:
            span[2] = t0
        span[3] = t1
        span[4] += t1 - t0
        if self.stack:
            self.stack[-1][5] += t1 - t0

    def wrap(self, name, fn, attrs=None):
        """A traced stand-in for ``fn`` recording spans named ``name``."""
        sig = inspect.signature(fn) if attrs else None
        clock = time.perf_counter
        rec = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                span = rec._open(name)
                if attrs:
                    span[8].update(attrs(sig.bind(*args, **kwargs), None))
                span[8]["yielded"] = 0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        rec.stack.append(span)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException as e:
                            span[8]["error"] = type(e).__name__
                            raise
                        finally:
                            t1 = clock()
                            rec.stack.pop()
                            rec._close_slice(span, t0, t1)
                        span[8]["yielded"] += 1
                        yield item
                finally:
                    inner.close()
            return traced_gen

        def traced(*args, **kwargs):
            span = rec._open(name)
            rec.stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[8]["error"] = type(e).__name__
                raise
            finally:
                t1 = clock()
                rec.stack.pop()
                rec._close_slice(span, t0, t1)
            if attrs:
                span[8].update(attrs(sig.bind(*args, **kwargs), result))
            return result
        return traced

    def install(self):
        """Wrap every layer's public functions in all loaded horoshift modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "horoshift"
                                         or n.startswith("horoshift."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"horoshift.{layer}")
            if mod is None:
                self.warnings.append(f"module horoshift.{layer} not loaded")
                continue
            for fname in NAMED.get(layer, ()):
                if not inspect.isfunction(getattr(mod, fname, None)):
                    self.warnings.append(
                        f"horoshift.{layer}.{fname} not found; its metrics "
                        f"read zero")
            for fname, obj in sorted(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", obj,
                                    ATTRS.get((layer, fname)))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, attr, wrapper)
            for cname, cls in sorted(vars(mod).items()):
                if cname.startswith("_") or not inspect.isclass(cls) \
                        or cls.__module__ != mod.__name__:
                    continue
                for meth in METHODS.get(layer, ()):
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self.wrap(
                            f"{layer}.{cname}.{meth}", fn,
                            ATTRS.get((layer, meth))))
