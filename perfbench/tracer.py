"""Outside-in tracer for hermite_obs.

The tracer replaces functions at module-attribute level and never edits the
program's source.  Each public function of each package module is wrapped
wherever it is bound by name: in its home module, in every package module
that imported it with ``from .x import f``, and in module-level dicts such as
``verify.SUITES``.  Numerical kernels (mpmath context methods, scipy.linalg
functions) are wrapped on their owner object, so a kernel call becomes a child
span of the layer that made it.

Spans live in memory in flat arrays and are written once, by ``write_spans``,
after the run.  A span stack gives exact self time under nesting and
recursion: self time is the span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

# mpmath context methods and scipy.linalg functions the package calls.
MPMATH_KERNELS = ("eigsy", "expm", "lu_solve", "cholesky", "eighe", "svd_c")
SCIPY_KERNELS = ("expm", "eigh", "eigvalsh")


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []       # per name id
        self.self_s = []      # per name id
        self.incl_s = []      # per name id, outermost activations only
        self._active = []     # per name id, open activations
        self.counters = {}
        self._stack = []      # open frames: [span index, child seconds]
        self._patches = []    # (owner, key, original, was_own_attribute)

    # -- recording ------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._active.append(0)
        return nid

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(result, counters)`` runs after the span closes, so its own
        cost is not charged to the function.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self._active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._active[nid] -= 1
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if not self._active[nid]:
                    self.incl_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result, self.counters)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            own = key in getattr(owner, "__dict__", {})
            self._patches.append((owner, key, getattr(owner, key), own))
            setattr(owner, key, value)

    def install(self, modules, mp, scipy_linalg, hooks=None):
        """Wrap every public function of ``modules`` and the named kernels.

        ``modules`` are the package's modules; a function counts as public
        when its name has no leading underscore and its ``__module__`` is the
        module that defines it.  ``mp`` is the mpmath context and
        ``scipy_linalg`` the ``scipy.linalg`` module.  ``hooks`` maps span
        names to ``on_result`` callbacks.
        """
        hooks = hooks or {}
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = "%s.%s" % (short, attr)
                wrapped[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for attr in MPMATH_KERNELS:
            self._patch(mp, attr, self.wrap("mpmath." + attr, getattr(mp, attr)))
        for attr in SCIPY_KERNELS:
            fn = getattr(scipy_linalg, attr)
            wrapped[id(fn)] = (fn, self.wrap("scipy.linalg." + attr, fn))
            self._patch(scipy_linalg, attr, wrapped[id(fn)][1])
        # rebind every by-name reference inside the package
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patch(obj, key, hit[1])

    def uninstall(self):
        """Restore every patched attribute and dict entry, newest first."""
        while self._patches:
            owner, key, original, own = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            elif own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)

    # -- results --------------------------------------------------------------

    def summary(self):
        """``{span name: {"calls", "self_s", "incl_s"}}`` for names called."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "incl_s": self.incl_s[i]}
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write_spans(self, path):
        """Write all spans as a compressed ``.npz`` (names, name, parent, start, end)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _count_subintervals(result, counters):
    counters["control.subintervals"] += result.subintervals


def trace_hermite_obs():
    """Install a tracer on every hermite_obs module and kernel; return it.

    ``control.subintervals`` counts the time-grid subintervals that the
    returned observability and HUM reports say their Gramians used.
    """
    import scipy.linalg
    from mpmath import mp

    import hermite_obs
    from hermite_obs import (basis, cli, control, estimates, gram, quadratic, quadrature,
                             regions, reporting, verify)

    tracer = Tracer()
    tracer.counters["control.subintervals"] = 0
    tracer.install(
        [basis, cli, control, estimates, gram, quadratic, quadrature, regions, reporting,
         verify, hermite_obs],
        mp, scipy.linalg,
        hooks={"control.observability_constant": _count_subintervals,
               "control.hum_control": _count_subintervals},
    )
    return tracer
